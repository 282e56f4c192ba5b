"""Acceptance suite: one test per release criterion, each printing a
pass/fail line and enforcing its runtime budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import json
from contextlib import contextmanager
from time import perf_counter

import numpy as np
import pytest
from scipy.integrate import quad

from specsel.cli import main
from specsel.crossval import loo_press_matrix
from specsel.decompose import nipals_fit
from specsel.errors import ZeroVariance
from specsel.preprocess import (
    IDENTITY,
    apply_pipeline,
    despike,
    parse_pipeline,
    rnv,
    savitzky_golay,
    snv,
)
from specsel.selector import evaluate_holdout, select_method, train_final
from specsel.significance import anova_oneway, f_cdf
from specsel.spectra import (
    ConcentrationSet,
    SpectraSet,
    save_concentrations,
    save_spectra,
)
from specsel import synth

from conftest import (brute_force_press, f_density, mixture_species,
                      noiseless_mixtures)


@contextmanager
def criterion(name, budget_s):
    start = perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    elapsed = perf_counter() - start
    ok = elapsed <= budget_s
    verdict = "PASS" if ok else "FAIL"
    print(f"[acceptance] {name}: {verdict} ({elapsed:.2f} s, budget {budget_s} s)")
    assert ok, f"{name}: runtime {elapsed:.2f} s exceeds budget {budget_s} s"


def test_nipals_matches_eigendecomposition():
    with criterion("NIPALS-eigendecomposition equivalence", 10.0):
        worst = 0.0
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            i = int(rng.integers(8, 31))
            j = int(rng.integers(3 * i, 201))
            matrix = rng.normal(size=(i, j))
            spectra = SpectraSet(np.arange(j, dtype=float), matrix,
                                 tuple(f"s{n}" for n in range(i)))
            k = min(5, i - 1)
            model = nipals_fit(spectra, k, tol=1e-11, max_iter=100000)
            centered = matrix - matrix.mean(axis=0)
            oracle = np.linalg.svd(centered, full_matrices=False)[2].T[:, :k]
            for c in range(k):
                peak = np.argmax(np.abs(oracle[:, c]))
                if oracle[peak, c] < 0:
                    oracle[:, c] = -oracle[:, c]
            worst = max(worst, float(np.abs(model.loadings - oracle).max()))
        assert worst < 1e-8, f"worst loading deviation {worst:.3e}"


def test_exact_recovery_of_noiseless_mixtures():
    with criterion("exact recovery on noiseless mixtures", 1.0):
        spectra, conc, recipe = noiseless_mixtures(n_samples=10, n_species=3)
        report = select_method(spectra, conc, [IDENTITY], alpha=0.05)
        assert report.chosen_significant
        assert report.chosen_pipeline == "identity"
        assert report.chosen_pc == 3

        model = train_final(spectra, conc, IDENTITY, 3)
        rng = np.random.default_rng(99)
        hconc = ConcentrationSet(rng.uniform(0.2, 1.0, (3, 6)),
                                 conc.species, conc.units)
        holdout = synth.generate(recipe, hconc)
        ev = evaluate_holdout(model, holdout, hconc)
        assert ev.rss[2] < 1e-10, f"holdout RSS at m=3 is {ev.rss[2]:.3e}"


def test_crossval_matches_brute_force_oracle():
    with criterion("leave-one-out oracle equivalence", 1.0):
        rng = np.random.default_rng(88)
        for i, pipeline_text in ((4, "snv"), (5, "identity")):
            axis = 400.0 + 2.0 * np.arange(12)
            basis = rng.normal(size=(2, 12))
            conc_values = rng.uniform(0.5, 2.0, (2, i))
            matrix = conc_values.T @ basis + rng.normal(0.0, 0.05, (i, 12))
            spectra = SpectraSet(axis, matrix,
                                 tuple(f"s{n}" for n in range(i)))
            conc = ConcentrationSet(conc_values, ("a", "b"), ("u", "u"))
            pipeline = parse_pipeline(pipeline_text)
            fast = loo_press_matrix(spectra, conc, pipeline)
            slow = brute_force_press(spectra, conc, pipeline)
            assert np.allclose(fast.values, slow, rtol=0, atol=1e-9,
                               equal_nan=True)


def test_anova_correctness():
    with criterion("ANOVA and F-distribution correctness", 30.0):
        # hand-computed 3-group table
        table = np.array([[1.0, 2.0, 6.0],
                          [2.0, 3.0, 7.0],
                          [3.0, 4.0, 8.0]])
        res = anova_oneway(table, alpha=0.05)
        assert res.sst == 42.0 and res.sse == 6.0
        assert abs(res.f_statistic - 21.0) < 1e-12
        assert abs(res.p_value - 0.125 ** 3) < 1e-12

        # false-rejection rate at alpha = 0.05 over 1000 seeded draws
        rng = np.random.default_rng(0)
        rejections = sum(
            anova_oneway(rng.normal(10.0, 1.0, (10, 8)), 0.05).significant
            for _ in range(1000))
        rate = rejections / 1000.0
        assert 0.03 <= rate <= 0.07, f"false-rejection rate {rate}"

        # cumulative F against adaptive quadrature on a 50-point grid
        grid = [(x, d1, d2)
                for d1 in (1, 2, 4, 10, 30)
                for d2 in (2, 6, 20, 60, 120)
                for x in (0.4, 2.7)]
        assert len(grid) == 50
        for x, d1, d2 in grid:
            oracle = quad(f_density, 0.0, x, args=(d1, d2), limit=200)[0]
            assert abs(f_cdf(x, d1, d2) - oracle) < 1e-8


def _drifting_fluorescent_recipe(seed):
    species = mixture_species(3) + (
        synth.SpeciesSpec(
            name="solvent",
            peaks=((640.0, 30.0, 1.2), (1640.0, 40.0, 1.5),
                   (1100.0, 25.0, 0.8))),
    )
    return synth.SynthRecipe(
        axis_start=400.0, axis_stop=1800.0, axis_step=2.0,
        species=species,
        baseline=synth.BaselineSpec("exp_decay", (25.0, 650.0), (0.5, 1.5)),
        noise_sigma=0.004,
        drift_range=(0.7, 1.3),
        seed=seed,
    )


def test_qualitative_dichotomy_replication():
    with criterion("significant vs non-significant dichotomy", 60.0):
        recipe = _drifting_fluorescent_recipe(seed=5)
        rng = np.random.default_rng(6)
        conc_values = np.vstack([rng.uniform(0.2, 1.0, (3, 20)),
                                 np.ones((1, 20))])
        conc = ConcentrationSet(conc_values,
                                tuple(s.name for s in recipe.species),
                                ("u",) * 4)
        spectra = synth.generate(recipe, conc)

        candidate_a = parse_pipeline("baseline_als(100000,0.01,10)|rnv(90)")
        candidate_b = parse_pipeline("derivative(1)")
        report = select_method(spectra, conc, [candidate_a, candidate_b],
                               alpha=0.05)
        verdict_a = report.entries[0].verdict
        verdict_b = report.entries[1].verdict
        assert verdict_a.significant, "baseline+RNV pipeline must pass the gate"
        assert not verdict_b.significant, "derivative pipeline must fail the gate"
        assert report.chosen_pipeline == candidate_a.name
        assert report.chosen_significant

        hold_recipe = _drifting_fluorescent_recipe(seed=7)
        hold_values = np.vstack([rng.uniform(0.2, 1.0, (3, 8)),
                                 np.ones((1, 8))])
        hconc = ConcentrationSet(hold_values, conc.species, conc.units)
        holdout = synth.generate(hold_recipe, hconc)

        k_full = spectra.n_spectra - 2
        model_a = train_final(spectra, conc, candidate_a, k_full)
        curve_a = evaluate_holdout(
            model_a, apply_pipeline(holdout, candidate_a), hconc).rss
        ratio_a = curve_a[verdict_a.optimal_pc - 1] / curve_a.min()
        assert ratio_a <= 2.0, f"significant pick is {ratio_a:.2f}x off best"

        model_b = train_final(spectra, conc, candidate_b, k_full)
        curve_b = evaluate_holdout(
            model_b, apply_pipeline(holdout, candidate_b), hconc).rss
        excess_b = curve_b[verdict_b.optimal_pc - 1] / curve_b.min()
        assert excess_b > 1.02, (
            f"fallback pick should miss the true optimum, ratio {excess_b:.3f}")


def test_preprocessing_unit_properties():
    with criterion("preprocessing unit properties", 5.0):
        # 5-point quadratic smoothing kernel
        offsets = np.arange(-2.0, 3.0)
        design = np.vander(offsets, 3, increasing=True)
        kernel = np.linalg.solve(design.T @ design, design.T)[0]
        assert np.abs(kernel - np.array([-3, 12, 17, 12, -3]) / 35.0).max() < 1e-13
        taps = []
        for c in range(5):
            e = np.zeros(9)
            e[c + 2] = 1.0
            taps.append(savitzky_golay(e, 5, 2, 0)[4])
        assert np.abs(np.array(taps)[::-1] - kernel).max() < 1e-13

        # polynomial reproduction of degree <= polyorder, edges included
        t = np.linspace(-3.0, 7.0, 40)
        for coeffs in ([2.0], [1.0, -0.5], [2.0, -1.5, 0.25]):
            poly = np.polynomial.polynomial.polyval(t, coeffs)
            assert np.abs(savitzky_golay(poly, 7, 2, 0) - poly).max() < 1e-10

        # SNV idempotence and scale invariance
        rng = np.random.default_rng(1)
        x = rng.normal(size=300)
        once = snv(x)
        assert np.abs(snv(once) - once).max() < 1e-12
        assert np.array_equal(snv(4.0 * x), snv(x))
        with pytest.raises(ZeroVariance):
            snv(np.full(8, 3.0))

        # RNV ignores outliers above its percentile
        y = rng.normal(0.0, 1.0, 200)
        y[11] = 50.0
        magnified = y.copy()
        magnified[11] = 500.0
        keep = np.arange(200) != 11
        assert np.array_equal(rnv(y, 75.0)[keep], rnv(magnified, 75.0)[keep])

        # despike is a no-op on clean spectra
        smooth = 10.0 * np.sin(np.linspace(0.0, 6.0, 300))
        assert np.array_equal(despike(smooth, 7, 8.0), smooth)


def test_select_runs_byte_identical(tmp_path):
    with criterion("byte-identical selection reports", 60.0):
        spectra, conc = synth.tears_phantom(12, seed=9)
        spath = tmp_path / "spectra.csv"
        cpath = tmp_path / "conc.csv"
        save_spectra(spath, spectra)
        save_concentrations(cpath, conc, spectra.labels)
        blobs = []
        for run, threads in (("a", "1"), ("b", "4"), ("c", "1")):
            out = tmp_path / f"report_{run}.json"
            code = main([
                "select", "--spectra", str(spath),
                "--concentrations", str(cpath),
                "--candidate", "snv",
                "--candidate", "baseline_als(100000,0.01,10)|rnv(75)",
                "--candidate", "derivative(1)",
                "--threads", threads, "--out", str(out),
            ])
            assert code in (0, 3)
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]
        json.loads(blobs[0])  # must be valid JSON
