import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specsel.errors import (AllCandidatesFailed, AxisMismatch, BadOrder,
                            LabelMismatch, NonFiniteValue, ShapeMismatch)
from specsel.preprocess import IDENTITY, apply_pipeline, parse_pipeline
from specsel.regress import pcr_predict, press, save_model, load_model
from specsel.selector import (
    evaluate_holdout,
    report_payload,
    select_method,
    train_final,
    write_report,
)
from specsel.spectra import (
    ConcentrationSet,
    SpectraSet,
    save_concentrations,
    save_spectra,
)
from specsel import selector, synth
from specsel.significance import select_optimal_pc

from conftest import noiseless_mixtures, snv_collapsed_fold


def holdout_mixtures(recipe, n, conc_seed):
    rng = np.random.default_rng(conc_seed)
    conc = ConcentrationSet(
        rng.uniform(0.2, 1.0, (len(recipe.species), n)),
        tuple(s.name for s in recipe.species),
        ("u",) * len(recipe.species))
    return synth.generate(recipe, conc), conc


def default_verdicts(spectra, conc):
    """The default grid's chosen pair and each candidate's (significant,
    optimal PC), with any warning an error."""
    from specsel.cli import DEFAULT_CANDIDATES
    grid = [parse_pipeline(t) for t in DEFAULT_CANDIDATES]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = select_method(spectra, conc, grid)
    return (report.chosen_pipeline, report.chosen_pc,
            report.chosen_significant,
            [(entry.pipeline_name, entry.verdict.significant,
              entry.verdict.optimal_pc) for entry in report.entries])


class TestSelectMethod:
    def test_identity_on_noiseless_mixtures(self):
        spectra, conc, _ = noiseless_mixtures(n_samples=10, n_species=3)
        report = select_method(spectra, conc, [IDENTITY], alpha=0.05)
        assert report.chosen_pipeline == "identity"
        assert report.chosen_pc == 3
        assert report.chosen_significant

    def test_duplicate_candidates_refused(self):
        # two spellings of one pipeline: refused before either is evaluated
        spectra, conc, _ = noiseless_mixtures(n_samples=8, n_species=2)
        candidates = [parse_pipeline("sg(7,2)"), parse_pipeline("snv"),
                      parse_pipeline("savgol(7,2,0)")]
        with pytest.raises(
                LabelMismatch,
                match=re.escape("duplicate candidate pipelines ['savgol(7,2,0)']")):
            select_method(spectra, conc, candidates, alpha=0.05)

    def test_exact_tie_keeps_earlier_candidate(self):
        # no point lies 1e9 local MADs off its running median, so despike
        # passes every spectrum through bit for bit: two distinct pipelines
        # that tie exactly
        spectra, conc = synth.tears_phantom(12, 3)
        report = select_method(spectra, conc, [
            parse_pipeline("identity"), parse_pipeline("despike(7,1e9)")])
        assert report.entries[0].sum_press_at_optimal == \
            report.entries[1].sum_press_at_optimal
        assert report.chosen_pipeline == "identity"
        assert report.alerts == (
            "tie on PRESS sum between identity and despike(7,1000000000); "
            "kept the earlier candidate",)

    def test_failed_candidate_is_entry_not_abort(self):
        spectra, conc, _ = noiseless_mixtures(n_samples=8, n_species=2)
        flat = SpectraSet(
            spectra.axis,
            np.vstack([spectra.matrix[:-1], np.ones(spectra.n_channels)]),
            spectra.labels)
        bad = parse_pipeline("snv")   # constant row breaks snv
        report = select_method(flat, conc, [bad, IDENTITY], alpha=0.05)
        assert not report.entries[0].ok
        assert report.entries[0].sum_press_at_optimal is None
        assert report.entries[1].ok
        assert report.chosen_pipeline == "identity"
        assert any("failed" in alert for alert in report.alerts)

    def test_failed_baseline_system_is_entry(self):
        spectra, conc = synth.tears_phantom(8, 7)
        report = select_method(spectra, conc,
                               [parse_pipeline("baseline_als(1e300)"),
                                parse_pipeline("snv")])
        failed, ok = report.entries
        assert not failed.ok and ok.ok
        # the parenthesis holds scipy's own reason, which is not ours to pin
        assert failed.error.startswith(
            "BadOrder: spectrum 's000', step baseline_als(1e+300,0.01,10): "
            "lambda 1e+300 and p 0.01 give a baseline system that is not "
            "positive definite (")
        assert report.chosen_pipeline == "snv"

    def test_select_report_does_not_depend_on_intensity_unit(self):
        # a power of two rescales every preprocessing step and fit exactly,
        # so only a limit that is not relative to the data moves the report
        from specsel.cli import DEFAULT_CANDIDATES
        spectra, conc = synth.tears_phantom(20, 7)
        grid = [parse_pipeline(t) for t in DEFAULT_CANDIDATES]

        def payload(e):
            scaled = SpectraSet(spectra.axis, spectra.matrix * 2.0 ** e,
                                spectra.labels)
            return json.dumps(report_payload(select_method(scaled, conc,
                                                           grid)))

        base = payload(0)
        for e in (-60, -45, -36, 20, 100):
            assert payload(e) == base, e

    @pytest.mark.parametrize("e", [-600, 600])
    def test_snv_and_rnv_entries_at_extreme_intensity_scales(self, e):
        # snv and rnv bring each row to unit scale by a power of two first,
        # so no spread overflows or underflows and no warning is raised
        spectra, conc = synth.tears_phantom(8, 7)
        grid = [parse_pipeline(t) for t in (
            "snv", "rnv(75)", "rnv(90)", "baseline_als(100000,0.01,10)|rnv(75)")]

        def entries(scale):
            report = select_method(
                SpectraSet(spectra.axis, spectra.matrix * scale,
                           spectra.labels), conc, grid)
            return json.dumps(report_payload(report)["candidates"])

        assert entries(2.0 ** e) == entries(1.0)

    @pytest.mark.parametrize("e", [-300, 300])
    def test_verdicts_do_not_depend_on_concentration_unit(self, e):
        # PRESS scales by 4^e, so its squared deviations would leave the
        # float range; the gate divides the PRESS columns by a power of two
        # first, so the verdicts stay and no overflow warning is raised
        spectra, conc = synth.tears_phantom(8, 7)
        scaled = ConcentrationSet(conc.matrix * 2.0 ** e, conc.species,
                                  conc.units)
        assert default_verdicts(spectra, scaled) == \
            default_verdicts(spectra, conc)

    @pytest.mark.parametrize("transform", [
        # the samples in another order, spectra and concentrations alike
        lambda s, c, perm=np.random.default_rng(0).permutation(8): (
            SpectraSet(s.axis, s.matrix[perm],
                       tuple(s.labels[k] for k in perm)),
            ConcentrationSet(c.matrix[:, perm], c.species, c.units)),
        lambda s, c: (s, ConcentrationSet(c.matrix[::-1], c.species[::-1],
                                          c.units[::-1])),
        lambda s, c: (SpectraSet(s.axis, s.matrix,
                                 tuple(f"x{k}" for k in range(8))), c),
        lambda s, c: (SpectraSet(s.axis + 1000.0, s.matrix, s.labels), c),
        lambda s, c: (SpectraSet(s.axis * 2.0, s.matrix, s.labels), c),
        lambda s, c: (s, ConcentrationSet(
            np.vstack([c.matrix, np.full(8, 3.0)]),
            (*c.species, "constant"), (*c.units, "mg/mL"))),
    ], ids=["permuted", "species_reversed", "relabelled", "axis_plus_1000",
            "axis_times_2", "constant_species"])
    def test_verdicts_survive_metamorphic_transform(self, transform):
        # none of these changes what the data say about a pipeline
        spectra, conc = synth.tears_phantom(8, 7)
        assert default_verdicts(*transform(spectra, conc)) == \
            default_verdicts(spectra, conc)

    def test_all_candidates_failed(self):
        spectra, conc, _ = noiseless_mixtures(n_samples=8, n_species=2)
        flat = SpectraSet(spectra.axis, np.ones_like(spectra.matrix),
                          spectra.labels)
        with pytest.raises(AllCandidatesFailed):
            select_method(flat, conc, [parse_pipeline("snv")], alpha=0.05)

    def test_significance_gates_selection(self):
        # a significant candidate must win even if a non-significant one
        # has lower PRESS; construct via monkeypatched verdicts is brittle,
        # so check the weaker, structural form: when at least one entry is
        # significant the chosen pipeline is drawn from that subset
        spectra, conc, _ = noiseless_mixtures(n_samples=10, n_species=3)
        candidates = [IDENTITY, parse_pipeline("derivative(1)")]
        report = select_method(spectra, conc, candidates, alpha=0.05)
        significant = {e.pipeline_name for e in report.entries
                       if e.ok and e.verdict.significant}
        if significant:
            assert report.chosen_pipeline in significant

    def test_deterministic_across_workers(self):
        spectra, conc, _ = noiseless_mixtures(n_samples=9, n_species=3)
        candidates = [IDENTITY, parse_pipeline("snv")]
        a = select_method(spectra, conc, candidates, workers=1)
        b = select_method(spectra, conc, candidates, workers=4)
        pa = report_payload(a)
        pb = report_payload(b)
        assert json.dumps(pa) == json.dumps(pb)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(5, 9), seed=st.integers(0, 2**16),
           names=st.lists(st.sampled_from([
               "identity", "snv", "rnv(75)", "savgol(7,2,0)", "derivative(2)",
               "baseline_als(100000,0.01,10)|rnv(90)"]),
               min_size=2, max_size=3, unique=True))
    def test_report_invariant_across_workers(self, n, seed, names):
        spectra, conc = synth.tears_phantom(n, seed)
        candidates = [parse_pipeline(x) for x in names]
        one, two = (json.dumps(report_payload(select_method(
            spectra, conc, candidates, workers=w))) for w in (1, 2))
        assert one == two

    def test_no_candidates(self):
        spectra, conc, _ = noiseless_mixtures(n_samples=8, n_species=2)
        with pytest.raises(AllCandidatesFailed):
            select_method(spectra, conc, [], alpha=0.05)

    def test_bad_alpha(self, monkeypatch):
        # refused before any fold runs
        spectra, conc, _ = noiseless_mixtures(n_samples=8, n_species=2)

        def no_fold(*args, **kwargs):
            raise AssertionError("a fold ran")

        monkeypatch.setattr(selector, "loo_press_matrix", no_fold)
        from specsel.errors import SpecselError
        for alpha in (1.5, 0.0, 1.0, 2.0, -1.0, math.nan):
            message = rf"alpha must be in \(0, 1\), got {alpha}$"
            with pytest.raises(SpecselError, match=message):
                select_method(spectra, conc, [IDENTITY], alpha=alpha)

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one(self, workers):
        spectra, conc, _ = noiseless_mixtures(n_samples=8, n_species=2)
        from specsel.errors import SpecselError
        with pytest.raises(SpecselError, match="threads must be at least 1"):
            select_method(spectra, conc, [IDENTITY], workers=workers)

    @pytest.mark.parametrize("n,seed,chosen_pc,optimal_pcs,p_zero", [
        (20, 7, 4, [16, 18, 16, 4, 17, 11, 6, 3, 4, 1, 9, 18], 34),
        (40, 11, 5, [4, 4, 5, 5, 35, 34, 36, 3, 24, 9, 34, 38], 74),
    ])
    def test_default_grid_verdicts(self, n, seed, chosen_pc, optimal_pcs,
                                   p_zero):
        # today's picks lean on pairwise p-values that underflow to 0.0 and
        # tie toward fewer components; an exact upper tail (fdtrc) moves them
        from specsel.cli import DEFAULT_CANDIDATES
        spectra, conc = synth.tears_phantom(n, seed)
        report = select_method(spectra, conc,
                               [parse_pipeline(t) for t in DEFAULT_CANDIDATES])
        assert (report.chosen_pipeline, report.chosen_pc,
                report.chosen_significant) == ("savgol(7,2,0)", chosen_pc, True)
        verdicts = [e.verdict for e in report.entries]
        assert [v.optimal_pc for v in verdicts] == optimal_pcs
        assert sum(p == 0.0 for v in verdicts
                   for p in v.pairwise_p.values()) == p_zero

    def test_fold_notes_surface_as_alerts(self):
        # rank-deficient noiseless folds drop PC counts with notes that the
        # report must carry
        spectra, conc, _ = noiseless_mixtures(n_samples=8, n_species=2)
        report = select_method(spectra, conc, [IDENTITY], alpha=0.05)
        assert any(alert.startswith("identity: fold ")
                   and alert.endswith("PC counts above 2 dropped")
                   for alert in report.alerts)

    def test_fold_without_components_fails_its_candidate(self):
        spectra, conc = snv_collapsed_fold()
        report = select_method(spectra, conc,
                               [IDENTITY, parse_pipeline("snv")])
        assert [e.ok for e in report.entries] == [True, False]
        assert report.entries[1].error.startswith(
            "DegenerateMatrix: fold 's5': no usable component")
        assert report.entries[0].press_matrix.values.shape == (6, 2)
        assert report.chosen_pipeline == "identity"


class TestTrainFinal:
    def test_exact_recovery(self):
        spectra, conc, recipe = noiseless_mixtures(n_samples=10, n_species=3)
        model = train_final(spectra, conc, IDENTITY, 3)
        est = pcr_predict(model, spectra)
        assert np.abs(est - conc.matrix).max() < 1e-8

    def test_zero_pc_rejected(self):
        spectra, conc, _ = noiseless_mixtures(n_samples=8, n_species=2)
        with pytest.raises(BadOrder):
            train_final(spectra, conc, IDENTITY, 0)

    def test_pc_above_ceiling_rejected(self):
        spectra, conc, _ = noiseless_mixtures(n_samples=8, n_species=2)
        with pytest.raises(BadOrder):
            train_final(spectra, conc, IDENTITY, 8)

    def test_pipeline_name_embedded_and_round_trip(self, tmp_path):
        spectra, conc, _ = noiseless_mixtures(n_samples=8, n_species=2)
        pipe = parse_pipeline("snv")
        model = train_final(spectra, conc, pipe, 2)
        assert model.pipeline_name == "snv"
        path = tmp_path / "m.json"
        save_model(path, model)
        again = load_model(path)
        processed = apply_pipeline(spectra, pipe)
        assert np.array_equal(pcr_predict(model, processed),
                              pcr_predict(again, processed))


class TestEvaluateHoldout:
    def test_noiseless_rss_collapse(self):
        spectra, conc, recipe = noiseless_mixtures(n_samples=10, n_species=3)
        model = train_final(spectra, conc, IDENTITY, 3)
        hold, hconc = holdout_mixtures(recipe, 5, conc_seed=99)
        ev = evaluate_holdout(model, hold, hconc)
        assert ev.rss[2] < 1e-10
        assert ev.best_pc == 3
        assert ev.per_species.shape == (3, 3)

    def test_result_arrays_are_read_only(self):
        spectra, conc, recipe = noiseless_mixtures(n_samples=10, n_species=3)
        model = train_final(spectra, conc, IDENTITY, 3)
        ev = evaluate_holdout(model, *holdout_mixtures(recipe, 5, conc_seed=99))
        verdict = select_optimal_pc(np.arange(12.0).reshape(4, 3) ** 2)
        for arr in (ev.rss, ev.per_species, verdict.sum_press,
                    verdict.anova.group_means):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = -1.0

    def test_full_truncation_matches_direct_predict(self):
        spectra, conc, recipe = noiseless_mixtures(n_samples=9, n_species=2)
        model = train_final(spectra, conc, IDENTITY, 4)
        hold, hconc = holdout_mixtures(recipe, 4, conc_seed=100)
        ev = evaluate_holdout(model, hold, hconc)
        direct = press(pcr_predict(model, hold), hconc.matrix)
        assert abs(ev.rss[-1] - direct) < 1e-12

    def test_matches_brute_force_truncations(self):
        rng = np.random.default_rng(1)
        axis = 400.0 + 2.0 * np.arange(40)
        basis = rng.normal(size=(3, 40))
        conc_values = rng.uniform(0.5, 1.5, (3, 12))
        matrix = conc_values.T @ basis + rng.normal(0.0, 0.02, (12, 40))
        spectra = SpectraSet(axis, matrix, tuple(f"s{n}" for n in range(12)))
        conc = ConcentrationSet(conc_values, ("a", "b", "c"), ("u",) * 3)
        model = train_final(spectra, conc, IDENTITY, 6)
        hold_values = rng.uniform(0.5, 1.5, (3, 5))
        hold_matrix = hold_values.T @ basis + rng.normal(0.0, 0.02, (5, 40))
        hold = SpectraSet(axis, hold_matrix, tuple(f"h{n}" for n in range(5)))
        hconc = ConcentrationSet(hold_values, ("a", "b", "c"), ("u",) * 3)
        ev = evaluate_holdout(model, hold, hconc)
        for m in range(1, 7):
            smaller = train_final(spectra, conc, IDENTITY, m)
            rss = press(pcr_predict(smaller, hold), hconc.matrix)
            assert abs(ev.rss[m - 1] - rss) < 1e-9 * max(rss, 1.0)

    @pytest.mark.parametrize("truth,message", [
        (lambda conc: ConcentrationSet(conc.matrix[:, :7], conc.species,
                                       conc.units),
         "7 truth columns for 8 spectra"),
        (lambda conc: ConcentrationSet(conc.matrix[::-1], conc.species[::-1],
                                       conc.units),
         "truth species ['sp1', 'sp0'] != model species ['sp0', 'sp1']"),
    ], ids=["column_count", "species"])
    def test_refuses_mismatched_truth(self, truth, message):
        spectra, conc, _ = noiseless_mixtures(n_samples=8, n_species=2)
        model = train_final(spectra, conc, IDENTITY, 2)
        with pytest.raises(ShapeMismatch, match=f"^{re.escape(message)}$"):
            evaluate_holdout(model, spectra, truth(conc))

    @pytest.mark.parametrize("intensity,truth_values,message", [
        (1e307, lambda m: m,
         "spectrum 's000': estimated concentrations are not finite"),
        (1.0, lambda m: m * 1e200,
         "spectrum 's000': squared prediction errors are not finite"),
        # each square is finite, but their sum is not
        (1.0, lambda m: np.full_like(m, 1.3e154),
         "squared prediction errors sum past the float range"),
    ], ids=["intensities_x1e307", "truth_x1e200", "truth_1.3e154"])
    def test_refuses_nonfinite_errors(self, intensity, truth_values, message):
        # refused as pcr_predict and loo_press_matrix refuse the same
        # overflow, with no numpy warning (which pytest makes an error)
        model = train_final(*synth.tears_phantom(10, 7), IDENTITY, 3)
        spectra, truth = synth.tears_phantom(6, 9)
        hold = SpectraSet(spectra.axis, spectra.matrix * intensity,
                          spectra.labels)
        scaled = ConcentrationSet(truth_values(truth.matrix), truth.species,
                                  truth.units)
        with pytest.raises(NonFiniteValue, match=f"^{re.escape(message)}$"):
            evaluate_holdout(model, hold, scaled)

    def test_axis_mismatch(self):
        spectra, conc, recipe = noiseless_mixtures(n_samples=8, n_species=2)
        model = train_final(spectra, conc, IDENTITY, 2)
        other = SpectraSet(spectra.axis + 0.5, spectra.matrix, spectra.labels)
        with pytest.raises(AxisMismatch):
            evaluate_holdout(model, other, conc)


class TestReport:
    def test_report_file_structure(self, tmp_path):
        spectra, conc, _ = noiseless_mixtures(n_samples=9, n_species=3)
        candidates = [IDENTITY, parse_pipeline("snv")]
        report = select_method(spectra, conc, candidates)
        path = tmp_path / "report.json"
        write_report(path, report, inputs={"i": spectra.n_spectra})
        payload = json.loads(path.read_text())
        assert payload["chosen_pipeline"] == report.chosen_pipeline
        assert len(payload["candidates"]) == 2
        for entry in payload["candidates"]:
            assert "pipeline" in entry
            if entry["ok"]:
                assert {"anova", "optimal_pc", "sum_press", "boxplot",
                        "significant"} <= set(entry)
        assert "wall_time_s" not in payload["candidates"][0]

    def test_timing_opt_in(self, tmp_path):
        spectra, conc, _ = noiseless_mixtures(n_samples=8, n_species=2)
        report = select_method(spectra, conc, [IDENTITY])
        payload = report_payload(report, include_timing=True)
        assert "wall_time_s" in payload["candidates"][0]


class TestReadmeLibraryUse:
    def test_library_use_block_runs(self, tmp_path, monkeypatch):
        # the README's documented API, run as written on a synthesized pair
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
            encoding="utf-8")
        section = readme.split("## Library use", 1)[1]
        code = section.split("```python\n", 1)[1].split("```", 1)[0]
        spectra, conc = synth.tears_phantom(12, 7)
        monkeypatch.chdir(tmp_path)
        save_spectra("spectra.csv", spectra)
        save_concentrations("conc.csv", conc, spectra.labels)
        namespace = {}
        exec(compile(code, "README.md", "exec"), namespace)
        assert namespace["estimates"].shape == (2, 12)
        assert namespace["pcr"].n_components == 4
