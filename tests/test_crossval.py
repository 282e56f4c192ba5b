import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specsel import crossval
from specsel.crossval import PressMatrix, loo_press_matrix
from specsel.decompose import (centered_svd, nipals_fit, pca_fit,
                               usable_components)
from specsel.errors import (
    DegenerateMatrix,
    NoConvergence,
    NonFiniteValue,
    ShapeMismatch,
    TooFewSpectra,
    ZeroVariance,
)
from specsel.preprocess import IDENTITY, apply_pipeline, parse_pipeline
from specsel.regress import pcr_fit, pcr_predict, press
from specsel.spectra import ConcentrationSet, SpectraSet
from specsel.synth import tears_phantom

from conftest import (brute_force_press, noiseless_mixtures,
                      select_columns, subset, weak_third_direction)


def per_fold_press(spectra, conc, pipeline):
    """Values, notes and per-fold component counts from one dense pca_fit
    and pcr_fit per fold and PC count.

    The fold loop loo_press_matrix used before its folds shared one
    factorization, with every PC count fitted and predicted on its own.
    A fold's component count is the one rule on its spectra's own SVD;
    the matrix keeps the PC counts every fold has.
    """
    i = spectra.n_spectra
    k_max = i - 2
    processed = apply_pipeline(spectra, pipeline)
    k_fits = []
    for n in range(i):
        train = subset(processed, [r for r in range(i) if r != n])
        singulars = np.linalg.svd(train.matrix - train.matrix.mean(axis=0),
                                  full_matrices=False)[1]
        k_fits.append(int(usable_components(
            singulars[:min(k_max, train.n_channels)],
            np.linalg.norm(train.matrix))))
    k = min(k_fits)
    values = np.empty((i, k))
    notes = []
    for n in range(i):
        label = processed.labels[n]
        train_idx = [r for r in range(i) if r != n]
        train = subset(processed, train_idx)
        if k_fits[n] < k_max:
            notes.append(
                f"fold {label!r}: only {k_fits[n]} of {k_max} components "
                f"available; PC counts above {k} dropped")
        negatives = 0
        for m in range(1, k + 1):
            pca = pca_fit(train, m)
            assert pca.n_components == m
            fit = pcr_fit(pca, select_columns(conc, train_idx))
            estimate = pcr_predict(fit, subset(processed, [n]))
            values[n, m - 1] = press(estimate, conc.matrix[:, [n]])
            negatives += bool(np.any(estimate < 0))
        if negatives:
            notes.append(
                f"fold {label!r}: negative predicted concentrations at "
                f"{negatives} PC count(s)")
    return values, tuple(notes), k_fits


@st.composite
def small_sets(draw):
    """Random small sets, wide (j >= i) or narrow (j < i - 2), some with
    duplicated or scaled rows or of low rank, so folds are rank-deficient,
    and some with a nearly singular direction."""
    if draw(st.booleans()):
        i, j = draw(st.integers(4, 10)), draw(st.integers(8, 14))
    else:
        j = draw(st.integers(8, 10))
        i = draw(st.integers(j + 3, j + 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rank = draw(st.integers(1, min(i, j)))
    # a last direction 1e-8 as strong as the others is too ill-conditioned
    # to regress on
    weights = rng.normal(size=(i, rank))
    if rank > 1:
        weights[:, -1] *= draw(st.sampled_from([1.0, 1e-8]))
    matrix = weights @ rng.normal(size=(rank, j))
    for _ in range(draw(st.integers(0, 2))):
        src, dst = rng.choice(i, 2, replace=False)
        matrix[dst] = matrix[src] * draw(st.sampled_from([1.0, -0.5, 3.0]))
    matrix += draw(st.sampled_from([0.0, 5.0]))
    spectra = SpectraSet(400.0 + 2.0 * np.arange(j), matrix,
                         tuple(f"s{n}" for n in range(i)))
    conc = ConcentrationSet(rng.uniform(0.0, 2.0, (2, i)), ("a", "b"),
                            ("u", "u"))
    return spectra, conc


def toy_problem(i, seed, noise=0.05):
    rng = np.random.default_rng(seed)
    axis = 400.0 + 2.0 * np.arange(12)
    basis = rng.normal(size=(2, 12))
    conc_values = rng.uniform(0.5, 2.0, (2, i))
    matrix = conc_values.T @ basis + rng.normal(0.0, noise, (i, 12))
    spectra = SpectraSet(axis, matrix, tuple(f"s{n}" for n in range(i)))
    conc = ConcentrationSet(conc_values, ("a", "b"), ("u", "u"))
    return spectra, conc


def tears_with_first_spectrum_twice():
    """tears_phantom(20, 7) with s000 again as a 21st spectrum, labelled
    s000_again: the two folds that hold out a copy of s000 fit 19
    components, the other 19 fit 18."""
    spectra, conc = tears_phantom(20, 7)
    twice = [*range(20), 0]
    return (SpectraSet(spectra.axis, spectra.matrix[twice],
                       spectra.labels + ("s000_again",)),
            select_columns(conc, twice))


class TestLooPressMatrix:
    def test_shape_law(self):
        spectra, conc = toy_problem(5, seed=1)
        out = loo_press_matrix(spectra, conc, IDENTITY)
        assert out.values.shape == (5, 3)
        assert out.labels == spectra.labels
        assert out.pipeline_name == "identity"

    @pytest.mark.parametrize("i,pipeline_text", [
        (4, "snv"),
        (5, "identity"),
        (5, "rnv(75)"),
    ])
    def test_matches_brute_force(self, i, pipeline_text):
        spectra, conc = toy_problem(i, seed=88)
        pipeline = parse_pipeline(pipeline_text)
        fast = loo_press_matrix(spectra, conc, pipeline)
        slow = brute_force_press(spectra, conc, pipeline)
        assert np.allclose(fast.values, slow, rtol=0, atol=1e-9, equal_nan=True)

    def test_fold_without_components_raises(self):
        # five identical spectra: the fold holding out s5 trains on no
        # variance at all, so no PC count can be scored
        matrix = np.vstack([np.ones(10)] * 5 + [np.arange(10.0)])
        spectra = SpectraSet(400.0 + 2.0 * np.arange(10), matrix,
                             tuple(f"s{n}" for n in range(6)))
        conc = ConcentrationSet(np.array([[1.0] * 5 + [2.0]]), ("a",), ("u",))
        with pytest.raises(DegenerateMatrix,
                           match="^fold 's5': no usable component"):
            loo_press_matrix(spectra, conc, IDENTITY)

    def test_noiseless_mixtures_collapse(self):
        spectra, conc, _ = noiseless_mixtures(n_samples=8, n_species=3)
        out = loo_press_matrix(spectra, conc, IDENTITY)
        values = out.values
        # exact recovery once the species count is reached; rank-deficient
        # folds keep no later column
        assert values.shape == (8, 3)
        assert np.all(values[:, 2] < 1e-10)
        assert np.all(values[:, 0] > 1e-6)

    def test_too_few_spectra(self):
        spectra, conc = toy_problem(4, seed=2)
        small = subset(spectra, [0, 1, 2])
        small_conc = select_columns(conc, [0, 1, 2])
        with pytest.raises(TooFewSpectra):
            loo_press_matrix(small, small_conc, IDENTITY)

    def test_row_independent_of_other_order(self):
        spectra, conc = toy_problem(6, seed=3)
        base = loo_press_matrix(spectra, conc, IDENTITY)
        perm = [0, 3, 1, 5, 2, 4]  # keeps sample 0 first
        permuted = loo_press_matrix(subset(spectra, perm),
                                    select_columns(conc, perm), IDENTITY)
        assert np.allclose(base.values[0], permuted.values[0],
                           rtol=0, atol=1e-12)

    def test_reproducible_and_thread_independent(self):
        spectra, conc = toy_problem(7, seed=4)
        a = loo_press_matrix(spectra, conc, parse_pipeline("snv"))
        b = loo_press_matrix(spectra, conc, parse_pipeline("snv"))
        assert np.array_equal(a.values, b.values)
        assert a.notes == b.notes

    @settings(max_examples=150, deadline=None)
    @given(small_sets())
    def test_matches_per_fold_fits(self, case):
        spectra, conc = case
        values, notes, k_fits = per_fold_press(spectra, conc, IDENTITY)
        if min(k_fits) == 0:
            label = spectra.labels[k_fits.index(0)]
            with pytest.raises(DegenerateMatrix,
                               match=f"^fold '{label}': no usable component"):
                loo_press_matrix(spectra, conc, IDENTITY)
            return
        out = loo_press_matrix(spectra, conc, IDENTITY)
        assert out.values.shape == values.shape
        assert out.notes == notes
        np.testing.assert_allclose(out.values, values, rtol=1e-9, atol=0)

    @settings(max_examples=100, deadline=None)
    @given(small_sets())
    def test_stacked_factorization_matches_each_fold(self, case):
        # one function serves pca_fit (one set) and the folds (a stack)
        # only if every set of a stack gets the bits it gets alone
        spectra, _ = case
        i = spectra.n_spectra
        train = np.array([[r for r in range(i) if r != n] for n in range(i)])
        stacked = centered_svd(spectra.matrix[train], i - 2)
        for n in range(i):
            alone = centered_svd(spectra.matrix[train[n]], i - 2)
            for got, want in zip(stacked, alone):
                assert np.array_equal(got[n], want)

    @pytest.mark.parametrize("problem,pipeline_text", [
        (lambda: toy_problem(7, seed=9), "snv"),
        (lambda: toy_problem(20, seed=9), "identity"),
        (lambda: toy_problem(40, seed=9), "savgol(7,2,0)"),
        (tears_with_first_spectrum_twice, "identity"),
    ], ids=["7-snv", "20-identity", "40-savgol(7,2,0)",
            "tears20_s000_twice-identity"])
    @pytest.mark.parametrize("block", [1, 3])
    def test_fold_block_size_changes_no_bit(self, monkeypatch, problem,
                                            pipeline_text, block):
        spectra, conc = problem()
        pipeline = parse_pipeline(pipeline_text)
        base = loo_press_matrix(spectra, conc, pipeline)
        monkeypatch.setattr(crossval, "FOLD_BLOCK", block)
        blocked = loo_press_matrix(spectra, conc, pipeline)
        assert np.array_equal(blocked.values, base.values, equal_nan=True)
        assert blocked.notes == base.notes

    def test_preprocess_failure_is_labelled(self):
        spectra, conc = toy_problem(5, seed=5)
        flat = SpectraSet(spectra.axis,
                          np.vstack([spectra.matrix[:4], np.ones(12)]),
                          spectra.labels)
        with pytest.raises(ZeroVariance) as info:
            loo_press_matrix(flat, conc, parse_pipeline("snv"))
        assert str(info.value) == ("spectrum 's4', step snv: constant "
                                   "spectrum has no variance to scale by")

    def test_conc_count_mismatch(self):
        spectra, conc = toy_problem(5, seed=6)
        with pytest.raises(ShapeMismatch):
            loo_press_matrix(spectra, select_columns(conc, [0, 1, 2, 3]),
                             IDENTITY)

    def test_rank_deficient_folds_noted(self):
        spectra, conc, _ = noiseless_mixtures(n_samples=8, n_species=3)
        out = loo_press_matrix(spectra, conc, IDENTITY)
        assert any(note.endswith("components available; PC counts above 3 "
                                 "dropped") for note in out.notes)
        assert out.values.shape == (8, 3)

    def test_singular_score_columns_noted(self):
        spectra, conc = weak_third_direction()
        out = loo_press_matrix(spectra, conc, IDENTITY)
        assert out.values.shape == (6, 2)
        assert np.isfinite(out.values).all()
        assert sum(note.endswith(": only 2 of 4 components available; "
                                 "PC counts above 2 dropped")
                   for note in out.notes) == 6

    def test_near_tied_components_give_full_rows(self):
        # the near-tied matrix that stalls nipals_fit, plus a full-rank
        # background whose 12 directions are tied to within 1e-5; deleting
        # one spectrum keeps that cluster tight, so the iteration stalls in
        # every fold while the dense fit has no convergence to wait for
        rng = np.random.default_rng(16)
        basis = np.linalg.qr(rng.normal(size=(12, 3)))[0]
        directions = np.linalg.qr(rng.normal(size=(30, 3)))[0]
        matrix = (1.0 * np.outer(basis[:, 0], directions[:, 0])
                  + 0.99999 * np.outer(basis[:, 1], directions[:, 1])
                  + 0.2 * np.outer(basis[:, 2], directions[:, 2]))
        rows = np.linalg.qr(rng.normal(size=(12, 12)))[0]
        cols = np.linalg.qr(rng.normal(size=(30, 12)))[0]
        matrix += 0.05 * (rows * (1.0 - 1e-5 * np.arange(12))) @ cols.T
        spectra = SpectraSet(np.arange(30.0), matrix,
                             tuple(f"s{n}" for n in range(12)))
        conc = ConcentrationSet(1.0 + basis[:, :2].T, ("a", "b"), ("u", "u"))
        with pytest.raises(NoConvergence):
            nipals_fit(subset(spectra, range(1, 12)), 10, max_iter=10000)
        out = loo_press_matrix(spectra, conc, IDENTITY)
        assert out.values.shape == (12, 10)
        assert np.isfinite(out.values).all()
        assert not any("converge" in note for note in out.notes)


class TestPressMatrixType:
    def test_rejects_negative(self):
        with pytest.raises(ShapeMismatch):
            PressMatrix(np.array([[1.0, -0.5], [0.2, 0.3]]), "identity",
                        ("a", "b"))

    @pytest.mark.parametrize("cell", [np.nan, np.inf])
    def test_rejects_non_finite(self, cell):
        with pytest.raises(NonFiniteValue,
                           match="^values has a non-finite value$"):
            PressMatrix(np.array([[1.0, cell], [0.2, 0.3]]), "identity",
                        ("a", "b"))

    def test_rejects_a_row_count_other_than_the_labels(self):
        with pytest.raises(ShapeMismatch,
                           match=r"^values has shape \(3, 2\), expected \(1, 2\)$"):
            PressMatrix(np.ones((3, 2)), "p", ("a",))

    def test_headers(self):
        pm = PressMatrix(np.ones((4, 2)), "snv", ("a", "b", "c", "d"))
        assert pm.column_headers() == ["pc_1", "pc_2"]
