import numpy as np
import pytest
from numpy.testing import assert_allclose

from specsel.decompose import (nipals_fit, pca_fit, project, scaled_norm,
                               usable_components)
from specsel.errors import AxisMismatch, BadOrder, NoConvergence
from specsel.spectra import SpectraSet

from conftest import random_spectra_set, subset


def svd_loadings(matrix, k):
    """Oracle: right singular vectors of the centered matrix, sign-fixed."""
    centered = matrix - matrix.mean(axis=0)
    v = np.linalg.svd(centered, full_matrices=False)[2].T[:, :k]
    for c in range(k):
        peak = np.argmax(np.abs(v[:, c]))
        if v[peak, c] < 0:
            v[:, c] = -v[:, c]
    return v


def svd_tail(matrix, k):
    """Oracle: norm of the centered matrix past its k leading components."""
    centered = matrix - matrix.mean(axis=0)
    return np.sqrt(np.sum(np.linalg.svd(centered, compute_uv=False)[k:] ** 2))


def explained_variance(model, matrix):
    """Share of the centered set's sum of squares that each component's
    scores carry."""
    centered = matrix - model.mean_spectrum
    return np.sum(model.scores ** 2, axis=0) / np.sum(centered * centered)


def residual_norm(model, matrix):
    """Frobenius norm of what the model leaves of the centered set."""
    centered = matrix - model.mean_spectrum
    return np.linalg.norm(centered - model.scores @ model.loadings.T)


class TestNipalsFit:
    def test_rank_one_matrix(self):
        rng = np.random.default_rng(0)
        t = rng.normal(size=6)
        p = rng.normal(size=40)
        ss = SpectraSet(np.arange(40.0), np.outer(t, p),
                        tuple(f"s{n}" for n in range(6)))
        model = nipals_fit(ss, 1)
        assert explained_variance(model, ss.matrix)[0] > 1.0 - 1e-10
        assert residual_norm(model, ss.matrix) < 1e-8 * np.linalg.norm(ss.matrix)

    def test_matches_svd_oracle(self):
        ss = random_spectra_set(i=8, j=50, seed=1)
        model = nipals_fit(ss, 5, tol=1e-12, max_iter=20000)
        assert np.abs(model.loadings - svd_loadings(ss.matrix, 5)).max() < 1e-8

    def test_full_rank_explains_everything(self):
        ss = random_spectra_set(i=6, j=30, seed=2)
        model = nipals_fit(ss, 5, max_iter=50000)
        assert explained_variance(model, ss.matrix).sum() > 1.0 - 1e-10

    def test_invariants(self):
        ss = random_spectra_set(i=10, j=80, seed=3)
        model = nipals_fit(ss, 6, max_iter=50000)
        k = model.n_components
        gram = model.loadings.T @ model.loadings
        assert np.abs(gram - np.eye(k)).max() < 1e-8
        tt = model.scores.T @ model.scores
        off = tt - np.diag(np.diag(tt))
        assert np.abs(off).max() < 1e-8 * np.diag(tt).max()
        explained = explained_variance(model, ss.matrix)
        assert np.all(np.diff(explained) <= 1e-12)
        assert np.all(explained >= 0)
        assert explained.sum() <= 1.0 + 1e-12
        recon = residual_norm(model, ss.matrix)
        assert abs(recon - svd_tail(ss.matrix, k)) < 1e-8 * max(recon, 1.0)

    def test_sign_convention(self):
        ss = random_spectra_set(i=7, j=33, seed=4)
        model = nipals_fit(ss, 4)
        for c in range(4):
            col = model.loadings[:, c]
            assert col[np.argmax(np.abs(col))] > 0

    def test_row_permutation(self):
        ss = random_spectra_set(i=8, j=40, seed=5)
        perm = [3, 1, 7, 0, 5, 2, 6, 4]
        permuted = subset(ss, perm)
        a = nipals_fit(ss, 3)
        b = nipals_fit(permuted, 3)
        assert_allclose(b.loadings, a.loadings, atol=1e-9)
        assert_allclose(b.scores, a.scores[perm, :], atol=1e-9)

    def test_rank_deficiency_flagged(self):
        rng = np.random.default_rng(6)
        low = rng.normal(size=(2, 30))
        weights = rng.normal(size=(8, 2))
        ss = SpectraSet(np.arange(30.0), weights @ low,
                        tuple(f"s{n}" for n in range(8)))
        model = nipals_fit(ss, 6)
        assert model.n_components == 2

    def test_bad_k(self):
        ss = random_spectra_set(i=5, j=20, seed=7)
        for k in (0, 5, 21):
            with pytest.raises(BadOrder):
                nipals_fit(ss, k)

    def test_deterministic(self):
        ss = random_spectra_set(i=9, j=45, seed=8)
        a = nipals_fit(ss, 4)
        b = nipals_fit(ss, 4)
        assert np.array_equal(a.loadings, b.loadings)
        assert np.array_equal(a.scores, b.scores)

    def test_no_convergence_names_the_component(self):
        # two nearly tied variance directions stall the iteration; the
        # exception must name the component that did not converge
        rng = np.random.default_rng(16)
        basis = np.linalg.qr(rng.normal(size=(12, 3)))[0]
        directions = np.linalg.qr(rng.normal(size=(30, 3)))[0]
        matrix = (1.0 * np.outer(basis[:, 0], directions[:, 0])
                  + 0.99999 * np.outer(basis[:, 1], directions[:, 1])
                  + 0.2 * np.outer(basis[:, 2], directions[:, 2]))
        ss = SpectraSet(np.arange(30.0), matrix,
                        tuple(f"s{n}" for n in range(12)))
        with pytest.raises(NoConvergence) as info:
            nipals_fit(ss, 3, tol=1e-12, max_iter=50)
        assert info.value.component == 1

    @pytest.mark.parametrize("setting,message", [
        ({"tol": 0.0}, "tol must be > 0, got 0.0"),
        ({"max_iter": 5}, "max_iter must be >= 10, got 5"),
    ], ids=["tol", "max_iter"])
    def test_bad_solver_setting(self, setting, message):
        with pytest.raises(BadOrder, match=message):
            nipals_fit(random_spectra_set(i=6, j=20, seed=4), 2, **setting)


class TestPcaFit:
    def test_matches_nipals_and_svd_oracle(self):
        ss = random_spectra_set(i=8, j=50, seed=1)
        dense = pca_fit(ss, 5)
        iterative = nipals_fit(ss, 5, tol=1e-12, max_iter=20000)
        assert np.abs(dense.loadings - iterative.loadings).max() < 1e-8
        assert np.abs(dense.scores - iterative.scores).max() < 1e-8
        assert_allclose(explained_variance(dense, ss.matrix),
                        explained_variance(iterative, ss.matrix),
                        rtol=0, atol=1e-12)
        assert abs(residual_norm(dense, ss.matrix)
                   - residual_norm(iterative, ss.matrix)) < 1e-8
        assert np.abs(dense.loadings - svd_loadings(ss.matrix, 5)).max() < 1e-8

    def test_invariants(self):
        ss = random_spectra_set(i=10, j=80, seed=3)
        model = pca_fit(ss, 6)
        assert np.abs(model.loadings.T @ model.loadings - np.eye(6)).max() < 1e-12
        recon = residual_norm(model, ss.matrix)
        assert abs(recon - svd_tail(ss.matrix, 6)) < 1e-10 * recon
        assert np.all(np.diff(explained_variance(model, ss.matrix)) <= 0)
        assert model.n_components == 6

    def test_sign_convention(self):
        ss = random_spectra_set(i=7, j=33, seed=4)
        model = pca_fit(ss, 4)
        for c in range(4):
            col = model.loadings[:, c]
            assert col[np.argmax(np.abs(col))] > 0

    def test_row_permutation(self):
        ss = random_spectra_set(i=8, j=40, seed=5)
        perm = [3, 1, 7, 0, 5, 2, 6, 4]
        a = pca_fit(ss, 3)
        b = pca_fit(subset(ss, perm), 3)
        assert_allclose(b.loadings, a.loadings, atol=1e-12)
        assert_allclose(b.scores, a.scores[perm, :], atol=1e-12)

    def test_rank_deficiency_flagged(self):
        rng = np.random.default_rng(6)
        low = rng.normal(size=(2, 30))
        weights = rng.normal(size=(8, 2))
        ss = SpectraSet(np.arange(30.0), weights @ low,
                        tuple(f"s{n}" for n in range(8)))
        model = pca_fit(ss, 6)
        assert model.n_components == 2
        assert residual_norm(model, ss.matrix) < 1e-10 * np.linalg.norm(ss.matrix)

    def test_bad_k(self):
        ss = random_spectra_set(i=5, j=20, seed=7)
        for k in (0, 5, 21):
            with pytest.raises(BadOrder):
                pca_fit(ss, k)

    @pytest.mark.parametrize("e", [-60, -36, 0, 100])
    def test_components_do_not_depend_on_intensity_unit(self, e):
        # a power of two scales every step exactly: the same components,
        # with scores scaled by it
        ss = random_spectra_set(i=8, j=40, seed=9)
        base = pca_fit(ss, 5)
        scaled = pca_fit(
            SpectraSet(ss.axis, ss.matrix * 2.0 ** e, ss.labels), 5)
        assert scaled.n_components == base.n_components == 5
        assert np.array_equal(scaled.loadings, base.loadings)
        assert np.array_equal(scaled.scores, base.scores * 2.0 ** e)

    @pytest.mark.parametrize("e", [-60, 0, 100])
    def test_constant_set_has_no_component(self, e):
        # centering leaves only rounding of the set's level, at any unit
        ss = random_spectra_set(i=7, j=30, seed=10)
        level = np.tile(ss.matrix[0] + 5.0, (7, 1)) * 2.0 ** e
        flat = SpectraSet(ss.axis, level, ss.labels)
        assert pca_fit(flat, 3).n_components == 0


class TestUsableComponents:
    def test_condition_cut(self):
        assert usable_components(np.array([1.0, 1e-3, 1e-6, 1e-7])) == 3

    def test_floor_relative_to_data_norm(self):
        singulars = np.array([2e-12, 1e-12])
        assert usable_components(singulars) == 2
        assert usable_components(singulars, 1.0) == 2
        assert usable_components(singulars, 2.0) == 0

    def test_zero_singulars(self):
        assert usable_components(np.zeros(3)) == 0

    def test_rows_of_folds(self):
        singulars = np.array([[1.0, 0.5, 1e-9], [1e-13, 1e-14, 0.0]])
        kept = usable_components(singulars, np.array([[1.0], [1.0]]))
        assert kept.tolist() == [2, 0]

    def test_huge_singulars_keep_the_condition_cut(self):
        # squaring these would overflow; the cut compares them unsquared
        singulars = np.array([1.0, 1e-3, 1e-6, 1e-7]) * 1e300
        assert usable_components(singulars, 1e301) == 3

    def test_subnormal_singulars_are_not_usable(self):
        tiny = np.finfo(float).tiny
        assert usable_components(np.array([1.0, tiny, tiny / 2]) * 1e-300) == 1
        assert usable_components(np.array([1e-320, 1e-321])) == 0


class TestScaledNorm:
    @pytest.mark.parametrize("axis", [None, 0, 1, (0, 1)])
    def test_equals_numpy_norm_to_the_bit(self, axis):
        rng = np.random.default_rng(40)
        for e in (-100, -3, 0, 7, 100):
            x = rng.standard_normal((6, 25)) * 10.0 ** e
            assert np.array_equal(scaled_norm(x, axis),
                                  np.linalg.norm(x, axis=axis))

    @pytest.mark.parametrize("scale", [1e300, 2.0 ** -1070])
    def test_huge_and_subnormal_values(self, scale):
        # 2 x 2 of one value v has norm 2v, where v * v over- or underflows
        assert scaled_norm(np.full((2, 2), scale)) == 2 * scale
        assert scaled_norm(np.full((3, 2, 2), scale),
                           axis=(1, 2)).tolist() == [2 * scale] * 3

    def test_zeros(self):
        assert scaled_norm(np.zeros((2, 3))) == 0.0
        assert scaled_norm(np.zeros((2, 3)), axis=0).tolist() == [0.0] * 3


class TestProject:
    def test_training_set_projects_to_scores(self):
        ss = random_spectra_set(i=8, j=40, seed=12)
        model = nipals_fit(ss, 4)
        assert np.abs(project(model, ss) - model.scores).max() < 1e-8

    def test_mean_spectrum_projects_to_zero(self):
        ss = random_spectra_set(i=8, j=40, seed=13)
        model = nipals_fit(ss, 3)
        mean_set = SpectraSet(ss.axis, model.mean_spectrum[None, :], ("mean",))
        assert np.abs(project(model, mean_set)).max() < 1e-10

    def test_loading_direction_projects_to_unit(self):
        ss = random_spectra_set(i=8, j=40, seed=14)
        model = nipals_fit(ss, 3, max_iter=50000)
        c = 2.5
        shifted = model.mean_spectrum + c * model.loadings[:, 0]
        out = project(model, SpectraSet(ss.axis, shifted[None, :], ("x",)))
        assert abs(out[0, 0] - c) < 1e-8
        assert np.abs(out[0, 1:]).max() < 1e-8

    def test_axis_mismatch(self):
        ss = random_spectra_set(i=8, j=40, seed=15)
        model = nipals_fit(ss, 2)
        other = SpectraSet(ss.axis + 1.0, ss.matrix, ss.labels)
        with pytest.raises(AxisMismatch):
            project(model, other)
