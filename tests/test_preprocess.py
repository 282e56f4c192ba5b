import inspect
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy import sparse
from scipy.linalg import solveh_banded
from scipy.sparse.linalg import spsolve

from specsel.errors import (
    BadOrder,
    DegenerateSubset,
    NonpositivePeak,
    NonuniformAxis,
    PipelineSyntaxError,
    SpecselError,
    WindowOutsideAxis,
    WindowTooLarge,
    ZeroVariance,
)
from specsel.preprocess import (
    IDENTITY,
    Pipeline,
    PipelineStep,
    apply_pipeline,
    baseline_als,
    derivative,
    despike,
    parse_pipeline,
    peak_normalize,
    rnv,
    savitzky_golay,
    snv,
)
from specsel import preprocess
from specsel.preprocess import (ROW_BLOCK, _REQUIRED, _STEPS,
                                _second_difference_bands)
from specsel.cli import DEFAULT_CANDIDATES
from specsel.spectra import SpectraSet
from specsel.synth import tears_phantom

from conftest import random_spectra_set, subset


class TestSnv:
    def test_symmetric_case(self):
        assert_allclose(snv([1.0, 2.0, 3.0]), [-1.0, 0.0, 1.0], atol=1e-15)

    def test_constant_rejected(self):
        with pytest.raises(ZeroVariance):
            snv([5.0, 5.0, 5.0, 5.0])

    def test_output_moments(self):
        rng = np.random.default_rng(0)
        x = rng.normal(3.0, 7.0, 500)
        out = snv(x)
        assert abs(out.mean()) < 1e-12
        assert abs(out.std(ddof=1) - 1.0) < 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=200)
        once = snv(x)
        assert_allclose(snv(once), once, atol=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=100)
        # powers of two scale exactly in floating point
        assert np.array_equal(snv(4.0 * x), snv(x))
        assert_allclose(snv(3.7 * x), snv(x), rtol=1e-12)

    @pytest.mark.parametrize("k", [-600, 600])
    def test_extreme_power_of_two_scale(self, k):
        # the squares of the spread would underflow at 2^-600 and overflow
        # at 2^600 if each row were not brought to unit scale first
        x = np.random.default_rng(2).normal(size=(3, 100))
        assert np.array_equal(snv(x * 2.0 ** k), snv(x))


class TestRnv:
    def test_hand_case(self):
        out = rnv([1.0, 2.0, 3.0], 50.0)
        assert_allclose(out, [-np.sqrt(2), 0.0, np.sqrt(2)], atol=1e-12)

    def test_percentile_100_uses_whole_vector(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=50)
        out = rnv(x, 100.0)
        expected = (x - x.max()) / x.std(ddof=1)
        assert_allclose(out, expected, rtol=1e-12)

    def test_outlier_above_percentile_ignored(self):
        rng = np.random.default_rng(4)
        x = rng.normal(0.0, 1.0, 200)
        spike_at = 17
        x[spike_at] = 40.0
        magnified = x.copy()
        magnified[spike_at] = 400.0
        a = rnv(x, 75.0)
        b = rnv(magnified, 75.0)
        keep = np.ones(200, bool)
        keep[spike_at] = False
        assert np.array_equal(a[keep], b[keep])

    def test_degenerate_subset(self):
        with pytest.raises(DegenerateSubset):
            rnv([1.0, 1.0, 1.0, 5.0], 50.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=64)
        assert np.array_equal(rnv(2.0 * x, 75.0), rnv(x, 75.0))

    @pytest.mark.parametrize("k", [-600, 600])
    def test_extreme_power_of_two_scale(self, k):
        x = np.random.default_rng(5).normal(size=(3, 64))
        assert np.array_equal(rnv(x * 2.0 ** k, 75.0), rnv(x, 75.0))

    def test_matrix_equals_per_spectrum_formula(self):
        # ties give rows different subset sizes
        rng = np.random.default_rng(16)
        matrix = rng.normal(size=(40, 64)).round(1)
        out = rnv(matrix, 75.0)
        for x, row in zip(matrix, out):
            pct = np.percentile(x, 75.0)
            assert np.array_equal(row, (x - pct) / x[x <= pct].std(ddof=1))


class TestSavitzkyGolay:
    def test_quadratic_5pt_kernel(self):
        # independent oracle: solve the local least-squares fit directly
        offsets = np.arange(-2.0, 3.0)
        design = np.vander(offsets, 3, increasing=True)
        oracle = np.linalg.solve(design.T @ design, design.T)[0]
        assert_allclose(oracle, np.array([-3.0, 12.0, 17.0, 12.0, -3.0]) / 35.0,
                        atol=1e-13)
        impulse_cols = []
        for c in range(5):
            e = np.zeros(9)
            e[c + 2] = 1.0
            impulse_cols.append(savitzky_golay(e, 5, 2, 0)[4])
        assert_allclose(impulse_cols[::-1], oracle, atol=1e-13)

    def test_polynomial_reproduction_including_edges(self):
        t = np.linspace(-3.0, 7.0, 40)
        for coeffs in ([2.0], [1.0, -0.5], [2.0, -1.5, 0.25]):
            poly = np.polynomial.polynomial.polyval(t, coeffs)
            out = savitzky_golay(poly, 7, 2, 0)
            assert np.abs(out - poly).max() < 1e-10

    @pytest.mark.parametrize("window,polyorder,deriv", [
        (5, 2, 0), (7, 2, 1), (7, 3, 2), (9, 4, 0), (11, 3, 3)])
    def test_every_channel_is_its_window_fit(self, window, polyorder, deriv):
        # independent oracle on random rows, which no fit reproduces, so a
        # channel read from the wrong window or offset shows: np.polyfit on
        # the channel's centred window in the interior and on the first or
        # last full window at the edges, differentiated and evaluated at the
        # channel's offset from that window's centre
        rng = np.random.default_rng(100 * window + 10 * polyorder + deriv)
        rows = rng.normal(size=(3, 30))
        delta = 2.5
        out = savitzky_golay(rows, window, polyorder, deriv, delta=delta)
        half, j = window // 2, rows.shape[1]
        offsets = np.arange(-half, half + 1.0)
        for row, got in zip(rows, out):
            for c in range(j):
                start = min(max(c - half, 0), j - window)
                fit = np.polyfit(offsets, row[start:start + window], polyorder)
                want = (np.polyval(np.polyder(fit, deriv), c - start - half)
                        / delta ** deriv)
                assert_allclose(got[c], want, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("window,polyorder,deriv", [
        (31, 14, 0), (25, 12, 1), (25, 12, 2), (41, 16, 1), (7, 2, 1)])
    def test_high_order_fit_reproduces_its_polynomial(self, window, polyorder,
                                                      deriv):
        # sum of t**m for m <= polyorder, t = (x - 100) / 100 on x = 0..199:
        # a fit of a polynomial of at most its own order is exact to
        # rounding at every order
        t = (np.arange(200.0) - 100.0) / 100.0
        poly = np.polynomial.Polynomial(np.ones(polyorder + 1))
        want = poly.deriv(deriv)(t) / 100.0 ** deriv
        got = savitzky_golay(poly(t), window, polyorder, deriv)
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()

    def test_constant_first_derivative_zero(self):
        out = savitzky_golay(np.full(30, 4.2), 5, 2, 1)
        assert np.abs(out).max() < 1e-12

    def test_derivative_scaling(self):
        ax = np.arange(25) * 2.0
        out = savitzky_golay(ax ** 2, 5, 2, 1, delta=2.0)
        assert_allclose(out, 2.0 * ax, atol=1e-10)

    def test_window_too_large(self):
        with pytest.raises(WindowTooLarge):
            savitzky_golay(np.zeros(5), 7, 2, 0)

    def test_bad_orders(self):
        with pytest.raises(BadOrder):
            savitzky_golay(np.zeros(20), 6, 2, 0)
        with pytest.raises(BadOrder):
            savitzky_golay(np.zeros(20), 5, 5, 0)
        with pytest.raises(BadOrder):
            savitzky_golay(np.zeros(20), 5, 2, 3)


class TestDerivative:
    def test_offset_ramp(self):
        ax = np.arange(20.0)
        out = derivative(ax + 7.0, ax, 1)
        assert_allclose(out, np.ones(20), atol=1e-12)

    def test_linear_baseline_annihilated_by_second(self):
        ax = 400.0 + 2.0 * np.arange(50)
        out = derivative(3.0 * ax + 11.0, ax, 2)
        assert np.abs(out).max() < 1e-9

    def test_quadratic_second_derivative(self):
        ax = np.arange(30.0)
        out = derivative(ax ** 2, ax, 2)
        assert_allclose(out[1:-1], np.full(28, 2.0), atol=1e-10)

    @pytest.mark.parametrize("j", [3, 4, 30])
    def test_second_derivative_edges_are_their_neighbours(self, j):
        rng = np.random.default_rng(j)
        x = rng.normal(size=(2, j))
        out = derivative(x, np.arange(j) * 0.5, 2)
        assert np.array_equal(out[:, 0], out[:, 1])
        assert np.array_equal(out[:, -1], out[:, -2])

    def test_nonuniform_axis(self):
        ax = np.array([1.0, 2.0, 3.0, 4.5, 6.0, 7.0, 8.0, 9.0])
        with pytest.raises(NonuniformAxis):
            derivative(np.ones(8), ax, 1)

    def test_bad_order(self):
        with pytest.raises(BadOrder):
            derivative(np.ones(10), np.arange(10.0), 3)


class TestBaselineAls:
    def test_zero_spectrum(self):
        corrected, baseline = baseline_als(np.zeros(50), 1e5, 0.01, 10)
        assert_allclose(corrected, 0.0, atol=1e-12)
        assert_allclose(baseline, 0.0, atol=1e-12)

    def test_smooth_cubic_removed(self):
        t = np.linspace(0.0, 1.0, 1401)
        cubic = 5.0 + 3.0 * t - 4.0 * t ** 2 + 2.0 * t ** 3
        corrected, _ = baseline_als(cubic, 1e5, 0.01, 10)
        assert np.abs(corrected).max() < 0.01 * (cubic.max() - cubic.min())

    def test_peak_on_linear_baseline(self):
        ax = np.linspace(400.0, 1800.0, 701)
        ramp = (ax - 400.0) * (50.0 / 1400.0)
        peak = 100.0 * np.exp(-((ax - 1000.0) ** 2) / (2.0 * 8.0 ** 2))
        corrected, _ = baseline_als(ramp + peak, 1e5, 0.01, 10)
        assert abs(corrected.max() - 100.0) < 3.0

    def test_corrected_plus_baseline_is_input(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=100).cumsum()
        corrected, baseline = baseline_als(x, 1e4, 0.05, 5)
        assert_allclose(corrected + baseline, x, atol=1e-9)

    def test_bad_params(self):
        with pytest.raises(BadOrder):
            baseline_als(np.zeros(50), -1.0, 0.01, 10)
        with pytest.raises(BadOrder):
            baseline_als(np.zeros(50), 1e5, 1.5, 10)
        with pytest.raises(BadOrder):
            baseline_als(np.zeros(50), 1e5, 0.01, 0)

    @pytest.mark.parametrize("lam,p", [(1e16, 0.01), (1e300, 0.01)])
    def test_shared_factor_not_positive_definite(self, lam, p):
        spectra, _ = tears_phantom(8, 7)
        with pytest.raises(BadOrder,
                           match=re.escape(f"lambda {lam:g} and p {p:g}")):
            baseline_als(spectra.matrix, lam, p, 10)

    def test_reweighted_system_not_positive_definite(self):
        # unit weights solve; the weight 1e-300 then drowns in the penalty
        spectra, _ = tears_phantom(8, 7)
        baseline_als(spectra.matrix, 1e5, 1e-300, 1)
        with pytest.raises(BadOrder, match="lambda 100000 and p 1e-300"):
            baseline_als(spectra.matrix, 1e5, 1e-300, 10)

    def test_both_refusals_read_alike(self):
        # the unit-weight and the reweighted solve report LAPACK's detail
        # in one wording, whatever the leading minor
        spectra, _ = tears_phantom(8, 7)
        details = []
        for lam, p in ((1e300, 0.01), (1e5, 1e-300)):
            with pytest.raises(BadOrder) as info:
                baseline_als(spectra.matrix, lam, p, 10)
            detail = re.search(r"\((.*)\)$", str(info.value)).group(1)
            details.append(re.sub(r"\d+", "N", detail))
        assert details[0] == details[1]

    @pytest.mark.parametrize("k", [1017, 1020])
    def test_extreme_power_of_two_scale(self, k):
        # the sums of the solves would overflow near the float maximum if
        # each row were not divided by its own power of two first
        x = np.random.default_rng(2).normal(size=(3, 100))
        for scaled, unscaled in zip(baseline_als(x * 2.0 ** k),
                                    baseline_als(x)):
            assert np.array_equal(scaled, unscaled * 2.0 ** k)



def sparse_als_oracle(x, lam, p, iterations):
    """Eilers & Boelens ALS with a sparse LU solve of the full system."""
    j = x.size
    diff = sparse.diags([1.0, -2.0, 1.0], [0, -1, -2], shape=(j, j - 2),
                        format="csc")
    penalty = lam * (diff @ diff.T)
    weights = np.ones(j)
    baseline = np.zeros(j)
    for _ in range(iterations):
        system = sparse.diags(weights, 0, format="csc") + penalty
        baseline = spsolve(system, weights * x)
        weights = np.where(x > baseline, p, 1.0 - p)
    return x - baseline, baseline


def assert_matches_oracle(x, lam, p, iterations, rtol=1e-8):
    # relative to the baseline's largest magnitude: a baseline crossing zero
    # has entries no elementwise relative tolerance can hold
    corrected, baseline = baseline_als(x, lam, p, iterations)
    _, expected = sparse_als_oracle(x, lam, p, iterations)
    scale = np.abs(expected).max()
    assert np.abs(baseline - expected).max() <= rtol * scale
    assert np.array_equal(corrected, x - baseline)


class TestBaselineAlsOracle:
    @pytest.mark.parametrize("j", [3, 4, 5, 9, 701])
    def test_penalty_bands_equal_dense_product(self, j):
        lam = 3.5
        diff = np.zeros((j, j - 2))
        for c in range(j - 2):
            diff[c:c + 3, c] = (1.0, -2.0, 1.0)
        dense = lam * diff @ diff.T
        bands = _second_difference_bands(j, lam)
        assert np.array_equal(bands[0], np.diag(dense))
        assert np.array_equal(bands[1, :-1], np.diag(dense, -1))
        assert np.array_equal(bands[2, :-2], np.diag(dense, -2))
        assert np.array_equal(bands[1:, -1], [0.0, 0.0]) and bands[2, -2] == 0.0
        assert np.count_nonzero(np.triu(dense, 3)) == 0

    @pytest.mark.parametrize("lam,p,iterations", [
        (1e5, 0.01, 10), (1e3, 0.05, 5), (1e4, 0.1, 20)])
    def test_matches_sparse_on_phantom(self, lam, p, iterations):
        spectra, _ = tears_phantom(6, 7)
        for x in spectra.matrix:
            assert_matches_oracle(x, lam, p, iterations)

    @settings(max_examples=60, deadline=None)
    @given(j=st.integers(8, 400),
           log_lam=st.floats(0.0, 5.0),
           p=st.floats(0.01, 0.5),
           iterations=st.integers(1, 20),
           seed=st.integers(0, 2 ** 32 - 1),
           scale=st.floats(1e-3, 1e3))
    def test_matches_sparse_on_random_spectra(self, j, log_lam, p, iterations,
                                              seed, scale):
        rng = np.random.default_rng(seed)
        x = scale * rng.normal(size=j).cumsum()
        assert_matches_oracle(x, 10.0 ** log_lam, p, iterations)


def loop_als_oracle(x, lam, p, iterations, lower=True):
    """The per-spectrum banded ALS: every iteration solved, one spectrum,
    in lower band storage or, with ``lower=False``, in upper."""
    penalty = _second_difference_bands(x.size, lam)
    if not lower:
        # row 2 - d of the upper storage holds the d-th superdiagonal,
        # shifted right by d
        upper = np.zeros_like(penalty)
        for d in range(3):
            upper[2 - d, d:] = penalty[d, :x.size - d]
        penalty = upper
    diagonal = 0 if lower else 2
    weights = np.ones(x.size)
    baseline = np.zeros(x.size)
    for _ in range(iterations):
        system = penalty.copy()
        system[diagonal] += weights
        baseline = solveh_banded(system, weights * x, overwrite_ab=True,
                                 lower=lower, check_finite=False)
        weights = np.where(x > baseline, p, 1.0 - p)
    return x - baseline, baseline


def assert_equals_loop_oracle(matrix, lam, p, iterations):
    corrected, baseline = baseline_als(matrix, lam, p, iterations)
    for n, x in enumerate(matrix):
        expected_corrected, expected = loop_als_oracle(x, lam, p, iterations)
        assert np.array_equal(baseline[n], expected)
        assert np.array_equal(corrected[n], expected_corrected)


class TestBaselineAlsMatrix:
    """The block-diagonal solve with its fixed-point stop, bit for bit."""

    def test_equals_loop_on_phantom_batch(self):
        spectra, _ = tears_phantom(1000, 7)
        assert_equals_loop_oracle(spectra.matrix, 1e5, 0.01, 10)

    def test_upper_storage_moves_only_rounding(self):
        # the upper-storage factorization rounds differently, but no row's
        # final weights may flip and no baseline move past rounding
        matrix = tears_phantom(1000, 7)[0].matrix
        _, baseline = baseline_als(matrix, 1e5, 0.01, 10)
        for x, row in zip(matrix, baseline):
            _, upper = loop_als_oracle(x, 1e5, 0.01, 10, lower=False)
            assert np.array_equal(x > row, x > upper)
            assert np.abs(row - upper).max() <= 1e-12 * np.abs(upper).max()

    def test_single_spectrum_is_one_row(self):
        spectra, _ = tears_phantom(4, 7)
        corrected, baseline = baseline_als(spectra.matrix[1], 1e5, 0.01, 10)
        rows_corrected, rows_baseline = baseline_als(spectra.matrix, 1e5,
                                                     0.01, 10)
        assert baseline.shape == (spectra.n_channels,)
        assert np.array_equal(baseline, rows_baseline[1])
        assert np.array_equal(corrected, rows_corrected[1])

    @pytest.mark.parametrize("lam,p", [(1e5, 0.01), (1e3, 0.05), (1.0, 0.5)])
    def test_first_solve_is_the_unit_weight_system(self, lam, p):
        # every row's first solve shares one factor of I + lam * D @ D.T
        spectra, _ = tears_phantom(20, 3)
        system = _second_difference_bands(spectra.n_channels, lam)
        system[0] += 1.0
        expected = np.array([solveh_banded(system, x, lower=True,
                                           check_finite=False)
                             for x in spectra.matrix])
        _, baseline = baseline_als(spectra.matrix, lam, p, 1)
        assert np.array_equal(baseline, expected)
        _, row = baseline_als(spectra.matrix[7], lam, p, 1)
        assert np.array_equal(row, expected[7])

    @settings(max_examples=60, deadline=None)
    @given(i=st.integers(1, 6),
           j=st.integers(8, 200),
           log_lam=st.floats(0.0, 6.0),
           p=st.floats(0.001, 0.5),
           iterations=st.integers(1, 20),
           seed=st.integers(0, 2 ** 32 - 1),
           scale=st.floats(1e-3, 1e3))
    def test_equals_loop_on_random_spectra(self, i, j, log_lam, p,
                                           iterations, seed, scale):
        rng = np.random.default_rng(seed)
        matrix = scale * rng.normal(size=(i, j)).cumsum(axis=1)
        assert_equals_loop_oracle(matrix, 10.0 ** log_lam, p, iterations)


class TestDespike:
    @staticmethod
    def smooth():
        t = np.linspace(0.0, 6.0, 300)
        return 10.0 * np.sin(t) + 0.5 * t ** 2

    def test_clean_spectrum_untouched(self):
        x = self.smooth()
        assert np.array_equal(despike(x, 7, 8.0), x)

    def test_single_spike_replaced(self):
        rng = np.random.default_rng(11)
        x = self.smooth() + rng.normal(0.0, 0.05, 300)
        half = 3
        window = x[100 - half:100 + half + 1]
        med = np.median(window)
        mad = np.median(np.abs(window - med))
        y = x.copy()
        y[100] = med + 50.0 * mad
        out = despike(y, 7, 8.0)
        changed = np.flatnonzero(out != y)
        assert list(changed) == [100]
        assert abs(out[100] - med) < 10.0 * mad

    def test_two_adjacent_spikes(self):
        x = self.smooth()
        y = x.copy()
        y[80] += 30.0
        y[81] += 25.0
        out = despike(y, 5, 8.0)
        assert abs(out[80] - x[80]) < 1.0
        assert abs(out[81] - x[81]) < 1.0

    def test_within_threshold_never_modified(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=100)
        out = despike(x, 5, 8.0)
        untouched = out == x
        # recompute the rule directly for every point the filter changed
        for n in np.flatnonzero(~untouched):
            window = x[max(0, n - 2):n + 3]
            med = np.median(window)
            mad = np.median(np.abs(window - med))
            assert abs(x[n] - med) > 8.0 * mad


class TestPeakNormalize:
    def test_window_max_becomes_one(self):
        ax = 400.0 + 2.0 * np.arange(100)
        rng = np.random.default_rng(13)
        x = rng.uniform(0.5, 2.0, 100)
        out = peak_normalize(x, ax, 500.0, 10.0)
        mask = (ax >= 490.0) & (ax <= 510.0)
        assert abs(out[mask].max() - 1.0) < 1e-12

    def test_scale_invariance(self):
        ax = 400.0 + 2.0 * np.arange(100)
        rng = np.random.default_rng(14)
        x = rng.uniform(0.5, 2.0, 100)
        assert_allclose(peak_normalize(3.7 * x, ax, 500.0, 10.0),
                        peak_normalize(x, ax, 500.0, 10.0), rtol=1e-15)

    def test_window_outside_axis(self):
        ax = 400.0 + 2.0 * np.arange(100)
        with pytest.raises(WindowOutsideAxis):
            peak_normalize(np.ones(100), ax, 2000.0, 10.0)

    def test_nonpositive_peak(self):
        ax = 400.0 + 2.0 * np.arange(100)
        with pytest.raises(NonpositivePeak):
            peak_normalize(-np.ones(100), ax, 500.0, 10.0)


# an input each operation refuses, with the message a user reads
REFUSED_INPUTS = {
    "rnv_one_point_below": (
        lambda: rnv([1.0, 2.0, 3.0, 4.0], 10.0), DegenerateSubset,
        "only 1 point(s) at or below the 10.0 percentile"),
    "peak_window_between_channels": (
        lambda: peak_normalize(np.ones(100), 400.0 + 2.0 * np.arange(100),
                               501.0, 0.5),
        WindowOutsideAxis, "no channel inside window [500.5, 501.5] cm-1"),
    "snv_one_point": (
        lambda: snv([1.0]), ZeroVariance,
        "need at least 2 points for variate scaling"),
    "als_seven_channels": (
        lambda: baseline_als(np.ones(7)), WindowTooLarge,
        "baseline estimation needs >= 8 channels, got 7"),
    "derivative_decreasing_axis": (
        lambda: derivative(np.ones(10), -np.arange(10.0), 1),
        NonuniformAxis, "axis must be increasing"),
    "derivative_spacing_squared_underflows": (
        lambda: derivative(np.ones(10), 2e-300 * np.arange(10.0), 2),
        NonuniformAxis,
        "channel spacing 2e-300 to the power 2 is not a normal positive "
        "float"),
    "derivative_spacing_squared_overflows": (
        lambda: derivative(np.ones(10), 1e200 * np.arange(10.0), 2),
        NonuniformAxis,
        "channel spacing 1e+200 to the power 2 is not a normal positive "
        "float"),
    "savgol_zero_spacing": (
        lambda: savitzky_golay(np.ones(20), 7, 2, 1, delta=0.0),
        NonuniformAxis,
        "channel spacing 0 to the power 1 is not a normal positive float"),
    "derivative_two_channels_second_order": (
        lambda: derivative(np.array([1.0, 2.0]), [0.0, 1.0], 2),
        WindowTooLarge, "derivative of order 2 needs >= 3 channels, got 2"),
    "rnv_no_channel": (
        lambda: rnv(np.ones(0), 75.0), DegenerateSubset,
        "need at least 2 points for percentile scaling"),
    "peak_normalize_empty_axis": (
        lambda: peak_normalize(np.ones(0), np.ones(0), 500.0, 10.0),
        WindowOutsideAxis, "empty axis for window [490, 510] cm-1"),
}


@pytest.mark.parametrize("call,error,message", REFUSED_INPUTS.values(),
                         ids=REFUSED_INPUTS.keys())
def test_refuses_input(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


class TestPipelineGrammar:
    def test_parse_and_canonical_name(self):
        p = parse_pipeline("Baseline_ALS(1e5, 0.01, 10) | RNV(75)")
        assert p.name == "baseline_als(100000,0.01,10)|rnv(75)"

    def test_identity(self):
        assert parse_pipeline("identity").name == "identity"
        assert parse_pipeline("identity") == IDENTITY

    def test_equality_iff_names_equal(self):
        a = parse_pipeline("snv|savgol(7,2)")
        b = parse_pipeline("SNV | savitzky_golay(7, 2, 0)")
        assert a == b and a.name == b.name
        c = parse_pipeline("snv|savgol(7,2,1)")
        assert c != a and c.name != a.name
        assert str(a) == a.name == "snv|savgol(7,2,0)"

    def test_rejects_garbage(self):
        for text, message in [
            ("", "empty pipeline description"),
            ("wibble(3)", "unknown preprocessing step 'wibble'"),
            ("snv|", "empty step in pipeline 'snv|'"),
            ("snv(", "unbalanced parentheses in step 'snv('"),
            ("savgol(7.5,2)", "savgol window must be an integer, got '7.5'"),
            ("rnv(150)", "step rnv(150): percentile must be in (0, 100]"),
            ("savgol(4,2)", "step savgol(4,2,0): window must be odd"),
            ("rnv(a)", "rnv percentile must be a finite number, got 'a'"),
            ("rnv(75,)", "rnv takes (percentile)"),
            ("derivative(3)", "step derivative(3): derivative order must be"),
            ("despike(7,nan)",
             "despike threshold must be a finite number, got 'nan'"),
            ("baseline_als(nan)",
             "baseline_als lambda must be a finite number"),
            ("baseline_als(inf)",
             "baseline_als lambda must be a finite number"),
            ("peak_normalize(1000,inf)",
             "peak_normalize half_width must be a finite number"),
        ]:
            with pytest.raises(PipelineSyntaxError) as info:
                parse_pipeline(text)
            assert str(info.value).startswith(message), text

    @pytest.mark.parametrize("text,name", [
        ("baseline_als", "baseline_als(100000,0.01,10)"),
        ("baseline_als(1e4)", "baseline_als(10000,0.01,10)"),
        ("baseline_als(1e4,0.05)", "baseline_als(10000,0.05,10)"),
        ("despike", "despike(7,8)"),
        ("despike(5)", "despike(5,8)"),
        ("peak_normalize(1000)", "peak_normalize(1000,10)"),
        ("sg(7,2)", "savgol(7,2,0)"),
        ("Savitzky_Golay(9, 3, 1)", "savgol(9,3,1)"),
    ])
    def test_defaults_and_aliases(self, text, name):
        assert parse_pipeline(text).name == name


# valid parameters of every step kind, as the text a user would type
ODD = st.integers(1, 15).map(lambda k: 2 * k + 1)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
STEP_ARGS = {
    "snv": st.just([]),
    "rnv": st.floats(0.0, 100.0, exclude_min=True).map(lambda v: [v]),
    "savgol": ODD.filter(lambda w: w >= 5).flatmap(
        lambda w: st.integers(0, w - 1).flatmap(
            lambda o: st.one_of(st.just([w, o]),
                                st.integers(0, o).map(lambda d: [w, o, d])))),
    "derivative": st.sampled_from([[1], [2]]),
    "baseline_als": st.tuples(
        POSITIVE, st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        st.integers(1, 50)).flatmap(
            lambda args: st.integers(0, 3).map(lambda n: list(args[:n]))),
    "despike": st.tuples(ODD, POSITIVE).flatmap(
        lambda args: st.integers(0, 2).map(lambda n: list(args[:n]))),
    "peak_normalize": st.tuples(
        st.floats(allow_nan=False, allow_infinity=False), POSITIVE).flatmap(
            lambda args: st.integers(1, 2).map(lambda n: list(args[:n]))),
}


# an out-of-range value of every step kind with parameters: the parser's
# PipelineSyntaxError names the step, a direct call raises the operation's
# own class
OUT_OF_RANGE = [
    ("rnv(150)", lambda x, ax: rnv(x, 150.0), DegenerateSubset),
    ("rnv(0)", lambda x, ax: rnv(x, 0.0), DegenerateSubset),
    ("rnv(nan)", lambda x, ax: rnv(x, np.nan), DegenerateSubset),
    ("savgol(4,2)", lambda x, ax: savitzky_golay(x, 4, 2), BadOrder),
    ("savgol(nan,2)", lambda x, ax: savitzky_golay(x, np.nan, 2),
     BadOrder),
    ("savgol(7,7)", lambda x, ax: savitzky_golay(x, 7, 7), BadOrder),
    ("savgol(7,2,3)", lambda x, ax: savitzky_golay(x, 7, 2, 3), BadOrder),
    # 150 ** 150 is not a finite float: the fit's design would overflow
    ("savgol(301,150)", lambda x, ax: savitzky_golay(x, 301, 150), BadOrder),
    ("derivative(3)", lambda x, ax: derivative(x, ax, 3), BadOrder),
    ("baseline_als(0)", lambda x, ax: baseline_als(x, 0.0), BadOrder),
    ("baseline_als(nan)", lambda x, ax: baseline_als(x, np.nan),
     BadOrder),
    ("baseline_als(1e5,1)", lambda x, ax: baseline_als(x, 1e5, 1.0),
     BadOrder),
    ("baseline_als(1e5,0.01,0)",
     lambda x, ax: baseline_als(x, 1e5, 0.01, 0), BadOrder),
    ("despike(4)", lambda x, ax: despike(x, 4), BadOrder),
    ("despike(7,0)", lambda x, ax: despike(x, 7, 0.0), BadOrder),
    ("despike(7,nan)", lambda x, ax: despike(x, 7, np.nan), BadOrder),
    ("peak_normalize(440,0)",
     lambda x, ax: peak_normalize(x, ax, 440.0, 0.0), BadOrder),
    ("peak_normalize(440,nan)",
     lambda x, ax: peak_normalize(x, ax, 440.0, np.nan), BadOrder),
]


# the operation each step kind calls
STEP_OPERATIONS = {"snv": "snv", "rnv": "rnv", "savgol": "savitzky_golay",
                   "derivative": "derivative", "baseline_als": "baseline_als",
                   "despike": "despike", "peak_normalize": "peak_normalize"}


@st.composite
def step_texts(draw):
    kind = draw(st.sampled_from(sorted(_STEPS)))
    spelling = draw(st.sampled_from([kind, *_STEPS[kind].aliases]))
    spelling = "".join(c.upper() if draw(st.booleans()) else c
                       for c in spelling)
    args = draw(STEP_ARGS[kind])
    if not args and draw(st.booleans()):
        return spelling
    return f"{spelling}({', '.join(repr(a) for a in args)})"


class TestStepTable:
    def test_strategies_cover_every_kind(self):
        assert set(STEP_ARGS) == set(_STEPS)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(step_texts(), min_size=1, max_size=4))
    def test_canonical_name_round_trip(self, texts):
        pipe = parse_pipeline(" | ".join(texts))
        assert parse_pipeline(pipe.name) == pipe
        assert parse_pipeline(pipe.name).name == pipe.name
        for step in pipe.steps:
            assert step.kind in _STEPS
            assert len(step.params) == len(_STEPS[step.kind].params)

    @pytest.mark.parametrize("text,direct,error", OUT_OF_RANGE,
                             ids=[text for text, *_ in OUT_OF_RANGE])
    def test_out_of_range_parameter(self, text, direct, error):
        base = random_spectra_set(i=1, j=40, seed=12)
        x = base.matrix[0] + 10.0
        with pytest.raises(PipelineSyntaxError, match=text.split("(")[0]):
            parse_pipeline(text)
        with pytest.raises(error):
            direct(x, base.axis)

    # the steps that read the axis, called directly with an axis of another
    # length than the spectra: one shared check, one class and message
    @pytest.mark.parametrize("direct", [
        lambda x, ax: derivative(x, ax, 1),
        lambda x, ax: peak_normalize(x, ax, 420.0, 5.0),
    ], ids=["derivative", "peak_normalize"])
    def test_axis_of_another_length(self, direct):
        base = random_spectra_set(i=3, j=100, seed=12)
        with pytest.raises(NonuniformAxis,
                           match=r"^100 intensities for 50 axis points$"):
            direct(base.matrix + 10.0, base.axis[:50])

    # at least one step of every kind, with the fewest channels a spectrum
    # can have; a SpectraSet holds at least 8
    SHORT_SPECTRUM_STEPS = ("snv", "rnv(75)", "savgol(5,2,0)",
                            "savgol(5,2,1)", "derivative(1)",
                            "derivative(2)", "baseline_als", "despike",
                            "peak_normalize(1,1)")

    def test_short_spectrum_steps_cover_every_kind(self):
        assert {parse_pipeline(text).steps[0].kind
                for text in self.SHORT_SPECTRUM_STEPS} == set(_STEPS)

    @pytest.mark.parametrize("channels", [0, 1, 2])
    @pytest.mark.parametrize("text", SHORT_SPECTRUM_STEPS)
    def test_short_spectrum_returns_or_refuses(self, text, channels):
        # a result, or a SpecselError with no warning first: never an
        # IndexError, an empty reduction or a mean of an empty slice
        step = parse_pipeline(text).steps[0]
        x, ax = np.arange(1.0, channels + 1.0), np.arange(float(channels))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                out = step.apply(x, ax)
            except SpecselError:
                return
        assert out.shape == x.shape

    def test_out_of_range_cases_cover_every_checked_kind(self):
        checked = {kind for kind, spec in _STEPS.items() if spec.params}
        assert {text.split("(")[0] for text, *_ in OUT_OF_RANGE} == checked

    @pytest.mark.parametrize("kind", sorted(_STEPS))
    def test_params_match_the_operation_signature(self, kind):
        # each default is written twice, in the step's params and in the
        # operation's signature; the step names lam "lambda"
        operation = getattr(preprocess, STEP_OPERATIONS[kind])
        signature = inspect.signature(operation, eval_str=True)
        declared = [(p.name, p.annotation, repr(p.default))
                    for p in signature.parameters.values()
                    if p.name not in ("spectrum", "axis", "delta")]
        assert declared == [
            ("lam" if name == "lambda" else name, type_,
             repr(inspect.Parameter.empty if default is _REQUIRED
                  else default))
            for name, type_, default in _STEPS[kind].params]

    @pytest.mark.parametrize("text,operation", [
        ("snv", "snv"), ("rnv(75)", "rnv"), ("sg(7,2,1)", "savitzky_golay"),
        ("derivative(1)", "derivative"), ("baseline_als", "baseline_als"),
        ("despike", "despike"), ("peak_normalize(440)", "peak_normalize"),
    ])
    def test_steps_call_the_module_attribute(self, monkeypatch, text,
                                             operation):
        # a wrapper bound to the module name (as a tracer binds one) must
        # see every step call
        calls = []
        original = getattr(preprocess, operation)
        monkeypatch.setattr(preprocess, operation,
                            lambda *a, **k: calls.append(1) or original(*a, **k))
        ss = random_spectra_set(i=3, j=40, seed=17)
        ss = SpectraSet(ss.axis, ss.matrix + 10.0, ss.labels)
        apply_pipeline(ss, parse_pipeline(text))
        assert calls == [1]

    @pytest.mark.parametrize("kind,params,message", [
        ("wibble", (), "unknown preprocessing step 'wibble'"),
        ("rnv", (150.0,), r"^step rnv\(150\): percentile must be in"),
        ("savgol", (7,), r"^savgol takes \(window, polyorder, \[deriv\]\)"),
        ("despike", (7, "x"),
         "despike threshold must be a finite number, got 'x'"),
        ("despike", (4, 8.0), r"^step despike\(4,8\): window must be odd"),
        ("rnv", (10 ** 400,),
         "^rnv percentile must be a finite number, got 1000"),
        ("derivative", (True,),
         "^derivative order must be a finite number, got True$"),
        ("rnv", (False,), "^rnv percentile must be a finite number, got False$"),
        ("rnv", (None,), "^rnv percentile must be a finite number, got None$"),
    ], ids=["unknown_kind", "out_of_range", "arity", "not_a_number",
            "even_window", "int_too_large_for_a_float", "true", "false",
            "none"])
    def test_constructor_refuses_what_parse_refuses(self, kind, params,
                                                    message):
        with pytest.raises(PipelineSyntaxError, match=message):
            PipelineStep(kind, params)

    def test_constructor_fills_defaults_and_aliases(self):
        step = PipelineStep("SG", (7, 2))
        assert step == parse_pipeline("savgol(7,2,0)").steps[0]
        assert step.name == "savgol(7,2,0)"
        assert isinstance(step.params[0], int)
        assert PipelineStep("peak_normalize", (1000.0,)).name == \
            "peak_normalize(1000,10)"

    def test_parse_time_error_names_the_step(self):
        with pytest.raises(PipelineSyntaxError,
                           match=r"^step savgol\(4,2,0\): window must be odd"):
            parse_pipeline("sg(4,2)")


class TestApplyPipeline:
    def test_identity_is_noop(self, tiny_set):
        out = apply_pipeline(tiny_set, IDENTITY)
        assert out is tiny_set

    def test_snv_rows(self, tiny_set):
        out = apply_pipeline(tiny_set, parse_pipeline("snv"))
        assert_allclose(out.matrix.mean(axis=1), 0.0, atol=1e-12)
        assert_allclose(out.matrix.std(axis=1, ddof=1), 1.0, atol=1e-12)
        assert np.array_equal(out.axis, tiny_set.axis)
        assert out.labels == tiny_set.labels

    def test_composition_matches_manual(self):
        ss = random_spectra_set(i=4, j=60, seed=9)
        shifted = SpectraSet(ss.axis, ss.matrix + 40.0, ss.labels)
        pipe = parse_pipeline("baseline_als(1e5,0.01,10)|rnv(75)")
        out = apply_pipeline(shifted, pipe)
        for n in range(shifted.n_spectra):
            manual = rnv(baseline_als(shifted.matrix[n], 1e5, 0.01, 10)[0], 75.0)
            assert np.array_equal(out.matrix[n], manual)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("text", [
        "snv|savgol(5,2,0)",
        *sorted({step for c in DEFAULT_CANDIDATES for step in c.split("|")}),
        "peak_normalize(440,10)",
    ])
    def test_per_spectrum_equals_set_level(self, text, order):
        base = random_spectra_set(i=5, j=40, seed=10)
        matrix = np.asarray(base.matrix, order=order)
        ss = SpectraSet(base.axis, matrix, base.labels)
        pipe = parse_pipeline(text)
        whole = apply_pipeline(ss, pipe)
        direct = matrix
        for step in pipe.steps:
            direct = step.apply(direct, ss.axis)
        assert np.array_equal(direct, whole.matrix)
        for n in range(ss.n_spectra):
            alone = apply_pipeline(subset(ss, [n]), pipe)
            assert np.array_equal(whole.matrix[n], alone.matrix[0])

    def test_savgol_derivative_needs_uniform_axis(self):
        # spacing grows from 1 to 3 cm-1 along the axis
        axis = 400.0 + np.cumsum(np.linspace(1.0, 3.0, 40))
        base = random_spectra_set(i=3, j=40, seed=13)
        ss = SpectraSet(axis, base.matrix, base.labels)
        for text in ("derivative(1)", "savgol(7,2,1)", "savgol(7,3,2)"):
            with pytest.raises(NonuniformAxis, match=r"'s\w+', step"):
                apply_pipeline(ss, parse_pipeline(text))
        # a smoothing fit takes no spacing, so any increasing axis will do
        out = apply_pipeline(ss, parse_pipeline("savgol(7,2,0)"))
        assert np.array_equal(out.matrix, savitzky_golay(ss.matrix, 7, 2, 0))

    def test_savgol_derivative_scaled_by_uniform_spacing(self):
        base = random_spectra_set(i=3, j=40, seed=14)
        axis = 400.0 + 2.0 * np.arange(40)
        ss = SpectraSet(axis, base.matrix, base.labels)
        out = apply_pipeline(ss, parse_pipeline("savgol(7,2,1)"))
        assert np.array_equal(out.matrix,
                              savitzky_golay(ss.matrix, 7, 2, 1, delta=2.0))

    def test_error_carries_label_and_step(self):
        axis = 400.0 + 2.0 * np.arange(10)
        matrix = np.vstack([np.ones(10), np.arange(10.0)])
        ss = SpectraSet(axis, matrix, ("flat", "ramp"))
        with pytest.raises(ZeroVariance, match=r"'flat'.*snv"):
            apply_pipeline(ss, parse_pipeline("snv"))

    def test_error_from_first_failing_spectrum_in_row_order(self):
        # "late" fails at step 1, but "early" comes first and fails at step 2
        axis = 400.0 + 2.0 * np.arange(10)
        matrix = np.vstack([np.full(10, 3.0), np.arange(10.0),
                            -np.ones(10)])
        ss = SpectraSet(axis, matrix, ("early", "fine", "late"))
        with pytest.raises(ZeroVariance) as info:
            apply_pipeline(ss, parse_pipeline("peak_normalize(410,4)|snv"))
        assert str(info.value) == (
            "spectrum 'early', step snv: constant spectrum has no variance "
            "to scale by")

    def test_error_in_second_row_block(self):
        axis = 400.0 + 2.0 * np.arange(10)
        rng = np.random.default_rng(15)
        matrix = rng.normal(size=(ROW_BLOCK + 3, 10))
        matrix[ROW_BLOCK + 1] = 2.0
        labels = tuple(f"s{n}" for n in range(ROW_BLOCK + 3))
        ss = SpectraSet(axis, matrix, labels)
        with pytest.raises(ZeroVariance) as info:
            apply_pipeline(ss, parse_pipeline("derivative(1)|snv"))
        assert str(info.value) == (
            f"spectrum 's{ROW_BLOCK + 1}', step snv: constant spectrum has "
            f"no variance to scale by")

    def test_peak_memory_of_readme_pipeline(self):
        # the output, which the new set keeps without a copy, takes the
        # matrix once; each step's transient arrays on one block of rows
        # come on top. scipy.linalg is imported above, so its import is
        # not traced
        spectra, _ = tears_phantom(1000, 7)
        pipe = parse_pipeline("baseline_als(100000,0.01,10)|rnv(75)")
        tracemalloc.start()
        try:
            out = apply_pipeline(spectra, pipe)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.matrix.shape == spectra.matrix.shape
        assert peak / spectra.matrix.nbytes < 1.9
