import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad

from specsel.crossval import PressMatrix
from specsel.errors import BadOrder, DegenerateMatrix, SpecselError
from specsel.significance import (
    anova_oneway,
    boxplot_stats,
    f_cdf,
    select_optimal_pc,
)

from conftest import f_density


def f_cdf_by_quadrature(x, d1, d2):
    value, _ = quad(f_density, 0.0, x, args=(d1, d2), limit=200)
    return value


class TestFCdf:
    def test_boundaries(self):
        assert f_cdf(0.0, 3, 7) == 0.0
        assert f_cdf(-1.0, 3, 7) == 0.0
        assert f_cdf(1e12, 3, 7) > 1.0 - 1e-9
        assert f_cdf(math.inf, 3, 7) == 1.0

    def test_monotone(self):
        xs = np.linspace(0.01, 30.0, 200)
        values = [f_cdf(x, 4, 9) for x in xs]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    def test_equal_df_symmetry(self):
        for d in (1, 2, 5, 17, 40):
            assert abs(f_cdf(1.0, d, d) - 0.5) < 1e-12

    def test_against_quadrature_grid(self):
        # 50-point oracle grid: adaptive integration of the density
        grid = [(x, d1, d2)
                for d1 in (1, 2, 4, 10, 30)
                for d2 in (2, 6, 20, 60, 120)
                for x in (0.4, 2.7)]
        assert len(grid) == 50
        for x, d1, d2 in grid:
            assert abs(f_cdf(x, d1, d2) - f_cdf_by_quadrature(x, d1, d2)) < 1e-8

    def test_bad_df(self):
        with pytest.raises(BadOrder, match=r"must be >= 1, got \(0, 5\)"):
            f_cdf(1.0, 0, 5)


class TestAnovaOneway:
    def test_hand_table(self):
        # groups {1,2,3}, {2,3,4}, {6,7,8}: means 2, 3, 7, grand mean 4
        # SST = 3*((2-4)^2 + (3-4)^2 + (7-4)^2) = 42, SSE = 2+2+2 = 6
        # F = (42/2) / (6/6) = 21, p = P(F(2,6) > 21) = 0.125^3
        table = np.array([[1.0, 2.0, 6.0],
                          [2.0, 3.0, 7.0],
                          [3.0, 4.0, 8.0]])
        res = anova_oneway(table, alpha=0.05)
        assert res.sst == 42.0
        assert res.sse == 6.0
        assert res.df_treat == 2
        assert res.df_error == 6
        assert abs(res.f_statistic - 21.0) < 1e-12
        assert abs(res.p_value - 0.125 ** 3) < 1e-12
        assert res.significant

    def test_identical_columns_not_significant(self):
        column = np.array([1.0, 2.0, 3.0, 4.0])
        table = np.column_stack([column, column, column])
        res = anova_oneway(table, alpha=0.05)
        assert res.sst == 0.0
        assert res.f_statistic == 0.0
        assert res.p_value == 1.0
        assert not res.significant

    def test_all_identical_degenerate(self):
        res = anova_oneway(np.full((4, 3), 2.5), alpha=0.05)
        assert res.p_value == 1.0
        assert not res.significant
        assert any("identical" in n for n in res.notes)

    def test_row_permutation_invariant(self):
        rng = np.random.default_rng(0)
        table = rng.uniform(1.0, 3.0, (8, 4))
        a = anova_oneway(table, 0.05)
        b = anova_oneway(table[rng.permutation(8)], 0.05)
        assert abs(a.f_statistic - b.f_statistic) < 1e-12
        assert abs(a.p_value - b.p_value) < 1e-12

    def test_shift_and_scale_invariance(self):
        rng = np.random.default_rng(1)
        table = rng.uniform(1.0, 3.0, (10, 5))
        base = anova_oneway(table, 0.05)
        shifted = anova_oneway(table + 123.0, 0.05)
        scaled = anova_oneway(table * 7.5, 0.05)
        assert abs(base.f_statistic - shifted.f_statistic) <= 1e-9 * base.f_statistic
        assert abs(base.f_statistic - scaled.f_statistic) <= 1e-9 * base.f_statistic

    def test_sst_plus_sse_is_total(self):
        rng = np.random.default_rng(2)
        table = rng.uniform(0.0, 5.0, (9, 6))
        res = anova_oneway(table, 0.05)
        total = float(np.sum((table - table.mean()) ** 2))
        assert abs((res.sst + res.sse) - total) < 1e-9 * total

    def test_zero_within_variance_is_infinitely_significant(self):
        # constant columns that differ: SSE is 0 and SST is not
        table = np.tile([4.0, 1.0, 3.0, 2.0], (5, 1))
        res = anova_oneway(table, 0.05)
        assert res.sse == 0.0 and res.sst > 0.0
        assert res.f_statistic == math.inf and res.p_value == 0.0
        assert res.significant

    def test_false_rejection_rate(self):
        rng = np.random.default_rng(0)
        rejections = 0
        for _ in range(1000):
            table = rng.normal(10.0, 1.0, size=(10, 8))
            if anova_oneway(table, 0.05).significant:
                rejections += 1
        assert 0.03 <= rejections / 1000.0 <= 0.07

    def test_too_small(self):
        with pytest.raises(DegenerateMatrix):
            anova_oneway(np.ones((1, 3)), 0.05)
        with pytest.raises(DegenerateMatrix):
            anova_oneway(np.ones((5, 1)), 0.05)
        with pytest.raises(DegenerateMatrix):
            anova_oneway(np.ones(5), 0.05)


class TestBoxplotStats:
    def test_percentile_convention(self):
        column = np.arange(1.0, 101.0)
        stats = boxplot_stats(column[:, None])[0]
        assert abs(stats.q1 - 25.75) < 1e-12
        assert abs(stats.q3 - 75.25) < 1e-12
        assert stats.outliers == ()
        assert stats.lo_whisker == 1.0
        assert stats.hi_whisker == 100.0

    def test_single_outlier_flagged(self):
        column = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 40.0])
        stats = boxplot_stats(column[:, None])[0]
        q1, q3 = np.percentile(column, [25, 75])
        iqr = q3 - q1
        assert column[-1] > q3 + 1.5 * iqr
        assert stats.outliers == (40.0,)
        assert stats.hi_whisker == 8.0

    def test_constant_column_has_no_outliers(self):
        stats = boxplot_stats(np.full((6, 1), 3.3))[0]
        assert stats.outliers == ()
        assert stats.q1 == stats.q3 == stats.median == 3.3

    def test_one_row(self):
        stats = boxplot_stats(np.array([[2.0, 5.0]]))
        assert [(b.pc, b.q1, b.median, b.q3, b.n_valid) for b in stats] == [
            (1, 2.0, 2.0, 2.0, 1), (2, 5.0, 5.0, 5.0, 1)]

    def test_matches_per_column_percentiles(self):
        rng = np.random.default_rng(10)
        table = rng.exponential(1.0, (13, 7))
        for b, column in zip(boxplot_stats(table), table.T):
            q1, med, q3 = np.percentile(column, [25.0, 50.0, 75.0])
            assert (b.q1, b.median, b.q3) == (q1, med, q3)

    def test_empty_refused(self):
        with pytest.raises(DegenerateMatrix):
            boxplot_stats(np.empty((0, 3)))


class TestSelectOptimalPc:
    @staticmethod
    def as_press(values):
        values = np.asarray(values, dtype=float)
        labels = tuple(f"s{n}" for n in range(values.shape[0]))
        return PressMatrix(values, "test", labels)

    def test_planted_dominant_column(self):
        rng = np.random.default_rng(4)
        table = rng.uniform(9.0, 11.0, (12, 6))
        table[:, 3] = rng.uniform(0.9, 1.1, 12)
        verdict = select_optimal_pc(self.as_press(table), alpha=0.05)
        assert verdict.significant
        assert verdict.optimal_pc == 4
        assert 4 in verdict.candidate_set

    def test_iid_columns_fall_back(self):
        # seed chosen so the omnibus test (correctly) fails to reject
        rng = np.random.default_rng(23)
        table = np.abs(rng.normal(10.0, 1.0, (10, 8)))
        verdict = select_optimal_pc(self.as_press(table), alpha=0.05)
        assert not verdict.significant
        assert verdict.optimal_pc == int(np.argmin(table.sum(axis=0))) + 1
        assert any("unsuitable" in n for n in verdict.notes)

    def test_fallback_is_argmin_sum(self):
        column = np.array([5.0, 6.0, 7.0, 8.0])
        table = np.column_stack([column, column + 0.01, column - 0.01])
        verdict = select_optimal_pc(self.as_press(table), alpha=0.05)
        assert not verdict.significant
        assert verdict.optimal_pc == 3

    def test_omnibus_only_significance_falls_back(self):
        # twenty columns a little below twenty others: the omnibus test sees
        # the split, but no single column beats the worst one pairwise
        means = np.array([10.0] * 20 + [10.55] * 20)
        means[2] -= 0.01
        table = means[None, :] + np.linspace(-1.0, 1.0, 10)[:, None]
        verdict = select_optimal_pc(self.as_press(table), alpha=0.05)
        assert verdict.anova.significant
        assert not verdict.significant
        assert verdict.optimal_pc == 3
        assert verdict.candidate_set == () and verdict.pairwise_p == {}
        assert any("overall test significant" in n for n in verdict.notes)
        assert len(verdict.boxplot) == 40

    def test_row_permutation_invariant(self):
        rng = np.random.default_rng(5)
        table = rng.uniform(1.0, 4.0, (10, 5))
        table[:, 2] *= 0.05
        a = select_optimal_pc(self.as_press(table), 0.05)
        b = select_optimal_pc(self.as_press(table[rng.permutation(10)]), 0.05)
        assert a.significant == b.significant
        assert a.optimal_pc == b.optimal_pc
        assert a.candidate_set == b.candidate_set

    def test_log_transform_reported(self):
        rng = np.random.default_rng(6)
        table = rng.uniform(1.0, 4.0, (8, 4))
        verdict = select_optimal_pc(self.as_press(table), 0.05,
                                    log_transform=True)
        assert verdict.anova.log_transformed
        assert any("log10" in n for n in verdict.notes)

    def test_sum_press_column(self):
        rng = np.random.default_rng(7)
        table = rng.uniform(1.0, 4.0, (6, 4))
        verdict = select_optimal_pc(self.as_press(table), 0.05)
        assert_allclose(verdict.sum_press, table.sum(axis=0), rtol=1e-12)

    @staticmethod
    def ranks(values):
        return np.argsort(np.argsort(values, kind="stable"), kind="stable")

    def test_pairwise_p_rank_is_mean_rank(self):
        # every pairwise test is against the worst column with the same df,
        # so with equal fold counts p rises with the column mean
        spread = np.linspace(-3.0, 3.0, 10)[:, None]
        table = (np.array([10.0, 8.0, 7.0, 7.5, 6.0, 8.5])
                 + spread * np.array([1.0, 1.3, 0.7, 1.1, 0.9, 1.2]))
        verdict = select_optimal_pc(self.as_press(table), 0.05)
        pcs = sorted(verdict.pairwise_p)
        p = np.array([verdict.pairwise_p[k] for k in pcs])
        means = verdict.anova.group_means[np.array(pcs) - 1]
        assert len(pcs) >= 3 and np.all(p > 0.0) and len(set(p)) == len(p)
        assert np.array_equal(self.ranks(p), self.ranks(means))
        assert verdict.optimal_pc == pcs[int(np.argmin(means))]

    def test_underflowed_p_ties_go_to_fewer_components(self):
        # the p-values underflow to 0.0 and tie, and the stable rank orders
        # them by component count: PC 2 (mean rank 1 + p rank 0) ties PC 3,
        # the smallest mean (0 + 1), and wins with fewer components
        table = (np.array([100.0, 2.5, 2.0, 3.0])
                 + 1e-3 * np.linspace(-1.0, 1.0, 10)[:, None])
        verdict = select_optimal_pc(self.as_press(table), 0.05)
        assert verdict.pairwise_p == {2: 0.0, 3: 0.0, 4: 0.0}
        assert int(np.argmin(verdict.anova.group_means)) + 1 == 3
        assert verdict.optimal_pc == 2

    def test_zero_within_variance_short_lists_at_p_zero(self):
        # constant columns that differ: the pooled mean square is 0, so
        # every column below the worst one is short-listed at p = 0.0; the
        # p-values tie, so the rank sums (PC 2: 2 + 0, PC 3: 0 + 1, PC 4:
        # 1 + 2) pick PC 3, the smallest mean
        table = np.tile([4.0, 2.0, 1.0, 1.5], (5, 1))
        verdict = select_optimal_pc(self.as_press(table), 0.05)
        assert verdict.anova.f_statistic == math.inf
        assert verdict.significant
        assert verdict.pairwise_p == {2: 0.0, 3: 0.0, 4: 0.0}
        assert verdict.optimal_pc == 3

    def test_verdict_invariant(self):
        # significant verdicts pick from the candidate set; fallbacks pick
        # the argmin PRESS sum
        rng = np.random.default_rng(8)
        for trial in range(20):
            table = rng.uniform(1.0, 3.0, (8, 5))
            if trial % 2:
                table[:, trial % 5] *= 0.02
            verdict = select_optimal_pc(self.as_press(table), 0.05)
            if verdict.significant:
                assert verdict.optimal_pc in verdict.candidate_set
            else:
                sums = np.nansum(table, axis=0)
                assert verdict.optimal_pc == int(np.argmin(sums)) + 1


def assert_same(a, b):
    """Field-by-field equality of gate results."""
    assert type(a) is type(b)
    if dataclasses.is_dataclass(a):
        for field in dataclasses.fields(a):
            assert_same(getattr(a, field.name), getattr(b, field.name))
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same(x, y)
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
    else:
        assert a == b


@pytest.mark.parametrize("gate", [
    anova_oneway,
    lambda m: anova_oneway(m, log_transform=True),
    boxplot_stats,
    select_optimal_pc,
    lambda m: select_optimal_pc(m, log_transform=True),
], ids=["anova", "anova_log", "boxplot", "select", "select_log"])
def test_press_matrix_and_array_give_equal_results(gate):
    rng = np.random.default_rng(9)
    table = rng.uniform(2.0, 4.0, (8, 5))
    table[:, 3] *= 0.1
    matrix = PressMatrix(table, "test", tuple(f"s{n}" for n in range(8)))
    from_matrix, from_array = gate(matrix), gate(matrix.values)
    assert_same(from_matrix, from_array)


@pytest.mark.parametrize("gate", [anova_oneway, boxplot_stats,
                                  select_optimal_pc],
                         ids=["anova", "boxplot", "select"])
@pytest.mark.parametrize("cell", [np.nan, np.inf])
def test_non_finite_cell_refused(gate, cell):
    rng = np.random.default_rng(3)
    table = rng.uniform(1.0, 2.0, (6, 4))
    table[2, 3] = cell
    with pytest.raises(DegenerateMatrix,
                       match=f"row 3, column pc_4 is {cell}, not finite"):
        gate(table)


@pytest.mark.parametrize("m", [1, 7, 2 ** 20])
def test_mean_square_rounding_to_zero_is_infinitely_significant(m):
    # column 2 is 2^-484 with cell 0 raised by m * 2^-536, so its sum of
    # squares is a nonzero subnormal: the error mean square rounds to 0
    # at m = 1, the pairwise difference's at m = 7, and t^2 overflows at
    # m = 2^20; each reads F and t^2 = inf, p = 0, with no exception and
    # no warning
    table = np.ones((40, 2))
    table[:, 1] = 2.0 ** -484
    table[0, 1] += m * 2.0 ** -536
    for anova in (anova_oneway(table), select_optimal_pc(table).anova):
        assert anova.sse > 0.0
        assert anova.f_statistic == math.inf and anova.p_value == 0.0
        assert anova.notes == ()
    verdict = select_optimal_pc(table)
    assert verdict.pairwise_p == {2: 0.0}
    assert verdict.optimal_pc == 2


@pytest.mark.parametrize("gate", [anova_oneway, select_optimal_pc],
                         ids=["anova", "select"])
@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, -1.0, math.nan])
def test_alpha_outside_open_unit_interval_refused(gate, alpha):
    table = np.random.default_rng(5).uniform(1.0, 2.0, (6, 4))
    with pytest.raises(SpecselError,
                       match=rf"alpha must be in \(0, 1\), got {alpha}$"):
        gate(table, alpha=alpha)
