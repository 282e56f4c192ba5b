"""ANOVA significance gate over a PRESS matrix and optimal-PC selection.

The gate is statistics on a finite 2-D array; a ``PressMatrix`` converts
with ``np.asarray``. Each PC count is one treatment group whose observations
are the per-fold PRESS values, one per row, so all groups have one size.
If the group means differ significantly (one-way F-test), the PC counts
that beat the worst-performing one are short-listed and the pick combines
low error with strong significance, a tie going to fewer components; if
they do not, the preprocessing pipeline itself is flagged as unsuitable and
the fallback is the smallest PRESS sum. Both tests run on the PRESS
columns divided by one power of two, so the verdict is the same whatever
the concentration unit.

Each rule of the gate is written once. The omnibus test and every pairwise
test call one F test, ``_f_test``, which holds the rules for a zero mean
square and the p-value. The range rule for alpha, ``_check_alpha``, sits
next to ``DEFAULT_ALPHA``; ``anova_oneway`` (hence ``select_optimal_pc``)
and ``selector.select_method`` call it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decompose import unit_scaled
from .errors import BadOrder, DegenerateMatrix, SpecselError

_TINY = 1e-300
DEFAULT_ALPHA = 0.05


def _check_alpha(alpha: float) -> None:
    """The gate's one rule for its significance level: 0 < alpha < 1, so
    NaN is refused too."""
    if not 0.0 < alpha < 1.0:
        raise SpecselError(f"alpha must be in (0, 1), got {alpha}")


# --- F distribution ----------------------------------------------------------

def f_cdf(x: float, d1: int, d2: int) -> float:
    """Cumulative F distribution with d1 and d2 degrees of freedom, a thin
    wrapper over ``scipy.special.fdtr``; x <= 0 gives 0.0."""
    if d1 < 1 or d2 < 1:
        raise BadOrder(f"degrees of freedom must be >= 1, got ({d1}, {d2})")
    if x <= 0.0:
        return 0.0
    # imported here: only select computes a p-value, so no other command pays
    from scipy.special import fdtr
    return float(fdtr(d1, d2, x))


def _f_test(ms_num: float, ms_den: float, d1: int, d2: int):
    """F = ms_num / ms_den and its upper-tail p on (d1, d2) degrees of
    freedom. A zero numerator gives F 0 and p 1; otherwise a zero
    denominator gives F inf and p 0. A mean square can round to 0 where
    its sum of squares does not, so these rules take the mean squares."""
    if ms_num == 0.0:
        return 0.0, 1.0
    if ms_den == 0.0:
        return math.inf, 0.0
    f_stat = ms_num / ms_den
    return f_stat, 1.0 - f_cdf(f_stat, d1, d2)


# --- one-way ANOVA -------------------------------------------------------------

@dataclass(frozen=True)
class AnovaResult:
    """Omnibus test of equal mean PRESS across PC counts."""

    sst: float
    sse: float
    f_statistic: float
    p_value: float
    df_treat: int
    df_error: int
    group_means: np.ndarray   # per column; read-only
    alpha: float
    log_transformed: bool = False
    notes: tuple[str, ...] = ()

    @property
    def significant(self) -> bool:
        return self.p_value < self.alpha


def _columns(press_matrix, min_size: int = 1) -> np.ndarray:
    """The columns of a finite 2-D PRESS matrix with at least ``min_size``
    rows and columns, each one contiguous row of the result, so that every
    column is reduced as one vector."""
    values = np.asarray(press_matrix, dtype=float)
    if values.ndim != 2 or min(values.shape) < min_size:
        raise DegenerateMatrix(
            f"need a 2-D PRESS matrix of at least {min_size} x {min_size}, "
            f"got shape {values.shape}"
        )
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        row, col = bad[0]
        raise DegenerateMatrix(
            f"PRESS value at row {row + 1}, column pc_{col + 1} is "
            f"{values[row, col]}, not finite"
        )
    return np.ascontiguousarray(values.T)


def _scaled_groups(columns: np.ndarray, log_transform: bool):
    """The gate's groups: ``columns`` as ``_columns`` returns them for a
    matrix of at least 2 x 2, after log10 if ``log_transform``, divided by
    2^e by ``unit_scaled``. Returns (those columns, their means, their
    within-group sum of squares, e). F and the pairwise t^2 are ratios of
    squares of these, so they do not depend on the concentration unit, and
    no square overflows; at normal scales the division changes none of
    their bits."""
    if log_transform:
        columns = np.log10(np.maximum(columns, _TINY))
    columns, e = unit_scaled(columns)
    group_means = columns.mean(axis=1)
    # running totals of the column sums: np.sum would add them pairwise
    # and round differently
    sse = float(np.cumsum(
        np.sum((columns - group_means[:, None]) ** 2, axis=1))[-1])
    return columns, group_means, sse, e.item()


def anova_oneway(press_matrix, alpha: float = DEFAULT_ALPHA,
                 log_transform: bool = False) -> AnovaResult:
    """One-way ANOVA with each PC-count column as a treatment group.

    Takes a finite matrix of at least 2 rows and 2 columns, else raises
    DegenerateMatrix, and 0 < alpha < 1, else raises SpecselError. With
    ``log_transform`` the test runs on log10 of the values (useful when
    PRESS spans orders of magnitude) and the result says so. The test runs
    on the columns scaled by a power of two (``_scaled_groups``); ``sst``,
    ``sse`` and ``group_means`` are scaled back exactly, a value beyond the
    float range reading inf or 0.
    """
    _check_alpha(alpha)
    columns, group_means, sse, e = _scaled_groups(
        _columns(press_matrix, min_size=2), log_transform)
    notes = (["ANOVA computed on log10-transformed PRESS values"]
             if log_transform else [])
    n_groups, n_rows = columns.shape
    grand_mean = float(np.cumsum(columns.sum(axis=1))[-1]) / columns.size
    sst = float(np.sum(n_rows * (group_means - grand_mean) ** 2))
    df_treat, df_error = n_groups - 1, columns.size - n_groups
    f_stat, p_value = _f_test(sst / df_treat, sse / df_error, df_treat,
                              df_error)
    # with sse 0, F reads 0 only when the treatment mean square is 0 too
    if f_stat == 0.0 and sse == 0.0:
        notes.append("degenerate PRESS matrix: all values identical")
    with np.errstate(over="ignore", under="ignore"):
        sst, sse = float(np.ldexp(sst, 2 * e)), float(np.ldexp(sse, 2 * e))
        group_means = np.ldexp(group_means, e)
    group_means.setflags(write=False)
    return AnovaResult(
        sst=sst, sse=sse, f_statistic=f_stat, p_value=p_value,
        df_treat=df_treat, df_error=df_error, group_means=group_means,
        alpha=alpha, log_transformed=log_transform, notes=tuple(notes),
    )


# --- box-plot diagnostics --------------------------------------------------------

@dataclass(frozen=True)
class BoxStats:
    """Quartile/whisker/outlier summary of one PRESS column."""

    pc: int
    q1: float
    median: float
    q3: float
    lo_whisker: float
    hi_whisker: float
    outliers: tuple[float, ...]
    n_valid: int


def boxplot_stats(press_matrix) -> list[BoxStats]:
    """Per-column box-plot summary: type-7 quartiles, 1.5 IQR whiskers.

    Takes a finite 2-D matrix, one row or one column included, else raises
    DegenerateMatrix. Points beyond 1.5 interquartile ranges from the
    quartiles are outliers; whiskers end at the most extreme points that
    are not.
    """
    columns = _columns(press_matrix)
    quartiles = np.percentile(columns, [25.0, 50.0, 75.0], axis=1)
    stats = []
    for m, (column, (q1, med, q3)) in enumerate(zip(columns, quartiles.T)):
        iqr = q3 - q1
        lo_limit, hi_limit = q1 - 1.5 * iqr, q3 + 1.5 * iqr
        inside = column[(column >= lo_limit) & (column <= hi_limit)]
        outliers = column[(column < lo_limit) | (column > hi_limit)]
        stats.append(BoxStats(
            pc=m + 1, q1=float(q1), median=float(med), q3=float(q3),
            lo_whisker=float(inside.min()), hi_whisker=float(inside.max()),
            outliers=tuple(sorted(float(v) for v in outliers)),
            n_valid=int(column.size),
        ))
    return stats


# --- PC selection ------------------------------------------------------------------

@dataclass(frozen=True)
class PcVerdict:
    """Outcome of the significance gate for one pipeline's PRESS matrix."""

    optimal_pc: int
    sum_press: np.ndarray       # per column; read-only
    boxplot: tuple[BoxStats, ...]
    anova: AnovaResult
    pairwise_p: dict            # short-listed PC count -> p vs the worst
    notes: tuple[str, ...] = ()

    @property
    def candidate_set(self) -> tuple[int, ...]:
        return tuple(self.pairwise_p)

    @property
    def significant(self) -> bool:
        return bool(self.pairwise_p)


UNSUITABLE_ALERT = (
    "PRESS does not vary significantly with the number of components; "
    "this points to an unsuitable preprocessing treatment rather than a "
    "property of the data, and the pipeline should not be trusted for a "
    "robust model"
)


def _stable_ranks(values) -> np.ndarray:
    ranks = np.empty(len(values), dtype=int)
    ranks[np.argsort(values, kind="stable")] = np.arange(len(values))
    return ranks


def select_optimal_pc(press_matrix, alpha: float = DEFAULT_ALPHA,
                      log_transform: bool = False) -> PcVerdict:
    """Qualify the PRESS matrix and pick the optimal component count.

    Significant case: PC counts whose mean PRESS is significantly below
    the worst column's (pairwise test on the pooled within-group mean
    square) are short-listed; among them the pick is the argmin of the sum
    of the mean-PRESS rank and the pairwise-p rank over counts in
    ascending order, so a tie goes to fewer components (cheaper, less
    overfit-prone). Non-significant case: the column with the smallest
    PRESS sum, plus an alert that the preprocessing treatment looks
    unsuitable.

    Takes a finite matrix of at least 2 rows and 2 columns, else raises
    DegenerateMatrix, and 0 < alpha < 1, else raises SpecselError. The
    matrix is checked and turned into columns once, here; the ANOVA, the
    pairwise tests and the box plots read that view.

    The rule that runs is simpler than it reads. Every pairwise test is
    against the same worst column with the same df and every column has
    one value per row, so p rises with the column mean: the pairwise-p
    rank equals the mean-PRESS rank, and the pick is the smallest mean
    PRESS on the short list. Pairwise p-values that underflow to 0.0 tie,
    and the stable rank gives those ties to fewer components, so among
    them the pick can fall on fewer components than the smallest mean.
    """
    columns = _columns(press_matrix, min_size=2)
    anova = anova_oneway(columns.T, alpha=alpha, log_transform=log_transform)
    sum_press = columns.sum(axis=1)
    sum_press.setflags(write=False)
    notes = list(anova.notes)
    pairwise_p: dict[int, float] = {}
    # the scaled groups the ANOVA ran on, whose squares stay in range
    _, means, sse, _ = _scaled_groups(columns, log_transform)
    if anova.significant:
        worst = np.argmax(means)
        # the mean square of a difference of two column means
        ms_diff = sse / anova.df_error * (2 / columns.shape[1])
        for m in np.flatnonzero(means < means[worst]):
            # t^2 on (1, df_error) degrees of freedom
            _, p_pair = _f_test(float(means[worst] - means[m]) ** 2,
                                ms_diff, 1, anova.df_error)
            if p_pair < alpha:
                pairwise_p[int(m) + 1] = p_pair
        if not pairwise_p:
            # the overall test fired but no count beats the worst one
            # pairwise; without a qualified subset the gate has not really
            # been passed
            notes.append(
                "overall test significant, but no component count is "
                "significantly better than the worst one; pipeline treated "
                "as unqualified and the smallest PRESS sum returned"
            )
    else:
        notes.append(UNSUITABLE_ALERT)

    if pairwise_p:
        cand = np.asarray(list(pairwise_p)) - 1
        rank_sum = (_stable_ranks(means[cand])
                    + _stable_ranks(list(pairwise_p.values())))
        best = cand[np.argmin(rank_sum)]
    else:
        best = np.argmin(sum_press)
    return PcVerdict(
        optimal_pc=int(best) + 1, sum_press=sum_press,
        boxplot=tuple(boxplot_stats(columns.T)), anova=anova,
        pairwise_p=pairwise_p, notes=tuple(notes),
    )
