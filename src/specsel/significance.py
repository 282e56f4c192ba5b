"""ANOVA significance gate over a PRESS matrix and optimal-PC selection.

Each PC count is one treatment group whose observations are the per-fold
PRESS values. If the group means differ significantly (one-way F-test), the
PC counts that beat the worst-performing one are short-listed and the pick
combines low error with strong significance; if they do not, the
preprocessing pipeline itself is flagged as unsuitable and the fallback is
simply the column with the smallest PRESS sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .crossval import PressMatrix
from .errors import DegenerateMatrix

_TINY = 1e-300


# --- F distribution ----------------------------------------------------------

def f_cdf(x: float, d1: int, d2: int) -> float:
    """Cumulative F distribution with d1 and d2 degrees of freedom, a thin
    wrapper over ``scipy.special.fdtr``; x <= 0 gives 0.0."""
    if d1 < 1 or d2 < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got ({d1}, {d2})")
    if x <= 0.0:
        return 0.0
    # imported here: only select computes a p-value, so no other command pays
    from scipy.special import fdtr
    return float(fdtr(d1, d2, x))


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
    group_means: np.ndarray   # per column; NaN where a column was dropped
    group_sizes: np.ndarray   # valid observations per column
    alpha: float
    log_transformed: bool = False
    notes: tuple[str, ...] = ()

    @property
    def significant(self) -> bool:
        return self.p_value < self.alpha


def _press_values(matrix) -> np.ndarray:
    if isinstance(matrix, PressMatrix):
        return np.asarray(matrix.values, dtype=float)
    return np.asarray(matrix, dtype=float)


def anova_oneway(press_matrix, alpha: float = 0.05,
                 log_transform: bool = False) -> AnovaResult:
    """One-way ANOVA with each PC-count column as a treatment group.

    NaN entries (unattainable fold/PC pairs) are dropped per column; a
    column with no valid entries is dropped entirely, both with notes.
    With ``log_transform`` the test runs on log10 of the values (useful
    when PRESS spans orders of magnitude) and the result says so.
    """
    values = _press_values(press_matrix)
    if values.ndim != 2:
        raise DegenerateMatrix(f"PRESS matrix must be 2-D, got shape {values.shape}")
    n_rows, n_cols = values.shape
    if n_rows < 2 or n_cols < 2:
        raise DegenerateMatrix(
            f"need at least 2 rows and 2 columns, got {values.shape}"
        )
    notes = []
    if log_transform:
        with np.errstate(divide="ignore"):
            values = np.log10(np.maximum(values, _TINY))
        notes.append("ANOVA computed on log10-transformed PRESS values")

    valid = np.isfinite(values)
    group_sizes = valid.sum(axis=0)
    kept = group_sizes > 0
    if not np.all(kept):
        dropped = [f"pc_{m + 1}" for m in np.flatnonzero(~kept)]
        notes.append(f"dropped all-NaN column(s): {', '.join(dropped)}")
    partial = int(np.sum(group_sizes[kept] < n_rows))
    if partial:
        notes.append(f"{partial} column(s) had NaN entries dropped pairwise")
    n_groups = int(kept.sum())
    if n_groups < 2:
        raise DegenerateMatrix(
            f"only {n_groups} usable PRESS column(s); cannot test significance"
        )

    group_means = np.full(n_cols, np.nan)
    sse = 0.0
    total = 0.0
    n_obs = 0
    for m in np.flatnonzero(kept):
        column = values[valid[:, m], m]
        group_means[m] = column.mean()
        sse += float(np.sum((column - group_means[m]) ** 2))
        total += float(column.sum())
        n_obs += column.size
    grand_mean = total / n_obs
    sst = float(np.sum(
        group_sizes[kept] * (group_means[kept] - grand_mean) ** 2
    ))
    df_treat = n_groups - 1
    df_error = n_obs - n_groups
    if df_error < 1:
        raise DegenerateMatrix(
            f"no error degrees of freedom ({n_obs} observations, "
            f"{n_groups} groups)"
        )
    if sse == 0.0 and sst == 0.0:
        notes.append("degenerate PRESS matrix: all values identical")
        f_stat, p_value = 0.0, 1.0
    elif sse == 0.0:
        f_stat, p_value = math.inf, 0.0
    else:
        f_stat = (sst / df_treat) / (sse / df_error)
        p_value = 1.0 - f_cdf(f_stat, df_treat, df_error)
    return AnovaResult(
        sst=sst, sse=sse, f_statistic=f_stat, p_value=p_value,
        df_treat=df_treat, df_error=df_error, group_means=group_means,
        group_sizes=group_sizes.astype(int), alpha=alpha,
        log_transformed=log_transform, notes=tuple(notes),
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

    Points beyond 1.5 interquartile ranges from the quartiles are outliers;
    whiskers end at the most extreme points that are not.
    """
    values = _press_values(press_matrix)
    stats = []
    for m in range(values.shape[1]):
        column = values[np.isfinite(values[:, m]), m]
        if column.size == 0:
            stats.append(BoxStats(m + 1, math.nan, math.nan, math.nan,
                                  math.nan, math.nan, (), 0))
            continue
        q1, med, q3 = np.percentile(column, [25.0, 50.0, 75.0])
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

    significant: bool
    optimal_pc: int
    candidate_set: tuple[int, ...]
    sum_press: np.ndarray       # per column; NaN where no valid entries
    boxplot: tuple[BoxStats, ...]
    anova: AnovaResult
    pairwise_p: dict
    notes: tuple[str, ...] = ()


UNSUITABLE_ALERT = (
    "PRESS does not vary significantly with the number of components; "
    "this points to an unsuitable preprocessing treatment rather than a "
    "property of the data, and the pipeline should not be trusted for a "
    "robust model"
)


def _stable_ranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=int)
    ranks[order] = np.arange(len(values))
    return ranks


def select_optimal_pc(press_matrix, alpha: float = 0.05,
                      log_transform: bool = False) -> PcVerdict:
    """Qualify the PRESS matrix and pick the optimal component count.

    Significant case: PC counts whose mean PRESS is significantly below
    the worst column's (pairwise test on the pooled within-group mean
    square) are short-listed; among them the pick minimizes the sum of the
    mean-PRESS rank and the pairwise-p rank, ties going to fewer
    components. Non-significant case: the column with the smallest PRESS
    sum, plus an alert that the preprocessing treatment looks unsuitable.

    The rule that runs is simpler than it reads. Every pairwise test is
    against the same worst column with the same df, so when every column
    has the same number of valid folds p rises with the column mean: the
    pairwise-p rank equals the mean-PRESS rank, and the pick is the
    smallest mean PRESS on the short list. Pairwise p-values that
    underflow to 0.0 tie, and the stable rank gives those ties to fewer
    components, so among them the pick can fall on fewer components than
    the smallest mean.
    """
    anova = anova_oneway(press_matrix, alpha=alpha, log_transform=log_transform)
    raw = _press_values(press_matrix)
    sum_press = np.full(raw.shape[1], np.nan)
    for m in range(raw.shape[1]):
        column = raw[np.isfinite(raw[:, m]), m]
        if column.size:
            sum_press[m] = float(column.sum())
    valid_cols = np.flatnonzero(np.isfinite(sum_press))
    notes = list(anova.notes)
    pairwise_p: dict[int, float] = {}
    candidates = []
    if anova.significant:
        means = anova.group_means
        sizes = anova.group_sizes
        worst = valid_cols[np.argmax(means[valid_cols])]
        mse = anova.sse / anova.df_error
        for m in valid_cols:
            if m == worst or not means[m] < means[worst]:
                continue
            if mse == 0.0:
                p_pair = 0.0
            else:
                t_sq = (means[worst] - means[m]) ** 2 / (
                    mse * (1.0 / sizes[m] + 1.0 / sizes[worst])
                )
                p_pair = 1.0 - f_cdf(t_sq, 1, anova.df_error)
            if p_pair < alpha:
                candidates.append(m)
                pairwise_p[int(m) + 1] = p_pair
        if not candidates:
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

    if candidates:
        cand = np.asarray(candidates)
        rank_error = _stable_ranks(anova.group_means[cand])
        rank_signif = _stable_ranks(
            np.asarray([pairwise_p[int(m) + 1] for m in cand]))
        rank_sum = rank_error + rank_signif
        # ties broken toward fewer components (cheaper, less overfit-prone)
        best = cand[min(range(len(cand)), key=lambda n: (rank_sum[n], cand[n]))]
    else:
        best = valid_cols[np.argmin(sum_press[valid_cols])]
    return PcVerdict(
        significant=bool(candidates), optimal_pc=int(best) + 1,
        candidate_set=tuple(int(m) + 1 for m in candidates),
        sum_press=sum_press, boxplot=tuple(boxplot_stats(press_matrix)),
        anova=anova, pairwise_p=pairwise_p, notes=tuple(notes),
    )
