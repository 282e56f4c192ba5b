"""Spectral pre-treatment operations and their composition into pipelines.

Every operation takes one spectrum or an i x j matrix of spectra (one per
row, plus the axis where it matters); a single spectrum is the one-row case
of the same code. Rows never influence each other, and ``_as_rows`` alone
turns the input into the C-ordered float rows every operation works on
(and gives back the shape its output takes), so ``apply_pipeline`` runs
each step once on a block of rows and gets the bits a row-by-row loop
would. ``snv`` and ``rnv`` are scale-free over the float range: each first
brings every row's largest magnitude into [0.5, 1) by a power of two
(``decompose.unit_scaled``), which is exact, so a power-of-two scale of a
spectrum changes none of their output bits and no square of a deviation
overflows; ``despike`` takes its edge medians the same way, and
``baseline_als`` its solves, dividing only. The second
difference (1, -2, 1) of ``derivative`` and of the ``baseline_als``
penalty is written once in each.

Pipelines have a canonical text form, ``step(arg,...)|step(arg,...)``,
e.g. ``baseline_als(100000,0.01,10)|rnv(75)``; the empty pipeline is
spelled ``identity``. Two pipelines are equal iff their canonical names
are equal.

A step is declared once, in ``_STEPS``: its aliases, its parameters (name,
int or float, default), its range check and how it calls the operation.
Each range check is also the first thing its operation runs, so a bad value
raises the operation's class (``BadOrder``, ``DegenerateSubset``) on a
direct call and ``PipelineSyntaxError`` naming the step when parsed.
A parameter given as text is read by ``float()``, any other value by
``spectra._to_float``, so a bool is refused; every parameter must be a
finite number.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .decompose import _unit_exponent, unit_scaled
from .errors import (
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
from .spectra import ROW_BLOCK, SpectraSet, _to_float


MIN_ALS_CHANNELS = 8


# --- operations on one spectrum or a matrix of spectra -----------------------

def _as_rows(spectrum) -> tuple[np.ndarray, tuple[int, ...]]:
    """``spectrum`` as a C-ordered float matrix with one spectrum per row,
    and the input's shape, which the operation's output takes back.

    Only on C-ordered data does a reduction along axis 1 give each row the
    bits it gets alone, whatever the other rows and the input's layout.
    """
    x = np.asarray(spectrum, dtype=float)
    return np.ascontiguousarray(np.atleast_2d(x)), x.shape


def _rows_on_axis(spectrum, axis):
    """``_as_rows(spectrum)`` and the float ``axis``; NonuniformAxis unless
    the axis has one point per channel."""
    rows, shape = _as_rows(spectrum)
    ax = np.asarray(axis, dtype=float)
    if rows.shape[1] != ax.size:
        raise NonuniformAxis(
            f"{rows.shape[1]} intensities for {ax.size} axis points")
    return rows, shape, ax


def snv(spectrum) -> np.ndarray:
    """Center by the mean and scale by the sample standard deviation."""
    rows, shape = _as_rows(spectrum)
    if rows.shape[1] < 2:
        raise ZeroVariance("need at least 2 points for variate scaling")
    rows, _ = unit_scaled(rows, axis=1)
    sd = rows.std(axis=1, ddof=1, keepdims=True)
    if not sd.all():
        raise ZeroVariance("constant spectrum has no variance to scale by")
    return ((rows - rows.mean(axis=1, keepdims=True)) / sd).reshape(shape)


def _check_rnv(percentile) -> None:
    if not 0.0 < percentile <= 100.0:
        raise DegenerateSubset(f"percentile must be in (0, 100], got {percentile}")


def rnv(spectrum, percentile: float) -> np.ndarray:
    """Percentile-based variant of snv, insensitive to high outliers.

    Centers on the requested percentile (linear interpolation between order
    statistics) and scales by the sample standard deviation of the values at
    or below it. Percentile 100 degenerates to centering on the maximum and
    scaling by the full-vector deviation.
    """
    _check_rnv(percentile)
    rows, shape = _as_rows(spectrum)
    if rows.shape[1] < 2:
        raise DegenerateSubset("need at least 2 points for percentile scaling")
    rows, _ = unit_scaled(rows, axis=1)
    pct = np.percentile(rows, percentile, axis=1, keepdims=True)
    below = rows <= pct
    counts = below.sum(axis=1)
    short = np.flatnonzero(counts < 2)
    if short.size:
        raise DegenerateSubset(
            f"only {counts[short[0]]} point(s) at or below the {percentile} "
            f"percentile"
        )
    # rows with equal subset sizes pack into one dense matrix, whose row
    # deviations have the bits of each subset's own
    sd = np.empty_like(pct)
    for size in np.unique(counts):
        group = counts == size
        subset = rows[group][below[group]].reshape(-1, size)
        sd[group] = subset.std(axis=1, ddof=1, keepdims=True)
    if not sd.all():
        raise DegenerateSubset(
            f"zero spread at or below the {percentile} percentile"
        )
    return ((rows - pct) / sd).reshape(shape)


def _check_savgol(window, polyorder, deriv=0) -> None:
    if not (window % 2 == 1 and window >= 5):
        raise BadOrder(f"window must be odd and >= 5, got {window}")
    if not 0 <= polyorder < window:
        raise BadOrder(f"polyorder must satisfy 0 <= polyorder < window, got {polyorder}")
    if not 0 <= deriv <= polyorder:
        raise BadOrder(f"deriv must satisfy 0 <= deriv <= polyorder, got {deriv}")
    # the operator divides by (window // 2) ** deriv, which this bounds as
    # deriv <= polyorder; float powers raise rather than overflow to inf
    try:
        float(window // 2) ** polyorder
    except OverflowError:
        raise BadOrder(f"window {window} and polyorder {polyorder} overflow "
                       f"the fit: (window // 2) ** polyorder is not a "
                       f"finite float") from None


def savitzky_golay(spectrum, window: int, polyorder: int, deriv: int = 0,
                   delta: float = 1.0) -> np.ndarray:
    """Moving-window least-squares polynomial smoothing / differentiation
    (Savitzky & Golay, 1964), edges included (Gorry, 1990).

    One ``window x window`` operator does it all: its row h maps a window
    of samples to the deriv-th derivative, divided by ``delta**deriv`` (the
    channel spacing), of the polynomial fitted to that window, at offset
    ``h - window // 2`` from the window's centre. Interior channels take the
    middle row on their centred window; the first and last ``window // 2``
    channels take the first and last rows on the first and last full
    window, so the output keeps the input length. NonuniformAxis unless
    ``delta ** deriv`` is a normal positive float.
    """
    _check_savgol(window, polyorder, deriv)
    _check_spacing(delta, deriv)
    rows, shape = _as_rows(spectrum)
    j = rows.shape[1]
    if window > j:
        raise WindowTooLarge(f"window {window} exceeds {j} channels")

    half = window // 2
    # the fit is in u = offset / half, whose powers stay within [-1, 1]
    design = np.vander(np.arange(-half, half + 1) / half, polyorder + 1,
                       increasing=True)
    # pinv(design) maps a window to its fit's coefficients c; slopes[h] @ c
    # is the fit's deriv-th derivative in u at offset h - half, as the
    # deriv-th derivative of u**m is perm(m, deriv) * u**(m - deriv)
    slopes = design[:, :polyorder + 1 - deriv] * [
        math.perm(m, deriv) for m in range(deriv, polyorder + 1)]
    try:
        operator = (slopes @ np.linalg.pinv(design)[deriv:] / half ** deriv
                    / delta ** deriv)
    except np.linalg.LinAlgError as exc:
        raise BadOrder(f"window {window} and polyorder {polyorder} give no "
                       f"least-squares fit ({exc})") from exc

    out = np.empty_like(rows)
    windows = np.lib.stride_tricks.sliding_window_view(rows, window, axis=1)
    out[:, half:j - half] = windows @ operator[half]
    # one matrix-vector product per row, as for a single spectrum
    out[:, :half] = (operator[:half] @ rows[:, :window, None])[..., 0]
    out[:, j - half:] = (operator[half + 1:]
                         @ rows[:, j - window:, None])[..., 0]
    return out.reshape(shape)


def _check_spacing(h: float, order: int) -> None:
    """NonuniformAxis unless ``h ** order``, by which a derivative of that
    order divides, is a normal positive float: a spacing so fine that the
    power underflows, or so coarse that it overflows, would turn every
    output non-finite."""
    try:
        power = float(h) ** order
    except OverflowError:
        power = math.inf
    if not sys.float_info.min <= power < math.inf:
        raise NonuniformAxis(
            f"channel spacing {h:g} to the power {order} is not a normal "
            f"positive float")


def _uniform_spacing(axis: np.ndarray) -> float:
    if axis.size < 2:
        raise WindowTooLarge(f"spacing needs >= 2 channels, got {axis.size}")
    steps = np.diff(axis)
    mean_step = steps.mean()
    if mean_step <= 0:
        raise NonuniformAxis("axis must be increasing")
    if (steps.max() - steps.min()) > 1e-3 * mean_step:
        raise NonuniformAxis(
            "channel spacing varies by more than 0.1%; differentiation "
            "requires a uniform axis"
        )
    return float(mean_step)


def _check_derivative(order) -> None:
    if order not in (1, 2):
        raise BadOrder(f"derivative order must be 1 or 2, got {order}")


def derivative(spectrum, axis, order: int) -> np.ndarray:
    """Finite-difference derivative along the wavenumber axis.

    Central differences at interior points. At the two edges order 1 is
    one-sided and order 2 takes its neighbour's value, which the one-sided
    three-point stencil gives there. Order 1 removes a constant baseline,
    order 2 a linear one.
    WindowTooLarge below ``order + 1`` channels; NonuniformAxis unless the
    axis is uniform and increasing, with a spacing whose power ``order`` is
    a normal positive float.
    """
    _check_derivative(order)
    rows, shape, ax = _rows_on_axis(spectrum, axis)
    if rows.shape[1] <= order:
        raise WindowTooLarge(f"derivative of order {order} needs >= "
                             f"{order + 1} channels, got {rows.shape[1]}")
    h = _uniform_spacing(ax)
    _check_spacing(h, order)
    if order == 1:
        return np.gradient(rows, h, axis=1, edge_order=1).reshape(shape)
    out = np.empty_like(rows)
    # a stencil past the float range gives a non-finite output, which a
    # SpectraSet refuses
    with np.errstate(over="ignore", invalid="ignore"):
        out[:, 1:-1] = (rows[:, :-2] - 2.0 * rows[:, 1:-1] + rows[:, 2:]) / h ** 2
    out[:, 0], out[:, -1] = out[:, 1], out[:, -2]
    return out.reshape(shape)


def _second_difference_bands(j: int, lam: float) -> np.ndarray:
    """``lam * D @ D.T`` in LAPACK's lower band storage, for the j x (j-2)
    second difference D, whose column c holds the stencil (1, -2, 1) at
    channels c to c + 2: row d is the d-th subdiagonal, the sum over the
    j - 2 columns of stencil[k] * stencil[k + d] at channel c + k. The
    unused trailing corner cells are 0."""
    stencil = (1.0, -2.0, 1.0)
    bands = np.zeros((3, j))
    for k, a in enumerate(stencil):
        for d, b in enumerate(stencil[k:]):
            bands[d, k:k + j - 2] += a * b
    return lam * bands


def _check_baseline_als(lam, p, iterations) -> None:
    if not lam > 0:
        raise BadOrder(f"lambda must be > 0, got {lam}")
    if not 0.0 < p < 1.0:
        raise BadOrder(f"asymmetry p must be in (0, 1), got {p}")
    if not iterations >= 1:
        raise BadOrder(f"iterations must be >= 1, got {iterations}")


def baseline_als(spectrum, lam: float = 1e5, p: float = 0.01,
                 iterations: int = 10) -> tuple[np.ndarray, np.ndarray]:
    """Asymmetric least-squares baseline estimate (Eilers & Boelens, 2005).

    Smoothness comes from a second-difference penalty (weight ``lam``);
    points above the running estimate get the small weight ``p`` so the
    baseline hugs the bottom of the spectrum. Each of the ``iterations``
    solves the pentadiagonal system ``(W + lam * D @ D.T) z = W x`` by one
    banded Cholesky driver, ``scipy.linalg.solveh_banded`` (LAPACK pbsv),
    given every system in lower band storage: row d holds the d-th
    subdiagonal, so the factorization's vectors are unit-stride.

    Every row starts active with the unit weight 1.0, so the first solve
    factors ``I + lam * D @ D.T`` once and takes the rows as its right-hand
    sides. Each later pass first computes every active row's new weights
    from its last solve and drops the rows at their fixed point, whose new
    weights equal the weights they were solved with, since every later
    solve would repeat that one bit for bit. It then solves the rows still
    moving as one block-diagonal banded system: the zero trailing corner
    cells of each row's bands decouple it from the row after. That system
    is built as a C-ordered (rows, channels, 3) array, which is the
    Fortran-ordered (3, rows * channels) band storage LAPACK takes, so it
    is factored in place, not copied, and the right-hand side becomes the
    solution. Both live in buffers allocated once per call for all the
    rows, of which each solve fills the leading ones. Each row is solved
    divided by its own power of two (``decompose._unit_exponent``, never
    scaling up) and its solutions multiplied back, which is exact, so no
    sum of a solve overflows near the float maximum.
    Returns (corrected, baseline). BadOrder names ``lam`` and ``p`` when
    rounding leaves a system not positive definite.
    """
    _check_baseline_als(lam, p, iterations)
    rows, shape = _as_rows(spectrum)
    i, j = rows.shape
    if j < MIN_ALS_CHANNELS:
        raise WindowTooLarge(
            f"baseline estimation needs >= {MIN_ALS_CHANNELS} channels, got {j}"
        )
    # imported here: scipy.linalg costs a process about 28 MB and a quarter
    # of a second, which no pipeline without this step needs
    from scipy.linalg import solveh_banded

    penalty = _second_difference_bands(j, lam)
    unit = penalty.copy()
    unit[0] += 1.0
    # each reweighted system is filled from this C-ordered copy: from the
    # strided penalty.T view, the fill takes several times as long
    template = np.ascontiguousarray(penalty.T)
    # one system and right-hand side for every reweighted solve, of which
    # each takes the leading rows: a C-ordered prefix, so still LAPACK's
    # band storage
    bands, rhs = np.empty((i, j, 3)), np.empty((i, j))
    e = np.maximum(_unit_exponent(rows, axis=1), 0)
    try:
        # the right-hand sides are the columns of the scaled rows' .T, so
        # the solution's transpose is C-ordered with one baseline per row
        baseline = solveh_banded(unit, np.ldexp(rows, -e).T,
                                 overwrite_ab=True, overwrite_b=True,
                                 lower=True, check_finite=False).T
        np.ldexp(baseline, e, out=baseline)
        # every row starts active, with the unit weight and its first solve
        active, weights, targets, solved = np.arange(i), 1.0, rows, baseline
        for _ in range(iterations - 1):
            new_weights = np.where(targets > solved, p, 1.0 - p)
            moving = (new_weights != weights).any(axis=1)
            active, weights = active[moving], new_weights[moving]
            if not active.size:
                break
            targets = rows[active]
            # row k's bands transposed in system[k]: LAPACK's lower band
            # storage
            system = bands[:active.size]
            system[:] = template
            system[:, :, 0] += weights
            scaled = np.multiply(weights, targets, out=rhs[:active.size])
            np.ldexp(scaled, -e[active], out=scaled)
            solved = solveh_banded(
                system.reshape(-1, 3).T, scaled.ravel(),
                overwrite_ab=True, overwrite_b=True, lower=True,
                check_finite=False).reshape(-1, j)
            baseline[active] = np.ldexp(solved, e[active], out=solved)
    except np.linalg.LinAlgError as exc:
        raise BadOrder(f"lambda {lam:g} and p {p:g} give a baseline system "
                       f"that is not positive definite ({exc})") from exc
    return (rows - baseline).reshape(shape), baseline.reshape(shape)


def _check_despike(window, threshold) -> None:
    if not (window % 2 == 1 and window >= 3):
        raise BadOrder(f"window must be odd and >= 3, got {window}")
    if not threshold > 0:
        raise BadOrder(f"threshold must be > 0, got {threshold}")


def despike(spectrum, window: int = 7, threshold: float = 8.0) -> np.ndarray:
    """Replace cosmic-ray spikes by the running median.

    A point is a spike when it sits more than ``threshold`` local MADs away
    from the running median of its window; everything else is passed through
    bit-identically. Windows are truncated at the edges. An edge window may
    have an even size, whose median is the mean of its two middle values,
    so its median and MAD are taken of it divided by ``unit_scaled``'s 2^e,
    which is exact and keeps that mean in the float range, and multiplied
    back.
    """
    _check_despike(window, threshold)
    rows, shape = _as_rows(spectrum)
    j = rows.shape[1]
    half = window // 2
    medians = np.empty_like(rows)
    mads = np.empty_like(rows)
    if j >= window:
        win = np.lib.stride_tricks.sliding_window_view(rows, window, axis=1)
        med = np.median(win, axis=2)
        medians[:, half:j - half] = med
        mads[:, half:j - half] = np.median(np.abs(win - med[..., None]), axis=2)
    for n in list(range(min(half, j))) + list(range(max(j - half, 0), j)):
        win, e = unit_scaled(rows[:, max(0, n - half):n + half + 1], axis=1)
        med = np.median(win, axis=1)
        medians[:, n] = np.ldexp(med, e[:, 0])
        mads[:, n] = np.ldexp(np.median(np.abs(win - med[:, None]), axis=1), e[:, 0])
    spikes = np.abs(rows - medians) > threshold * mads
    out = rows.copy()
    out[spikes] = medians[spikes]
    return out.reshape(shape)


def _check_peak_normalize(reference_wavenumber, half_width) -> None:
    if not half_width > 0:
        raise BadOrder(f"half_width must be > 0, got {half_width}")


def peak_normalize(spectrum, axis, reference_wavenumber: float,
                   half_width: float = 10.0) -> np.ndarray:
    """Scale so the maximum inside the reference-peak window becomes 1."""
    _check_peak_normalize(reference_wavenumber, half_width)
    rows, shape, ax = _rows_on_axis(spectrum, axis)
    lo, hi = reference_wavenumber - half_width, reference_wavenumber + half_width
    if not ax.size:
        raise WindowOutsideAxis(f"empty axis for window [{lo:g}, {hi:g}] cm-1")
    if lo < ax[0] or hi > ax[-1]:
        raise WindowOutsideAxis(
            f"window [{lo:g}, {hi:g}] cm-1 not inside axis "
            f"[{ax[0]:g}, {ax[-1]:g}] cm-1"
        )
    mask = (ax >= lo) & (ax <= hi)
    if not mask.any():
        raise WindowOutsideAxis(
            f"no channel inside window [{lo:g}, {hi:g}] cm-1"
        )
    peak = rows[:, mask].max(axis=1, keepdims=True)
    low = np.flatnonzero(peak[:, 0] <= 0)
    if low.size:
        raise NonpositivePeak(
            f"maximum inside window [{lo:g}, {hi:g}] cm-1 is "
            f"{peak[low[0], 0]:.6g}"
        )
    return (rows / peak).reshape(shape)


# --- pipeline steps -------------------------------------------------------------

def _fmt_param(value) -> str:
    if isinstance(value, int) or (value.is_integer() and abs(value) < 1e16):
        return str(int(value))
    return repr(value)


@dataclass(frozen=True)
class PipelineStep:
    """One validated preprocessing step; params are positional and typed.

    The kind may be an alias, trailing defaulted params may be left out and
    each param may be a number or its text: construction resolves the
    first two through ``_STEPS``, converts each param to its declared type
    and runs the step's range check. So it raises the PipelineSyntaxError
    of any step ``parse_pipeline`` refuses, naming the parameter for a
    value that is not a finite number of its type.
    """

    kind: str
    params: tuple

    def __post_init__(self):
        name = self.kind.strip().lower()
        kind = next((k for k, s in _STEPS.items() if name in (k, *s.aliases)),
                    None)
        if kind is None:
            raise PipelineSyntaxError(f"unknown preprocessing step {name!r}")
        spec, args = _STEPS[kind], tuple(self.params)
        required = sum(default is _REQUIRED for _, _, default in spec.params)
        if not required <= len(args) <= len(spec.params):
            signature = ", ".join(
                n if default is _REQUIRED else f"[{n}]"
                for n, _, default in spec.params)
            raise PipelineSyntaxError(f"{kind} takes ({signature})")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "params", tuple(
            _coerce(kind, n, type_, args[k] if k < len(args) else default)
            for k, (n, type_, default) in enumerate(spec.params)))
        try:
            if spec.check:
                spec.check(*self.params)
        except SpecselError as exc:
            raise PipelineSyntaxError(f"step {self.name}: {exc}") from exc

    @property
    def name(self) -> str:
        if not self.params:
            return self.kind
        return f"{self.kind}({','.join(_fmt_param(v) for v in self.params)})"

    def apply(self, intensities: np.ndarray, axis: np.ndarray) -> np.ndarray:
        return _STEPS[self.kind].call(intensities, axis, self.params)


_REQUIRED = object()


class _Step(NamedTuple):
    aliases: tuple[str, ...]
    params: tuple[tuple[str, type, object], ...]  # (name, int|float, default)
    check: Callable[..., None] | None             # the operation's range rule
    call: Callable[[np.ndarray, np.ndarray, tuple], np.ndarray]


# every step the pipeline grammar knows; the calls look each operation up
# by its module name when they run, so a wrapper bound to that name (as a
# tracer binds one) sees every step call
_STEPS = {
    "snv": _Step((), (), None, lambda x, ax, p: snv(x)),
    "rnv": _Step((), (("percentile", float, _REQUIRED),), _check_rnv,
                 lambda x, ax, p: rnv(x, *p)),
    "savgol": _Step(
        ("savitzky_golay", "sg"),
        (("window", int, _REQUIRED), ("polyorder", int, _REQUIRED),
         ("deriv", int, 0)),
        # deriv 0 is never scaled by the spacing, so it needs no uniform axis
        _check_savgol, lambda x, ax, p: savitzky_golay(
            x, *p, delta=_uniform_spacing(ax) if p[2] else 1.0)),
    "derivative": _Step((), (("order", int, _REQUIRED),), _check_derivative,
                        lambda x, ax, p: derivative(x, ax, *p)),
    "baseline_als": _Step(
        (), (("lambda", float, 1e5), ("p", float, 0.01),
             ("iterations", int, 10)),
        _check_baseline_als, lambda x, ax, p: baseline_als(x, *p)[0]),
    "despike": _Step((), (("window", int, 7), ("threshold", float, 8.0)),
                     _check_despike, lambda x, ax, p: despike(x, *p)),
    "peak_normalize": _Step(
        (), (("reference_wavenumber", float, _REQUIRED),
             ("half_width", float, 10.0)),
        _check_peak_normalize, lambda x, ax, p: peak_normalize(x, ax, *p)),
}


def _coerce(kind: str, name: str, type_: type, value):
    # text, as the pipeline grammar gives, is read by float(); any other
    # value by the rule of specsel's JSON files, which makes a bool NaN
    try:
        f = float(value) if isinstance(value, str) else _to_float(value)
    except ValueError:
        f = math.nan
    if not math.isfinite(f):
        raise PipelineSyntaxError(
            f"{kind} {name} must be a finite number, got {value!r}")
    if type_ is float:
        return f
    if not f.is_integer():
        raise PipelineSyntaxError(f"{kind} {name} must be an integer, got {value!r}")
    return int(f)


@dataclass(frozen=True)
class Pipeline:
    """Ordered preprocessing steps with a canonical, parseable name."""

    steps: tuple[PipelineStep, ...] = ()

    @property
    def name(self) -> str:
        if not self.steps:
            return "identity"
        return "|".join(step.name for step in self.steps)

    def __str__(self) -> str:
        return self.name


IDENTITY = Pipeline(())


def parse_pipeline(text: str) -> Pipeline:
    """Parse ``step(arg,...)|step(arg,...)`` (case-insensitive) or ``identity``."""
    body = text.strip()
    if not body:
        raise PipelineSyntaxError("empty pipeline description")
    if body.lower() == "identity":
        return IDENTITY
    steps = []
    for part in body.split("|"):
        part = part.strip()
        if not part:
            raise PipelineSyntaxError(f"empty step in pipeline {text!r}")
        if "(" in part:
            if not part.endswith(")"):
                raise PipelineSyntaxError(f"unbalanced parentheses in step {part!r}")
            kind, arg_text = part[:-1].split("(", 1)
            args = (tuple(a.strip() for a in arg_text.split(","))
                    if arg_text.strip() else ())
        else:
            kind, args = part, ()
        steps.append(PipelineStep(kind, args))
    return Pipeline(tuple(steps))


def apply_pipeline(spectra: SpectraSet, pipeline: Pipeline) -> SpectraSet:
    """Apply the steps in order to every spectrum; the axis never changes.

    Each step runs once per block of ``ROW_BLOCK`` rows, into one output
    matrix that the new set keeps as its own rather than copying. The error
    raised is the one a spectrum-by-spectrum loop meets first: that of the
    first spectrum in row order that fails, at its first failing step, with
    the spectrum label and step name attached.
    """
    if not pipeline.steps:
        return spectra
    out = np.empty(spectra.matrix.shape)
    for start in range(0, spectra.n_spectra, ROW_BLOCK):
        stop = min(start + ROW_BLOCK, spectra.n_spectra)
        block = spectra.matrix[start:stop]
        try:
            for step in pipeline.steps:
                block = step.apply(block, spectra.axis)
        except SpecselError:
            _raise_first_failure(spectra, pipeline, range(start, stop))
            raise
        out[start:stop] = block
    return spectra._adopt_matrix(out)


def _raise_first_failure(spectra: SpectraSet, pipeline: Pipeline,
                         indices: range) -> None:
    """Run the steps spectrum by spectrum to raise the first error exactly."""
    for n in indices:
        row = spectra.matrix[n]
        for step in pipeline.steps:
            try:
                row = step.apply(row, spectra.axis)
            except SpecselError as exc:
                raise type(exc)(
                    f"spectrum {spectra.labels[n]!r}, step {step.name}: {exc}"
                ) from exc
