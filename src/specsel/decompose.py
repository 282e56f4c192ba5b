"""Principal component extraction and projection.

``centered_svd``, the one factorization of ``pca_fit`` and of the folds of
``crossval``, centres a set with one thin SVD: O(i^2 j) for wide data (i
spectra << j channels), with no iteration to converge. ``nipals_fit``
extracts the same components one at a time by power iteration and is kept
as an independent iterative reference. ``usable_components`` is the one
rule, relative to the data, for how many components any fit may use, and
``unit_scaled`` the one power-of-two scale of its norms, of ``pca_fit``
and the folds of ``crossval``, of the ``snv`` and ``rnv`` steps and
``despike``'s edge windows, of ``baseline_als``'s solves, and of the
significance gate's groups.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AxisMismatch, BadOrder, NoConvergence, NonFiniteValue
from .spectra import ROW_BLOCK, SpectraSet, _set_arrays

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 500
RANK_EPS = 1e-12
MAX_CONDITION = 1e6


@dataclass(frozen=True)
class PcaModel:
    """Centered decomposition X = scores @ loadings.T + residual.

    loadings columns are unit-norm and mutually orthogonal; each column's
    largest-magnitude entry is positive so refits are bit-comparable. The
    scores columns must be mutually orthogonal too, as pcr_fit reads each
    alone: pca_fit's are to about 1e-16, nipals_fit's only within its tol.
    A set with fewer usable components than asked for gives only those.
    """

    axis: np.ndarray
    mean_spectrum: np.ndarray
    loadings: np.ndarray            # j x k
    scores: np.ndarray              # i x k

    def __post_init__(self):
        j = np.size(self.axis)
        k = np.shape(self.loadings)[1] if np.ndim(self.loadings) == 2 else 0
        _set_arrays(self, {"axis": (j,), "mean_spectrum": (j,), "loadings": (j, k),
                           "scores": (*np.shape(self.scores)[:1], k)})

    @property
    def n_components(self) -> int:
        return self.loadings.shape[1]


def _signed_model(spectra: SpectraSet, mean_spectrum: np.ndarray,
                  loadings: np.ndarray, scores: np.ndarray) -> PcaModel:
    """PcaModel with each loading's largest-magnitude entry made positive,
    flipping its scores with it (the sign convention of both fits)."""
    n = loadings.shape[1]
    signs = np.sign(loadings[np.argmax(np.abs(loadings), axis=0), np.arange(n)])
    return PcaModel(spectra.axis, mean_spectrum, loadings * signs, scores * signs)


def _check_order(spectra: SpectraSet, k: int) -> None:
    i, j = spectra.matrix.shape
    if not 1 <= k <= min(i - 1, j):
        raise BadOrder(
            f"component count must satisfy 1 <= k <= min(i-1, j) = "
            f"{min(i - 1, j)}, got {k}"
        )


def usable_components(singulars: np.ndarray, data_norm=0.0) -> np.ndarray:
    """How many leading components, from descending singular values along
    the last axis, a fit may use: none if the first is at most RANK_EPS x
    data_norm (the norm before centering bounds the rounding it leaves),
    else those whose condition number is within MAX_CONDITION and whose
    singular value is a normal float (a subnormal one has lost its relative
    precision, and its reciprocal overflows; an infinite one, a norm past
    the float range, has a reciprocal of 0).
    data_norm broadcasts against singulars[..., :1]."""
    first = singulars[..., :1]
    return np.sum((first > RANK_EPS * data_norm)
                  & (first <= MAX_CONDITION * singulars)
                  & (singulars >= np.finfo(float).tiny)
                  & np.isfinite(singulars), axis=-1)


def _unit_exponent(x: np.ndarray, axis=None) -> np.ndarray:
    """e, 2^e being the power of two at or above max|x| over axis (e keeps
    length-1 axes, and is 0 where that maximum is 0)."""
    return np.frexp(np.max(np.abs(x), axis=axis, keepdims=True))[1]


def unit_scaled(x: np.ndarray, axis=None):
    """(x / 2^e, e) with ``_unit_exponent``'s e: the division brings the
    largest magnitude into [0.5, 1), exactly unless a value underflows.
    ``scaled_norm``, ``snv``, ``rnv``, ``despike``'s edge windows and the
    significance gate scale both ways; ``pca_fit`` and
    ``crossval.loo_press_matrix`` only divide, through ``_fit_scaled``, and
    ``baseline_als``'s solves through that e of each row."""
    e = _unit_exponent(x, axis)
    return np.ldexp(x, -e), e


def _fit_scaled(x: np.ndarray):
    """(x / 2^e, e) for ``pca_fit`` and the folds of ``crossval``, with the
    e of ``unit_scaled`` over all of x floored at 0. A fit divides, which
    is exact: numpy's centring cannot overflow, LAPACK does not rescale
    internally, and every power-of-two scale of a set whose largest |x| is
    at least 1 gives the fit the same bits. It never scales up, so
    subnormal intensities stay refused."""
    unit, e = unit_scaled(x)
    return (unit, e.item()) if e > 0 else (x, 0)


def scaled_norm(x: np.ndarray, axis=None) -> np.ndarray:
    """Frobenius norm of x over axis, as 2^e |x / 2^e| with ``unit_scaled``:
    the squares neither overflow for huge values nor underflow for tiny
    ones, and the result is np.linalg.norm's to the bit wherever that does
    not overflow or underflow."""
    unit, e = unit_scaled(x, axis)
    return np.squeeze(np.ldexp(np.linalg.norm(unit, axis=axis, keepdims=True),
                               e), axis)


def centered_svd(rows: np.ndarray, k: int):
    """Thin SVD of rows (... x i x j), a set or a stack, each centred on its
    mean row: (means, u, the first k singular values, vt, the count of them
    ``usable_components`` allows by the norm of the uncentred rows)."""
    means = rows.mean(axis=-2, keepdims=True)
    u, singulars, vt = np.linalg.svd(rows - means, full_matrices=False)
    singulars = singulars[..., :k]
    usable = usable_components(
        singulars, scaled_norm(rows, axis=(-2, -1))[..., None])
    return means, u, singulars, vt, usable


def pca_fit(spectra: SpectraSet, k: int) -> PcaModel:
    """Leading k principal components of the centered set, from
    centered_svd of the set divided by ``_fit_scaled``'s 2^e, cut to the
    usable ones; the mean spectrum and scores are multiplied back by 2^e.
    Sign as in nipals_fit. NonFiniteValue if a score passes the float
    range."""
    _check_order(spectra, k)
    matrix, e = _fit_scaled(spectra.matrix)
    means, u, singulars, vt, n = centered_svd(matrix, k)
    with np.errstate(over="ignore"):  # refused below
        scores = np.ldexp(u[:, :n] * singulars[:n], e)
    if not np.isfinite(scores).all():
        raise NonFiniteValue("intensities too large: scores pass the float range")
    return _signed_model(spectra, np.ldexp(means[0], e), vt[:n].T, scores)


def nipals_fit(spectra: SpectraSet, k: int, tol: float = DEFAULT_TOL,
               max_iter: int = DEFAULT_MAX_ITER) -> PcaModel:
    """Extract the leading k principal components of the centered set.

    Raises BadOrder for tol <= 0 or max_iter < 10, and NoConvergence if a
    component fails to settle within max_iter iterations. If the residual
    norm falls below RANK_EPS relative to the uncentered matrix before k
    components are found, the model keeps the components found so far.
    """
    _check_order(spectra, k)
    i, j = spectra.matrix.shape
    if tol <= 0:
        raise BadOrder(f"tol must be > 0, got {tol}")
    if max_iter < 10:
        raise BadOrder(f"max_iter must be >= 10, got {max_iter}")

    mean_spectrum = spectra.matrix.mean(axis=0)
    residual = spectra.matrix - mean_spectrum
    floor = RANK_EPS * np.linalg.norm(spectra.matrix)

    loadings = np.zeros((j, k))
    scores = np.zeros((i, k))
    n_done = 0

    for comp in range(k):
        if np.linalg.norm(residual) < floor:
            break
        t = residual[:, int(np.argmax(residual.var(axis=0)))].copy()
        converged = False
        for _ in range(max_iter):
            p = residual.T @ t
            p /= np.linalg.norm(p)
            t_new = residual @ p
            if np.linalg.norm(t_new - t) <= tol * np.linalg.norm(t_new):
                t = t_new
                converged = True
                break
            t = t_new
        if not converged:
            raise NoConvergence(
                f"component {comp + 1} did not converge within {max_iter} "
                f"iterations (tol {tol:g})",
                component=comp + 1,
            )
        # deflation is sign-blind, so the sign is fixed once at the end
        residual = residual - np.outer(t, p)
        loadings[:, comp] = p
        scores[:, comp] = t
        n_done += 1

    return _signed_model(spectra, mean_spectrum, loadings[:, :n_done],
                         scores[:, :n_done])


def project(model, new_set: SpectraSet) -> np.ndarray:
    """Scores of new spectra in the basis of a PcaModel or PcrModel:
    (x - mean_spectrum) @ loadings for each spectrum x, on the model's axis.

    Each spectrum is its own (1 x j) @ (j x k) product, so its scores have
    the same bits whatever other spectra come with it, and the centred
    spectra exist only ``ROW_BLOCK`` rows at a time.
    """
    if new_set.axis.shape != model.axis.shape or not np.array_equal(
            new_set.axis, model.axis):
        raise AxisMismatch(
            "new spectra are not on the model's training axis"
        )
    matrix = new_set.matrix
    scores = np.empty((matrix.shape[0], model.loadings.shape[1]))
    for start in range(0, matrix.shape[0], ROW_BLOCK):
        # one expression, so each block's centred copy is freed before the
        # next is made
        block = slice(start, start + ROW_BLOCK)
        scores[block] = ((matrix[block] - model.mean_spectrum)[:, None, :]
                         @ model.loadings)[:, 0]
    return scores

