"""Principal component extraction and projection.

``pca_fit`` decomposes the centered set with one thin SVD: O(i^2 j) for wide
data (i spectra << j channels), with no iteration to converge. ``nipals_fit``
extracts the same components one at a time by power iteration and is kept
as an independent iterative reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AxisMismatch, BadOrder, NoConvergence
from .spectra import SpectraSet

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 500
RANK_EPS = 1e-12


@dataclass(frozen=True)
class PcaModel:
    """Centered decomposition X = scores @ loadings.T + residual.

    loadings columns are unit-norm and mutually orthogonal; each column's
    largest-magnitude entry is positive so refits are bit-comparable.
    ``rank_deficient`` is set when the residual ran out before the requested
    component count was reached (the model is truncated, not an error).
    """

    axis: np.ndarray
    mean_spectrum: np.ndarray
    loadings: np.ndarray            # j x k
    scores: np.ndarray              # i x k
    explained_variance: np.ndarray  # k
    residual_fro: float
    total_center_ss: float
    rank_deficient: bool = False

    @property
    def n_components(self) -> int:
        return self.loadings.shape[1]


def _fix_sign(loading: np.ndarray, score: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    peak = int(np.argmax(np.abs(loading)))
    if loading[peak] < 0:
        return -loading, -score
    return loading, score


def _check_order(spectra: SpectraSet, k: int) -> None:
    i, j = spectra.matrix.shape
    if not 1 <= k <= min(i - 1, j):
        raise BadOrder(
            f"component count must satisfy 1 <= k <= min(i-1, j) = "
            f"{min(i - 1, j)}, got {k}"
        )


def rank_cut(singulars: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """From descending singular values along the last axis: how many of the
    leading k components leave a residual of at least RANK_EPS x max(norm, 1)
    before them, and the residual norms tail[..., c] after c components."""
    tail = np.sqrt(np.cumsum(singulars[..., ::-1] ** 2, axis=-1)[..., ::-1])
    tail = np.concatenate([tail, np.zeros_like(tail[..., :1])], axis=-1)
    return np.sum(tail[..., :k] >= RANK_EPS * np.maximum(tail[..., :1], 1.0),
                  axis=-1), tail


def pca_fit(spectra: SpectraSet, k: int) -> PcaModel:
    """Leading k principal components of the centered set, from one SVD.

    Rank cut (RANK_EPS, rank_deficient) and sign convention match nipals_fit.
    """
    _check_order(spectra, k)
    mean_spectrum = spectra.matrix.mean(axis=0)
    centered = spectra.matrix - mean_spectrum
    total_ss = float(np.sum(centered * centered))
    u, singulars, vt = np.linalg.svd(centered, full_matrices=False)
    kept, tail = rank_cut(singulars, k)
    n = int(kept)
    loadings = vt[:n].T
    signs = np.sign(loadings[np.argmax(np.abs(loadings), axis=0), np.arange(n)])
    explained = singulars[:n] ** 2 / total_ss if total_ss > 0 else np.zeros(n)
    return PcaModel(
        axis=spectra.axis,
        mean_spectrum=mean_spectrum,
        loadings=np.ascontiguousarray(loadings * signs),
        scores=u[:, :n] * (singulars[:n] * signs),
        explained_variance=explained,
        residual_fro=float(tail[n]),
        total_center_ss=total_ss,
        rank_deficient=n < k,
    )


def nipals_fit(spectra: SpectraSet, k: int, tol: float = DEFAULT_TOL,
               max_iter: int = DEFAULT_MAX_ITER) -> PcaModel:
    """Extract the leading k principal components of the centered set.

    Raises NoConvergence if a component fails to settle within max_iter
    iterations. If the residual norm falls below RANK_EPS relative to the
    centered matrix before k components are found, the model is truncated
    and flagged rank_deficient.
    """
    _check_order(spectra, k)
    i, j = spectra.matrix.shape
    if tol <= 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    if max_iter < 10:
        raise ValueError(f"max_iter must be >= 10, got {max_iter}")

    mean_spectrum = spectra.matrix.mean(axis=0)
    residual = spectra.matrix - mean_spectrum
    total_ss = float(np.sum(residual * residual))
    norm0 = np.sqrt(total_ss)

    loadings = np.zeros((j, k))
    scores = np.zeros((i, k))
    explained = np.zeros(k)
    rank_deficient = False
    n_done = 0

    for comp in range(k):
        if np.linalg.norm(residual) < RANK_EPS * max(norm0, 1.0):
            rank_deficient = True
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
        p, t = _fix_sign(p, t)
        residual = residual - np.outer(t, p)
        loadings[:, comp] = p
        scores[:, comp] = t
        explained[comp] = (t @ t) / total_ss if total_ss > 0 else 0.0
        n_done += 1

    return PcaModel(
        axis=spectra.axis,
        mean_spectrum=mean_spectrum,
        loadings=loadings[:, :n_done],
        scores=scores[:, :n_done],
        explained_variance=explained[:n_done],
        residual_fro=float(np.linalg.norm(residual)),
        total_center_ss=total_ss,
        rank_deficient=rank_deficient,
    )


def project(model: PcaModel, new_set: SpectraSet) -> np.ndarray:
    """Scores of new spectra in the model basis: (X - mean) @ loadings."""
    if new_set.axis.shape != model.axis.shape or not np.array_equal(
            new_set.axis, model.axis):
        raise AxisMismatch(
            "new spectra are not on the model's training axis"
        )
    return (new_set.matrix - model.mean_spectrum) @ model.loadings


def truncate(model: PcaModel, m: int) -> PcaModel:
    """Model restricted to its leading m components."""
    if not 1 <= m <= model.n_components:
        raise BadOrder(
            f"truncation must satisfy 1 <= m <= {model.n_components}, got {m}"
        )
    if m == model.n_components:
        return model
    kept_ss = float(np.sum(model.scores[:, :m] ** 2))
    residual_sq = max(model.total_center_ss - kept_ss, 0.0)
    # contiguous copies: strided slices can take a different BLAS path and
    # break bit-reproducibility against a direct m-component fit
    return PcaModel(
        axis=model.axis,
        mean_spectrum=model.mean_spectrum,
        loadings=np.ascontiguousarray(model.loadings[:, :m]),
        scores=np.ascontiguousarray(model.scores[:, :m]),
        explained_variance=model.explained_variance[:m],
        residual_fro=float(np.sqrt(residual_sq)),
        total_center_ss=model.total_center_ss,
        rank_deficient=False,
    )
