"""Leave-one-out cross-validation of a (pipeline, PC count) grid.

The set is reduced once to X = R Q^T, Q orthonormal and R i x min(i, j)
(Chan's R-SVD): a fold's centered rows of R have the singular values, left
vectors and held-out scores of its centered spectra. One stacked SVD per
block of folds, coefficients u_k^T y_c / s_k and a cumulative sum give the
held-out squared prediction errors at every PC count. A fold uses the
components ``usable_components`` allows by the norm of its uncentered rows
of R (that of its spectra); the matrix keeps the PC counts every fold can
fit, so it has no missing cell, and each fold that limits it has one note.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decompose import usable_components
from .errors import (
    DegenerateMatrix,
    FoldPreprocessFailure,
    ShapeMismatch,
    SpecselError,
    TooFewSpectra,
)
from .preprocess import Pipeline, apply_pipeline
from .spectra import ConcentrationSet, SpectraSet, _frozen_array

FOLD_BLOCK = 8  # folds per stacked SVD: caps its ~3 x 8 x i x min(i, j) floats


@dataclass(frozen=True)
class PressMatrix:
    """Held-out squared prediction errors, rows = samples, columns = PC counts.

    Column m holds the errors of the (m+1)-component model. Entries are
    finite and non-negative, so every column has one value per fold.
    """

    values: np.ndarray
    pipeline_name: str
    labels: tuple[str, ...]
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise ShapeMismatch(f"PRESS matrix must be 2-D, got {values.shape}")
        if not (np.isfinite(values).all() and (values >= 0).all()):
            raise ShapeMismatch("PRESS values must be finite and non-negative")
        object.__setattr__(self, "values", _frozen_array(values))
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "notes", tuple(self.notes))

    def __array__(self, dtype=None, copy=None):
        return np.array(self.values, dtype=dtype, copy=copy)

    def column_headers(self) -> list[str]:
        return [f"pc_{m + 1}" for m in range(self.values.shape[1])]


def loo_press_matrix(spectra: SpectraSet, conc: ConcentrationSet,
                     pipeline: Pipeline) -> PressMatrix:
    """Leave-one-out PRESS matrix for one preprocessing pipeline.

    Its columns are the PC counts 1..k, k being the fewest components any
    fold may use (at most i - 2); each fold with fewer than i - 2 has one
    note. A fold with none raises DegenerateMatrix.
    """
    i = spectra.n_spectra
    if i < 4:
        raise TooFewSpectra(
            f"leave-one-out over 1..i-2 components needs i >= 4 spectra, got {i}"
        )
    if conc.n_samples != i:
        raise ShapeMismatch(
            f"{conc.n_samples} concentration columns for {i} spectra"
        )

    # every implemented step is per-spectrum, so preprocessing the whole set
    # once is identical to preprocessing each fold separately
    try:
        processed = apply_pipeline(spectra, pipeline)
    except SpecselError as exc:
        raise FoldPreprocessFailure(
            f"pipeline {pipeline.name!r} failed: {exc}"
        ) from exc

    k_max = i - 2
    reduced = np.linalg.qr(processed.matrix.T, mode="r").T
    values = np.empty((i, k_max))
    negative = np.empty((i, k_max), dtype=bool)
    k_fits = []
    for start in range(0, i, FOLD_BLOCK):
        folds = range(start, min(start + FOLD_BLOCK, i))
        train = np.array([[r for r in range(i) if r != n] for n in folds])
        rows = reduced[train]
        mean = rows.mean(axis=1, keepdims=True)
        u, singulars, vt = np.linalg.svd(rows - mean, full_matrices=False)
        held = (reduced[list(folds), None, :] - mean) @ vt.transpose(0, 2, 1)
        y_mean = conc.matrix.T[train].mean(axis=1, keepdims=True)
        fits = u.transpose(0, 2, 1) @ (conc.matrix.T[train] - y_mean)
        # a fold's SVD has min(i - 1, j) singular values, so this keeps
        # min(i - 2, j): no fold may use more than i - 2 components
        kept = usable_components(singulars[:, :k_max],
                                 np.linalg.norm(rows, axis=(1, 2))[:, None])
        for b, n in enumerate(folds):
            k_fit = int(kept[b])
            k_fits.append(k_fit)
            scaled = held[b, 0, :k_fit] / singulars[b, :k_fit]
            estimates = np.cumsum(fits[b, :k_fit] * scaled[:, None],
                                  axis=0) + y_mean[b]
            errors = estimates - conc.matrix[:, n]
            values[n, :k_fit] = np.sum(errors * errors, axis=1)
            negative[n, :k_fit] = np.any(estimates < 0, axis=1)

    k = min(k_fits)
    if k == 0:
        raise DegenerateMatrix(
            f"fold {processed.labels[k_fits.index(0)]!r}: no usable "
            f"component, so no PC count can be scored"
        )
    notes = []
    for label, k_fit, negatives in zip(processed.labels, k_fits,
                                       negative[:, :k].sum(axis=1)):
        if k_fit < k_max:
            notes.append(
                f"fold {label!r}: only {k_fit} of {k_max} components "
                f"available; PC counts above {k} dropped"
            )
        if negatives:
            notes.append(
                f"fold {label!r}: negative predicted concentrations at "
                f"{negatives} PC count(s)"
            )
    return PressMatrix(values[:, :k], pipeline.name, spectra.labels, notes)
