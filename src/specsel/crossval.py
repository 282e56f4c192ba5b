"""Leave-one-out cross-validation of a (pipeline, PC count) grid.

The set is reduced once to X = R Q^T, Q orthonormal and R i x min(i, j)
(Chan's R-SVD): a fold's centered rows of R have the singular values, left
vectors and held-out scores of its centered spectra. One stacked SVD per
block of folds, coefficients u_k^T y_c / s_k and a cumulative sum give the
i x (i-2) matrix of held-out squared prediction errors at every PC count.
A fold uses the components ``usable_components`` allows by the norm of its
uncentered rows of R (that of its spectra); later counts are NaN, one note.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decompose import usable_components
from .errors import (
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
    non-negative; a NaN marks a (fold, PC count) pair past the fold's usable
    components; ``notes`` says so.
    """

    values: np.ndarray
    pipeline_name: str
    labels: tuple[str, ...]
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise ShapeMismatch(f"PRESS matrix must be 2-D, got {values.shape}")
        with np.errstate(invalid="ignore"):
            if np.any(values < 0):
                raise ShapeMismatch("PRESS values must be non-negative")
        object.__setattr__(self, "values", _frozen_array(values))
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "notes", tuple(self.notes))

    def __array__(self, dtype=None, copy=None):
        return np.array(self.values, dtype=dtype, copy=copy)

    def column_headers(self) -> list[str]:
        return [f"pc_{m + 1}" for m in range(self.values.shape[1])]


def loo_press_matrix(spectra: SpectraSet, conc: ConcentrationSet,
                     pipeline: Pipeline) -> PressMatrix:
    """Full leave-one-out PRESS matrix for one preprocessing pipeline."""
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
    k_possible = min(k_max, processed.n_channels)
    reduced = np.linalg.qr(processed.matrix.T, mode="r").T
    values = np.full((i, k_max), np.nan)
    notes = []
    for start in range(0, i, FOLD_BLOCK):
        folds = range(start, min(start + FOLD_BLOCK, i))
        train = np.array([[r for r in range(i) if r != n] for n in folds])
        rows = reduced[train]
        mean = rows.mean(axis=1, keepdims=True)
        u, singulars, vt = np.linalg.svd(rows - mean, full_matrices=False)
        held = (reduced[list(folds), None, :] - mean) @ vt.transpose(0, 2, 1)
        y_mean = conc.matrix.T[train].mean(axis=1, keepdims=True)
        fits = u.transpose(0, 2, 1) @ (conc.matrix.T[train] - y_mean)
        kept = usable_components(singulars[:, :k_possible],
                                 np.linalg.norm(rows, axis=(1, 2))[:, None])
        for b, n in enumerate(folds):
            label = processed.labels[n]
            k_fit = int(kept[b])
            if k_fit < k_max:
                notes.append(
                    f"fold {label!r}: only {k_fit} of {k_max} components "
                    f"available; later columns recorded as NaN"
                )
            scaled = held[b, 0, :k_fit] / singulars[b, :k_fit]
            estimates = np.cumsum(fits[b, :k_fit] * scaled[:, None],
                                  axis=0) + y_mean[b]
            errors = estimates - conc.matrix[:, n]
            values[n, :k_fit] = np.sum(errors * errors, axis=1)
            negatives = int(np.sum(np.any(estimates < 0, axis=1)))
            if negatives:
                notes.append(
                    f"fold {label!r}: negative predicted concentrations at "
                    f"{negatives} PC count(s)"
                )
    return PressMatrix(values, pipeline.name, spectra.labels, notes)
