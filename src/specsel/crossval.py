"""Leave-one-out cross-validation of a (pipeline, PC count) grid.

The set, divided by the power of two of ``decompose._fit_scaled``, is
reduced once to X = R Q^T, Q orthonormal and R i x min(i, j)
(Chan's R-SVD): a fold's centered rows of R have the singular values, left
vectors and held-out scores of its centered spectra. A block of folds is
one stacked ``decompose.centered_svd``, the factorization of ``pca_fit``,
which counts the components a fold may use by the norm of its uncentered
rows of R (that of its spectra). The PCR helpers of the final fit follow:
``regress.pcr_coefficients`` gives the coefficients u_k^T y_c / s_k and
``regress.cumulative_estimates`` the held-out estimates at every PC count,
hence the squared prediction errors. The matrix keeps the PC counts every
fold can fit, so it has no missing cell; each fold that limits it has a note.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decompose import _fit_scaled, centered_svd
from .errors import DegenerateMatrix, ShapeMismatch, TooFewSpectra
from .preprocess import Pipeline, apply_pipeline
from .regress import cumulative_estimates, pcr_coefficients
from .spectra import (ConcentrationSet, SpectraSet, _check_samples,
                      _set_arrays, _set_names)

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
        _set_names(self, {"labels": "sample labels", "notes": None})
        _set_arrays(self, {"values": (len(self.labels), *np.shape(self.values)[-1:])})
        if not (self.values >= 0).all():
            raise ShapeMismatch("PRESS values must be finite and non-negative")

    def __array__(self, dtype=None, copy=None):
        return np.array(self.values, dtype=dtype, copy=copy)

    def column_headers(self) -> list[str]:
        return [f"pc_{m + 1}" for m in range(self.values.shape[1])]


def loo_press_matrix(spectra: SpectraSet, conc: ConcentrationSet,
                     pipeline: Pipeline) -> PressMatrix:
    """Leave-one-out PRESS matrix for one preprocessing pipeline.

    Its columns are the PC counts 1..k, k being the fewest components any
    fold may use (at most i - 2); each fold with fewer than i - 2 has one
    note. A fold with none raises DegenerateMatrix. The preprocessed set
    is divided by ``decompose._fit_scaled``'s power of two before its QR,
    so every power-of-two scale of a preprocessed set whose largest
    |intensity| is at least 1 gives the same matrix, bit for bit.
    """
    i = spectra.n_spectra
    if i < 4:
        raise TooFewSpectra(
            f"leave-one-out over 1..i-2 components needs i >= 4 spectra, got {i}"
        )
    _check_samples(conc, i)

    # every implemented step is per-spectrum, so preprocessing the whole set
    # once is identical to preprocessing each fold separately
    processed = apply_pipeline(spectra, pipeline)

    k_max = i - 2
    # PRESS is in units of the concentrations, so the fit's 2^e cancels
    reduced = np.linalg.qr(_fit_scaled(processed.matrix)[0].T, mode="r").T
    k_fits, sq_errors, negative = [], [], []
    for start in range(0, i, FOLD_BLOCK):
        folds = np.arange(start, min(start + FOLD_BLOCK, i))
        train = np.array([[r for r in range(i) if r != n] for n in folds])
        # a fold's SVD has min(i - 1, j) singular values, so k_max keeps
        # min(i - 2, j): no fold may use more than i - 2 components
        mean, u, singulars, vt, kept = centered_svd(reduced[train], k_max)
        held = (reduced[folds, None, :] - mean) @ vt.transpose(0, 2, 1)
        # an infinite singular value gives a component past its fold's
        # usable count a zero coefficient; those counts lie past k anyway
        singulars[np.arange(singulars.shape[1]) >= kept[:, None]] = np.inf
        y = conc.matrix.T[train]
        y_mean = y.mean(axis=1)
        coeffs = pcr_coefficients(u[:, :, :k_max], singulars,
                                  y - y_mean[:, None, :])
        # an infinite coefficient gives infinite or NaN estimates, and an
        # error above sqrt(max float) squares to inf: refused below
        with np.errstate(over="ignore", invalid="ignore"):
            estimates = cumulative_estimates(coeffs, held[:, :, :k_max],
                                             y_mean)[:, :, 0]
            errors = estimates - conc.matrix.T[folds][:, :, None]
            sq_errors.append(np.sum(errors * errors, axis=1))
        negative.append(np.any(estimates < 0, axis=1))
        k_fits.extend(kept.tolist())

    k = min(k_fits)
    if k == 0:
        raise DegenerateMatrix(
            f"fold {processed.labels[k_fits.index(0)]!r}: no usable "
            f"component, so no PC count can be scored"
        )
    values = np.concatenate(sq_errors)[:, :k]
    overflowed = ~np.isfinite(values).all(axis=1)
    if overflowed.any():
        raise DegenerateMatrix(
            f"fold {processed.labels[int(np.argmax(overflowed))]!r}: squared "
            f"prediction errors are not finite, so PRESS cannot be scored"
        )
    notes = []
    for label, k_fit, negatives in zip(
            processed.labels, k_fits,
            np.concatenate(negative)[:, :k].sum(axis=1)):
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
    return PressMatrix(values, pipeline.name, spectra.labels, notes)
