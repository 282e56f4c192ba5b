"""Leave-one-out cross-validation of a (pipeline, PC count) grid.

Each fold decomposes the remaining i-1 spectra once with ``pca_fit`` and
regresses once on its well-conditioned components; orthogonal scores make
every smaller model's held-out prediction a cumulative sum of that one fit.
The result is the i x (i-2) matrix of held-out squared prediction errors
that the significance test consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._parallel import run_indexed
from .decompose import pca_fit, truncate
from .errors import (
    FoldPreprocessFailure,
    ShapeMismatch,
    SpecselError,
    TooFewSpectra,
)
from .preprocess import Pipeline, apply_pipeline
from .regress import pcr_fit, pcr_predict_all_counts, usable_components
from .spectra import ConcentrationSet, SpectraSet


@dataclass(frozen=True)
class PressMatrix:
    """Held-out squared prediction errors, rows = samples, columns = PC counts.

    Column m holds the errors of the (m+1)-component model. Entries are
    non-negative; a NaN marks a (fold, PC count) pair that could not be
    evaluated (rank-deficient fold or singular scores); ``notes`` says why.
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
        values = np.array(values, copy=True)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "notes", tuple(self.notes))

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_pc_counts(self) -> int:
        return self.values.shape[1]

    def column_headers(self) -> list[str]:
        return [f"pc_{m + 1}" for m in range(self.n_pc_counts)]


def loo_press_matrix(spectra: SpectraSet, conc: ConcentrationSet,
                     pipeline: Pipeline, workers: int = 1) -> PressMatrix:
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

    def evaluate_fold(n: int):
        label = processed.labels[n]
        train_idx = [r for r in range(i) if r != n]
        model = pca_fit(processed.subset(train_idx), k_possible)
        k_have = model.n_components
        # score columns are orthogonal: their norms are the singular values
        k_fit = usable_components(np.linalg.norm(model.scores, axis=0))
        notes = []
        if k_have < k_max:
            notes.append(
                f"fold {label!r}: only {k_have} of {k_max} components "
                f"available; later columns recorded as NaN"
            )
        notes.extend(
            f"fold {label!r}: singular scores at {m} components; column "
            f"recorded as NaN" for m in range(k_fit + 1, k_have + 1))
        row = np.full(k_max, np.nan)
        if k_fit:
            fold_model = pcr_fit(truncate(model, k_fit),
                                 conc.select_columns(train_idx))
            estimates = pcr_predict_all_counts(fold_model,
                                               processed.subset([n]))
            errors = estimates - conc.matrix[:, [n], None]
            row[:k_fit] = np.sum(errors * errors, axis=(0, 1))
            negatives = int(np.sum(np.any(estimates < 0, axis=(0, 1))))
            if negatives:
                notes.append(
                    f"fold {label!r}: negative predicted concentrations at "
                    f"{negatives} PC count(s)"
                )
        return row, notes

    results = run_indexed(evaluate_fold, i, workers=workers)
    values = np.vstack([row for row, _ in results])
    notes = tuple(note for _, fold_notes in results for note in fold_notes)
    return PressMatrix(values, pipeline.name, spectra.labels, notes)
