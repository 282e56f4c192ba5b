"""Principal component regression: coefficients, prediction, PRESS.

Concentrations are regressed onto the PCA scores after centering both
sides; the species means come back at prediction time. The coefficient
matrix is solved by an orthogonal-factorization least squares, never by an
explicit normal-equation inverse. PcrModel checks its own fields, so a model
from pcr_fit, ``dataclasses.replace`` or load_model passes the same checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decompose import PcaModel, project, usable_components
from .errors import (BadOrder, IoFailure, NonFiniteValue, ShapeMismatch,
                     SingularScores, SpecselError)
from .spectra import (ConcentrationSet, SpectraSet, _check_unique,
                      _frozen_array, read_json, write_json)


@dataclass(frozen=True)
class PcrModel:
    """What a prediction reads: the training axis, the mean spectrum and
    loadings that project new spectra, and coefficients for q species."""

    axis: np.ndarray
    mean_spectrum: np.ndarray
    loadings: np.ndarray    # j x k
    coeffs: np.ndarray      # q x k
    mean_conc: np.ndarray   # q
    species: tuple[str, ...]
    units: tuple[str, ...]
    pipeline_name: str = "identity"

    def __post_init__(self):
        # every array is float before any shape is read
        arrays = {name: _frozen_array(getattr(self, name)) for name
                  in ("axis", "mean_spectrum", "loadings", "coeffs", "mean_conc")}
        if not isinstance(self.pipeline_name, str):
            raise SpecselError(
                f"pipeline must be a string, got {self.pipeline_name!r}")
        for name in ("species", "units"):
            names = getattr(self, name)
            if not (isinstance(names, (list, tuple))
                    and all(isinstance(n, str) for n in names)):
                raise SpecselError(
                    f"{name} must be a list of strings, got {names!r}")
            object.__setattr__(self, name, tuple(names))
        if len(self.units) != len(self.species):
            raise ShapeMismatch(
                f"{len(self.units)} units for {len(self.species)} species")
        _check_unique(self.species, "species")
        loadings = arrays["loadings"]
        j, q = arrays["axis"].size, len(self.species)
        k = loadings.shape[1] if loadings.ndim == 2 else 0
        expected = {"axis": (j,), "mean_spectrum": (j,), "loadings": (j, k),
                    "coeffs": (q, k), "mean_conc": (q,)}
        for name, shape in expected.items():
            if arrays[name].shape != shape:
                raise ShapeMismatch(f"{name} has shape {arrays[name].shape}, "
                                    f"expected {shape}")
            if not np.isfinite(arrays[name]).all():
                raise NonFiniteValue(f"{name} has a non-finite value")
            object.__setattr__(self, name, arrays[name])
        if k == 0:
            raise BadOrder("model has no components")

    @property
    def n_components(self) -> int:
        return self.coeffs.shape[1]


def pcr_fit(pca: PcaModel, conc: ConcentrationSet) -> PcrModel:
    """Least-squares regression of centered concentrations on the scores."""
    scores = pca.scores
    if conc.n_samples != scores.shape[0]:
        raise ShapeMismatch(
            f"{conc.n_samples} concentration columns for {scores.shape[0]} spectra"
        )
    mean_conc = conc.matrix.mean(axis=1)
    centered = conc.matrix - mean_conc[:, None]
    solution, _, _, singulars = np.linalg.lstsq(scores, centered.T, rcond=None)
    if not singulars.size or usable_components(singulars) < singulars.size:
        raise SingularScores(
            "score matrix is too ill-conditioned for a stable regression fit"
        )
    return PcrModel(
        axis=pca.axis,
        mean_spectrum=pca.mean_spectrum,
        loadings=pca.loadings,
        coeffs=solution.T,
        mean_conc=mean_conc,
        species=conc.species,
        units=conc.units,
    )


def pcr_predict(model: PcrModel, new_set: SpectraSet) -> np.ndarray:
    """Concentration estimates (q x r) for new spectra.

    Negative estimates are reported as-is; clamping would bias downstream
    error statistics.
    """
    new_scores = project(model, new_set)
    return model.coeffs @ new_scores.T + model.mean_conc[:, None]


def pcr_predict_all_counts(model: PcrModel, new_set: SpectraSet) -> np.ndarray:
    """Estimates (q x r x k) at every component count: [:, :, m - 1] uses m.

    Orthogonal scores make the leading m coefficients of a k-component fit
    those of an m-component fit, so all counts are one cumulative sum.
    """
    new_scores = project(model, new_set)   # r x k
    terms = model.coeffs[:, None, :] * new_scores[None, :, :]
    return np.cumsum(terms, axis=2) + model.mean_conc[:, None, None]


def press(estimated, actual) -> float:
    """Sum of squared prediction errors over all species and samples."""
    est = np.asarray(estimated, dtype=float)
    act = np.asarray(actual, dtype=float)
    if est.shape != act.shape:
        raise ShapeMismatch(f"shapes {est.shape} and {act.shape} differ")
    diff = est - act
    return float(np.sum(diff * diff))


# --- serialization ---------------------------------------------------------------

_MODEL_FORMAT = "specsel-pcr-model"
_MODEL_VERSION = 1


def save_model(path, model: PcrModel) -> None:
    """Write everything a prediction needs to one JSON document.

    Floats are serialized with full round-trip precision, so a reloaded
    model predicts bit-identically.
    """
    payload = {
        "format": _MODEL_FORMAT,
        "version": _MODEL_VERSION,
        "pipeline": model.pipeline_name,
        "species": list(model.species),
        "units": list(model.units),
        "axis": model.axis.tolist(),
        "mean_spectrum": model.mean_spectrum.tolist(),
        "loadings": model.loadings.tolist(),
        "coeffs": model.coeffs.tolist(),
        "mean_conc": model.mean_conc.tolist(),
    }
    write_json(path, payload)


def load_model(path) -> PcrModel:
    """Reload a model saved by save_model; it equals the saved model."""
    payload = read_json(path)
    if not isinstance(payload, dict) or payload.get("format") != _MODEL_FORMAT:
        raise IoFailure(f"{path}: not a {_MODEL_FORMAT} file")
    if payload.get("version") != _MODEL_VERSION:
        raise IoFailure(
            f"{path}: unsupported model version {payload.get('version')!r}, "
            f"expected {_MODEL_VERSION}"
        )
    try:
        values = {name: payload[name] for name in (
            "axis", "mean_spectrum", "loadings", "coeffs", "mean_conc",
            "species", "units")}
        values["pipeline_name"] = payload["pipeline"]
    except KeyError as exc:
        raise IoFailure(f"{path}: model file has no {exc} entry") from exc
    try:
        return PcrModel(**values)
    except (TypeError, ValueError) as exc:
        raise IoFailure(f"{path}: not a valid model file: {exc}") from exc
    except SpecselError as exc:
        raise IoFailure(f"{path}: {exc}") from exc
