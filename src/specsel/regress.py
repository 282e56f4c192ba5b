"""Principal component regression: coefficients, prediction, PRESS.

Concentrations are regressed onto the PCA scores after centering both
sides; the species means come back at prediction time. The coefficient
matrix is solved by an orthogonal-factorization least squares, never by an
explicit normal-equation inverse.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .decompose import PcaModel, project, truncate
from .errors import IoFailure, ShapeMismatch, SingularScores
from .spectra import ConcentrationSet, SpectraSet, read_json, write_json

MAX_SCORE_CONDITION = 1e12


@dataclass(frozen=True)
class PcrModel:
    """PCA model plus regression coefficients for q species."""

    pca: PcaModel
    coeffs: np.ndarray      # q x k
    mean_conc: np.ndarray   # q
    species: tuple[str, ...]
    units: tuple[str, ...]
    pipeline_name: str = "identity"

    @property
    def n_components(self) -> int:
        return self.coeffs.shape[1]

    @property
    def n_species(self) -> int:
        return self.coeffs.shape[0]


def usable_components(singulars: np.ndarray) -> int:
    """Leading components, given descending score singular values, whose
    squared condition number stays within MAX_SCORE_CONDITION."""
    return int(np.sum((singulars > 0) & (
        singulars[:1] ** 2 <= MAX_SCORE_CONDITION * singulars ** 2)))


def pcr_fit(pca: PcaModel, conc: ConcentrationSet) -> PcrModel:
    """Least-squares regression of centered concentrations on the scores."""
    scores = pca.scores
    if conc.n_samples != scores.shape[0]:
        raise ShapeMismatch(
            f"{conc.n_samples} concentration columns for {scores.shape[0]} spectra"
        )
    singulars = np.linalg.svd(scores, compute_uv=False)
    if not singulars.size or usable_components(singulars) < singulars.size:
        raise SingularScores(
            "score matrix is too ill-conditioned for a stable regression fit"
        )
    mean_conc = conc.matrix.mean(axis=1)
    centered = conc.matrix - mean_conc[:, None]
    solution, *_ = np.linalg.lstsq(scores, centered.T, rcond=None)
    return PcrModel(
        pca=pca,
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
    new_scores = project(model.pca, new_set)
    return model.coeffs @ new_scores.T + model.mean_conc[:, None]


def pcr_predict_all_counts(model: PcrModel, new_set: SpectraSet) -> np.ndarray:
    """Estimates (q x r x k) at every component count: [:, :, m - 1] uses m.

    Orthogonal scores make the leading m coefficients of a k-component fit
    those of an m-component fit, so all counts are one cumulative sum.
    """
    new_scores = project(model.pca, new_set)   # r x k
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


def truncate_pcr(model: PcrModel, m: int) -> PcrModel:
    """Model restricted to its leading m components (coefficients sliced).

    Score columns are orthogonal, so dropping trailing components leaves
    the leading coefficients unchanged.
    """
    if m == model.n_components:
        return model
    return replace(model, pca=truncate(model.pca, m),
                   coeffs=np.ascontiguousarray(model.coeffs[:, :m]))


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
        "axis": model.pca.axis.tolist(),
        "mean_spectrum": model.pca.mean_spectrum.tolist(),
        "loadings": model.pca.loadings.tolist(),
        "coeffs": model.coeffs.tolist(),
        "mean_conc": model.mean_conc.tolist(),
    }
    write_json(path, payload)


def load_model(path) -> PcrModel:
    """Reload a model saved by save_model (prediction-only: no scores)."""
    payload = read_json(path)
    if not isinstance(payload, dict) or payload.get("format") != _MODEL_FORMAT:
        raise IoFailure(f"{path}: not a {_MODEL_FORMAT} file")
    if payload.get("version") != _MODEL_VERSION:
        raise IoFailure(
            f"{path}: unsupported model version {payload.get('version')!r}, "
            f"expected {_MODEL_VERSION}"
        )
    try:
        fields = {name: np.asarray(payload[name], dtype=float) for name in
                  ("axis", "mean_spectrum", "loadings", "coeffs", "mean_conc")}
        species = payload["species"]
        units = payload["units"]
        pipeline_name = payload["pipeline"]
    except KeyError as exc:
        raise IoFailure(f"{path}: model file has no {exc} entry") from exc
    except (TypeError, ValueError) as exc:
        raise IoFailure(f"{path}: not a valid model file: {exc}") from exc
    if not isinstance(pipeline_name, str):
        raise IoFailure(
            f"{path}: pipeline must be a string, got {pipeline_name!r}")
    for name, names in (("species", species), ("units", units)):
        if not (isinstance(names, list)
                and all(isinstance(n, str) for n in names)):
            raise IoFailure(
                f"{path}: {name} must be a list of strings, got {names!r}")
    if len(units) != len(species):
        raise IoFailure(f"{path}: {len(units)} units for {len(species)} species")
    loadings = fields["loadings"]
    j, q = fields["axis"].size, len(species)
    k = loadings.shape[1] if loadings.ndim == 2 else 0
    expected = {"axis": (j,), "mean_spectrum": (j,), "loadings": (j, k),
                "coeffs": (q, k), "mean_conc": (q,)}
    for name, shape in expected.items():
        if fields[name].shape != shape:
            raise IoFailure(
                f"{path}: {name} has shape {fields[name].shape}, "
                f"expected {shape}"
            )
        if not np.isfinite(fields[name]).all():
            raise IoFailure(f"{path}: {name} has a non-finite value")
    if k == 0:
        raise IoFailure(f"{path}: model has no components")
    pca = PcaModel(
        axis=fields["axis"],
        mean_spectrum=fields["mean_spectrum"],
        loadings=loadings,
        scores=np.zeros((0, k)),
        explained_variance=np.zeros(k),
        residual_fro=0.0,
        total_center_ss=0.0,
    )
    return PcrModel(
        pca=pca,
        coeffs=fields["coeffs"],
        mean_conc=fields["mean_conc"],
        species=tuple(species),
        units=tuple(units),
        pipeline_name=pipeline_name,
    )
