"""Principal component regression: coefficients, prediction, PRESS.

Concentrations are regressed onto the PCA scores after centering both
sides; the species means come back at prediction time. The leave-one-out
folds and the final fit share one formula: ``pcr_coefficients`` and
``cumulative_estimates``. PcrModel checks its fields by the rules of
``spectra`` and its pipeline by ``parse_pipeline``, so a model from pcr_fit,
``dataclasses.replace`` or load_model passes the same checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decompose import PcaModel, project, scaled_norm, usable_components
from .errors import (BadOrder, IoFailure, NonFiniteValue, ShapeMismatch,
                     SingularScores, SpecselError)
from .preprocess import parse_pipeline
from .spectra import (ConcentrationSet, SpectraSet, _check_axis,
                      _check_samples, _set_arrays, _set_names, _to_float,
                      read_json, write_json)


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
        if not isinstance(self.pipeline_name, str):
            raise SpecselError(
                f"pipeline must be a string, got {self.pipeline_name!r}")
        parse_pipeline(self.pipeline_name)
        _set_names(self, {"species": "species", "units": None})
        j, q = np.size(self.axis), len(self.species)
        k = np.shape(self.loadings)[1] if np.ndim(self.loadings) == 2 else 0
        _set_arrays(self, {"axis": (j,), "mean_spectrum": (j,), "loadings": (j, k),
                           "coeffs": (q, k), "mean_conc": (q,)})
        _check_axis(self.axis)
        if k == 0:
            raise BadOrder("model has no components")

    @property
    def n_components(self) -> int:
        return self.coeffs.shape[1]


def pcr_coefficients(u: np.ndarray, singulars: np.ndarray,
                     y_centered: np.ndarray) -> np.ndarray:
    """Coefficients (... x q x k) of centered concentrations y_centered
    (... x i x q) on the orthogonal scores u * singulars, u (... x i x k)
    having orthonormal columns: u_k^T y_c / s_k. A singular value of inf
    gives its component a zero coefficient."""
    # a quotient past the float range is inf, which crossval's PRESS check
    # refuses
    with np.errstate(over="ignore"):
        return (np.swapaxes(y_centered, -1, -2) @ u) / singulars[..., None, :]


def cumulative_estimates(coeffs: np.ndarray, scores: np.ndarray,
                         mean_conc: np.ndarray) -> np.ndarray:
    """Estimates (... x q x r x k) at every component count, [..., m - 1]
    using the leading m, from coefficients (... x q x k), scores
    (... x r x k) and species means (... x q). Orthogonal scores make the
    leading m coefficients of a k-component fit those of an m-component
    fit, so all counts are one cumulative sum."""
    terms = coeffs[..., :, None, :] * scores[..., None, :, :]
    return np.cumsum(terms, axis=-1) + mean_conc[..., :, None, None]


def pcr_fit(pca: PcaModel, conc: ConcentrationSet) -> PcrModel:
    """Regression of centered concentrations on the scores t, as u = t / |t|
    and s = |t|: the score columns must be orthogonal (see PcaModel).
    Raises SingularScores if ``usable_components`` refuses a score norm or
    there is none."""
    scores = pca.scores
    _check_samples(conc, scores.shape[0])
    # scores are in the set's units, so a norm or its MAX_CONDITION multiple
    # may pass the float range: inf, which usable_components refuses
    with np.errstate(over="ignore"):
        norms = scaled_norm(scores, axis=0)
        usable = usable_components(norms)
    if not norms.size:
        raise SingularScores("no usable component, so no regression to fit")
    if usable < norms.size:
        raise SingularScores("a score norm is not a normal float, or the "
                             "scores are too ill-conditioned to regress on")
    mean_conc = conc.matrix.mean(axis=1)
    centered = conc.matrix - mean_conc[:, None]
    return PcrModel(
        axis=pca.axis,
        mean_spectrum=pca.mean_spectrum,
        loadings=pca.loadings,
        coeffs=pcr_coefficients(scores / norms, norms, centered.T),
        mean_conc=mean_conc,
        species=conc.species,
        units=conc.units,
    )


def _refuse_nonfinite(values: np.ndarray, labels, what: str) -> None:
    """NonFiniteValue naming, by ``labels``, the first spectrum r whose
    values[:, r, ...] are not all finite: the ``what`` of that spectrum."""
    overflowed = np.flatnonzero(~np.isfinite(values).all(axis=(0, 2)))
    if overflowed.size:
        raise NonFiniteValue(f"spectrum {labels[overflowed[0]]!r}: {what} "
                             f"are not finite")


def _estimate_curve(model: PcrModel, new_set: SpectraSet) -> np.ndarray:
    """``cumulative_estimates`` (q x r x k) of ``new_set`` under ``model``.
    Raises NonFiniteValue naming the first spectrum whose last-count
    estimates are past the float range (spectra far outside the model's
    scale), with no numpy warning. The last count is enough: a cumulative
    sum past the float range stays non-finite to the end."""
    with np.errstate(over="ignore", invalid="ignore"):
        curve = cumulative_estimates(model.coeffs, project(model, new_set),
                                     model.mean_conc)
    _refuse_nonfinite(curve[..., -1:], new_set.labels,
                      "estimated concentrations")
    return curve


def pcr_predict(model: PcrModel, new_set: SpectraSet) -> np.ndarray:
    """Concentration estimates (q x r) for new spectra: the last count of
    ``_estimate_curve``, whose NonFiniteValue it raises.

    Negative estimates are reported as-is; clamping would bias downstream
    error statistics.
    """
    return _estimate_curve(model, new_set)[..., -1]


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
# the model file's entries after format, version and pipeline, in order
_MODEL_FIELDS = ("species", "units", "axis", "mean_spectrum", "loadings",
                 "coeffs", "mean_conc")


def save_model(path, model: PcrModel) -> None:
    """Write everything a prediction needs to one JSON document.

    Floats are serialized with full round-trip precision, so a reloaded
    model predicts bit-identically.
    """
    payload = {"format": _MODEL_FORMAT, "version": _MODEL_VERSION,
               "pipeline": model.pipeline_name}
    for name in _MODEL_FIELDS:
        value = getattr(model, name)
        payload[name] = (value.tolist() if isinstance(value, np.ndarray)
                         else list(value))
    write_json(path, payload)


def load_model(path) -> PcrModel:
    """Reload a model saved by save_model; it equals the saved model."""
    payload = read_json(path)
    if not isinstance(payload, dict) or payload.get("format") != _MODEL_FORMAT:
        raise IoFailure(f"{path}: not a {_MODEL_FORMAT} file")
    # by the rule of every number specsel reads, so true is not version 1
    if _to_float(payload.get("version")) != _MODEL_VERSION:
        raise IoFailure(
            f"{path}: unsupported model version {payload.get('version')!r}, "
            f"expected {_MODEL_VERSION}"
        )
    try:
        return PcrModel(**{name: payload[name] for name in _MODEL_FIELDS},
                        pipeline_name=payload["pipeline"])
    except KeyError as exc:
        raise IoFailure(f"{path}: model file has no {exc} entry") from exc
    except ValueError as exc:  # an axis or loadings of ragged lists
        raise IoFailure(f"{path}: not a valid model file: {exc}") from exc
    except SpecselError as exc:
        raise IoFailure(f"{path}: {exc}") from exc
