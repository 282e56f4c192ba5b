"""End-to-end qualification of candidate preprocessing pipelines.

Every candidate is cross-validated into a PRESS matrix and put through the
significance gate. Candidates that pass are compared by their PRESS sum at
their own optimal component count and the smallest wins; candidates that
fail the gate can never displace a passing one, no matter how small their
error looks. If nothing passes, the best non-significant candidate is
returned with an explicit alert so callers can branch on it.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from ._parallel import run_indexed
from .crossval import PressMatrix, loo_press_matrix
from .decompose import pca_fit
from .errors import (AllCandidatesFailed, NonFiniteValue, ShapeMismatch,
                     SpecselError)
from .preprocess import Pipeline, apply_pipeline
from .regress import PcrModel, _estimate_curve, _refuse_nonfinite, pcr_fit
from .significance import (DEFAULT_ALPHA, PcVerdict, _check_alpha,
                           select_optimal_pc)
from .spectra import (ConcentrationSet, SpectraSet, _check_samples,
                      _check_unique, write_json)

NO_SIGNIFICANCE_ALERT = (
    "no candidate pipeline reached statistical significance; the returned "
    "choice is only the smallest PRESS sum and should be treated with caution"
)


@dataclass(frozen=True)
class CandidateResult:
    """Verdict (or failure) for one candidate pipeline."""

    pipeline_name: str
    verdict: PcVerdict | None
    press_matrix: PressMatrix | None
    error: str | None
    wall_time_s: float

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def sum_press_at_optimal(self) -> float | None:
        if self.verdict is None:
            return None
        return float(self.verdict.sum_press[self.verdict.optimal_pc - 1])


@dataclass(frozen=True)
class SelectionReport:
    """Full audit of a pipeline-selection run."""

    entries: tuple[CandidateResult, ...]
    chosen_pipeline: str
    chosen_pc: int
    chosen_significant: bool
    alpha: float
    log_press: bool
    alerts: tuple[str, ...]


def select_method(spectra: SpectraSet, conc: ConcentrationSet,
                  candidates: list[Pipeline], alpha: float = DEFAULT_ALPHA,
                  log_press: bool = False,
                  workers: int = 1) -> SelectionReport:
    """Evaluate candidate pipelines and choose the qualified best.

    A candidate that raises anywhere in its evaluation becomes a failed
    entry instead of aborting the run; only when every candidate fails is
    AllCandidatesFailed raised. Duplicate pipelines raise LabelMismatch.
    """
    _check_alpha(alpha)
    if not workers >= 1:
        raise SpecselError(f"threads must be at least 1, got {workers}")
    if not candidates:
        raise AllCandidatesFailed("no candidate pipelines supplied")
    _check_unique([c.name for c in candidates], "candidate pipelines")

    def evaluate(index: int) -> CandidateResult:
        pipeline = candidates[index]
        started = time.perf_counter()
        verdict = error = None
        try:
            matrix = loo_press_matrix(spectra, conc, pipeline)
            verdict = select_optimal_pc(matrix, alpha=alpha,
                                        log_transform=log_press)
        except SpecselError as exc:
            matrix, error = None, f"{type(exc).__name__}: {exc}"
        return CandidateResult(pipeline.name, verdict, matrix, error,
                               time.perf_counter() - started)

    entries = run_indexed(evaluate, len(candidates), workers=workers)
    alerts: list[str] = []
    for entry in entries:
        if entry.ok:
            alerts.extend(
                f"{entry.pipeline_name}: {note}"
                for note in (*entry.press_matrix.notes, *entry.verdict.notes)
            )
        else:
            alerts.append(f"candidate {entry.pipeline_name} failed: {entry.error}")

    usable = [e for e in entries if e.ok]
    if not usable:
        raise AllCandidatesFailed(
            "every candidate pipeline failed: "
            + "; ".join(dict.fromkeys(e.error for e in entries))
        )
    significant = [e for e in usable if e.verdict.significant]
    pool = significant if significant else usable
    best = min(pool, key=lambda e: e.sum_press_at_optimal)
    ties = [e.pipeline_name for e in pool
            if e is not best and e.sum_press_at_optimal == best.sum_press_at_optimal]
    if ties:
        alerts.append(
            f"tie on PRESS sum between {best.pipeline_name} and "
            f"{', '.join(ties)}; kept the earlier candidate"
        )
    if not significant:
        alerts.append(NO_SIGNIFICANCE_ALERT)
    return SelectionReport(
        entries=tuple(entries),
        chosen_pipeline=best.pipeline_name,
        chosen_pc=best.verdict.optimal_pc,
        chosen_significant=bool(significant),
        alpha=alpha,
        log_press=log_press,
        alerts=tuple(alerts),
    )


def train_final(spectra: SpectraSet, conc: ConcentrationSet,
                pipeline: Pipeline, pc_count: int) -> PcrModel:
    """Rebuild the model on the full set at the selected component count."""
    processed = apply_pipeline(spectra, pipeline)
    pca = pca_fit(processed, pc_count)
    model = pcr_fit(pca, conc)
    return replace(model, pipeline_name=pipeline.name)


@dataclass(frozen=True)
class HoldoutEvaluation:
    """Residual sums of squares of a model's leading 1..k components."""

    rss: np.ndarray          # k
    per_species: np.ndarray  # q x k
    species: tuple[str, ...]

    @property
    def best_pc(self) -> int:
        return int(np.argmin(self.rss)) + 1


def evaluate_holdout(model: PcrModel, holdout: SpectraSet,
                     truth: ConcentrationSet) -> HoldoutEvaluation:
    """True-error curve over component counts on a held-out set.

    The model's own pipeline is NOT applied here; pass spectra that are
    already preprocessed the same way as the training set, e.g. with
    ``apply_pipeline(holdout, parse_pipeline(model.pipeline_name))``.
    The estimates at every count come from ``regress._estimate_curve``,
    so a spectrum whose estimates pass the float range is refused as
    ``pcr_predict`` refuses it; NonFiniteValue also names the first
    spectrum whose squared prediction errors do, and refuses errors whose
    sum does, with no numpy warning.
    """
    _check_samples(truth, holdout.n_spectra, "truth")
    if tuple(truth.species) != tuple(model.species):
        raise ShapeMismatch(
            f"truth species {list(truth.species)} != model species "
            f"{list(model.species)}"
        )
    # q x r x k; project raises AxisMismatch, and an error above
    # sqrt(max float) squares to inf: refused below
    with np.errstate(over="ignore"):
        diff = _estimate_curve(model, holdout) - truth.matrix[:, :, None]
        squares = diff * diff
    _refuse_nonfinite(squares, holdout.labels, "squared prediction errors")
    with np.errstate(over="ignore"):  # refused below
        per_species = np.sum(squares, axis=1)
        rss = per_species.sum(axis=0)
    # every term is non-negative, so a finite rss has finite per_species
    if not np.isfinite(rss).all():
        raise NonFiniteValue("squared prediction errors sum past the float "
                             "range")
    for arr in (rss, per_species):
        arr.setflags(write=False)
    return HoldoutEvaluation(rss=rss, per_species=per_species,
                             species=model.species)


# --- report serialization -------------------------------------------------------

def dataset_digest(spectra: SpectraSet, conc: ConcentrationSet) -> str:
    """Stable fingerprint of the training inputs."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(spectra.axis).tobytes())
    h.update(np.ascontiguousarray(spectra.matrix).tobytes())
    h.update("\x1f".join(spectra.labels).encode("utf-8"))
    h.update(np.ascontiguousarray(conc.matrix).tobytes())
    h.update("\x1f".join(conc.species).encode("utf-8"))
    return h.hexdigest()


def _entry_payload(entry: CandidateResult) -> dict:
    payload: dict = {"pipeline": entry.pipeline_name, "ok": entry.ok}
    if not entry.ok:
        payload["error"] = entry.error
        return payload
    verdict = entry.verdict
    anova = verdict.anova
    payload.update({
        "significant": verdict.significant,
        "optimal_pc": verdict.optimal_pc,
        "candidate_set": list(verdict.candidate_set),
        "sum_press_at_optimal": entry.sum_press_at_optimal,
        "anova": {
            "sst": anova.sst,
            "sse": anova.sse,
            "f": anova.f_statistic,
            "p_value": anova.p_value,
            "df_treat": anova.df_treat,
            "df_error": anova.df_error,
            "group_means": anova.group_means.tolist(),
            "log_transformed": anova.log_transformed,
        },
        "sum_press": verdict.sum_press.tolist(),
        "pairwise_p_vs_worst": {str(pc): p for pc, p
                                in sorted(verdict.pairwise_p.items())},
        "boxplot": [asdict(b) for b in verdict.boxplot],
        "notes": list(verdict.notes),
    })
    return payload


def report_payload(report: SelectionReport, inputs: dict | None = None,
                   include_timing: bool = False) -> dict:
    """Dict for a selection report.

    Timing is opt-in so that default reports are byte-reproducible across
    runs and thread counts.
    """
    payload: dict = {
        "report": "specsel-selection",
        "version": 1,
        "alpha": report.alpha,
        "log_press": report.log_press,
    }
    if inputs:
        payload["inputs"] = dict(sorted(inputs.items()))
    payload["candidates"] = [_entry_payload(e) for e in report.entries]
    if include_timing:
        for entry, cand in zip(report.entries, payload["candidates"]):
            cand["wall_time_s"] = entry.wall_time_s
    payload["chosen_pipeline"] = report.chosen_pipeline
    payload["chosen_pc"] = report.chosen_pc
    payload["chosen_significant"] = report.chosen_significant
    payload["alerts"] = list(report.alerts)
    return payload


def write_report(path, report: SelectionReport, inputs: dict | None = None,
                 include_timing: bool = False) -> None:
    write_json(path, report_payload(report, inputs, include_timing))
