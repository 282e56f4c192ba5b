"""In-process spans around the public functions of each specsel module.

The tracer patches a function everywhere it is looked up: ``from .decompose
import nipals_fit`` binds the name again in ``crossval`` and ``selector``, so
every loaded ``specsel`` module whose attribute *is* the original function
gets the wrapper, and ``restore`` puts the originals back. Spans stay in
memory until the benchmark writes them out.

Each span records its name, start, end, parent span and run id. Parents come
from a per-thread stack; ``run_indexed`` tasks start their worker thread's
stack at the ``run_indexed`` span, so candidate spans under ``--threads 2``
link to the ``select_method`` span that fanned them out.
"""

from __future__ import annotations

import importlib
import itertools
import os
import statistics
import sys
import threading
import time

import numpy as np

# module -> public functions wrapped; step functions are looked up through
# module globals by the pipeline's step table, so they are patched too
TARGETS = {
    "spectra": ("load_spectra", "load_concentrations", "save_spectra",
                "save_concentrations", "save_matrix"),
    "synth": ("generate",),
    "preprocess": ("apply_pipeline", "baseline_als", "despike",
                   "savitzky_golay", "snv", "rnv", "derivative",
                   "peak_normalize"),
    "decompose": ("nipals_fit", "project"),
    "regress": ("pcr_fit", "pcr_predict", "press"),
    "crossval": ("loo_press_matrix",),
    "significance": ("select_optimal_pc", "anova_oneway", "boxplot_stats",
                     "f_cdf"),
    "selector": ("select_method", "train_final", "write_report"),
    "_parallel": ("run_indexed",),
}

PREPROCESS_STEPS = TARGETS["preprocess"][1:]


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _nipals_attrs(args, kwargs, result):
    model = (getattr(result, "model", None)
             if isinstance(result, BaseException) else result)
    return {"requested": int(_arg(args, kwargs, 1, "k")),
            "returned": 0 if model is None else model.n_components}


def _press_attrs(args, kwargs, result):
    values = result.values
    return {"folds": values.shape[0], "cells": int(values.size),
            "nan": int(np.isnan(values).sum())}


def _verdict_attrs(args, kwargs, result):
    return {"significant": bool(result.significant),
            "p_zero": sum(1 for p in result.pairwise_p.values() if p == 0.0)}


def _report_attrs(args, kwargs, result):
    return {"candidates": len(result.entries),
            "failed": sum(1 for e in result.entries if not e.ok)}


def _workers_attrs(args, kwargs, result):
    count = _arg(args, kwargs, 1, "count")
    workers = args[2] if len(args) > 2 else kwargs.get("workers", 1)
    return {"workers": min(workers, count) if workers > 1 else 1}


# what a span records from a call's arguments and its result (or exception)
ATTRS = {
    "spectra.load_spectra": lambda a, k, r: {
        "cells": r.n_channels * (r.n_spectra + 1)},
    "spectra.load_concentrations": lambda a, k, r: {
        "cells": r.n_species * r.n_samples},
    "spectra.save_spectra": _file_bytes,
    "spectra.save_concentrations": _file_bytes,
    "spectra.save_matrix": _file_bytes,
    "preprocess.apply_pipeline": lambda a, k, r: {
        "spectra": _arg(a, k, 0, "spectra").n_spectra},
    "decompose.nipals_fit": _nipals_attrs,
    "crossval.loo_press_matrix": _press_attrs,
    "significance.select_optimal_pc": _verdict_attrs,
    "selector.select_method": _report_attrs,
    "selector.write_report": _file_bytes,
    "_parallel.run_indexed": _workers_attrs,
    "_parallel.task": lambda a, k, r: {"index": a[0]},
}

# exceptions whose payload a span should still read (NoConvergence carries
# the partial model the caller goes on to use)
ATTRS_ON_ERROR = {"decompose.nipals_fit"}


def _swap(pairs) -> None:
    """Replace each ``old`` by ``new`` in every loaded specsel module."""
    by_id = {id(old): (old, new) for old, new in pairs}
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "specsel" and not mod_name.startswith("specsel."):
            continue
        for attr, value in list(vars(module).items()):
            hit = by_id.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])


class Tracer:
    """Collects spans from patched specsel functions into ``self.spans``."""

    def __init__(self):
        self.spans: list[dict] = []
        self.run = None
        # next() on itertools.count and list.append are single calls into C,
        # so worker threads can record spans without a lock
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple] = []   # (original, wrapper) pairs

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name, call, args, kwargs, parent=None):
        stack = self._stack()
        span = {"id": next(self._ids), "name": name, "run": self.run,
                "parent": parent if parent is not None else
                (stack[-1] if stack else None),
                "thread": threading.get_ident()}
        saved = None
        if parent is not None:
            saved, stack = stack, [parent]
            self._local.stack = stack
        stack.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            result = call(*args, **kwargs)
        except BaseException as exc:
            span["end"] = time.perf_counter()
            span["error"] = type(exc).__name__
            if name in ATTRS_ON_ERROR:
                span.update(ATTRS[name](args, kwargs, exc))
            raise
        else:
            span["end"] = time.perf_counter()
            if name in ATTRS:
                span.update(ATTRS[name](args, kwargs, result))
            return result
        finally:
            stack.pop()
            if saved is not None:
                self._local.stack = saved
            self.spans.append(span)

    def _wrap(self, name, fn):
        if name == "_parallel.run_indexed":
            def call(task, *rest, **kw):
                parent = self._stack()[-1]   # this run_indexed span

                def run_task(index):
                    return self._record("_parallel.task", task, (index,), {},
                                        parent=parent)
                return fn(run_task, *rest, **kw)
        else:
            call = fn

        def traced(*args, **kwargs):
            return self._record(name, call, args, kwargs)
        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        """Patch every specsel module that holds a target function."""
        # the CLI is imported first: a module first imported while patched
        # would bind the wrappers and keep them after restore
        importlib.import_module("specsel.cli")
        self._patched = []
        for module_name, names in TARGETS.items():
            module = importlib.import_module(f"specsel.{module_name}")
            for attr in names:
                original = getattr(module, attr)
                self._patched.append(
                    (original, self._wrap(f"{module_name}.{attr}", original)))
        _swap(self._patched)

    def restore(self) -> None:
        _swap([(wrapper, original) for original, wrapper in self._patched])
        self._patched = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


# --- per-layer metrics from spans ---------------------------------------------

def _duration(span) -> float:
    return span["end"] - span["start"]


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def candidate_spans(spans) -> dict[tuple[int, int], dict]:
    """(select call, candidate index) -> the task span ``select_method`` fanned
    out; select calls are numbered in start order."""
    by_id = {s["id"]: s for s in spans}
    selects = sorted((s for s in spans if s["name"] == "selector.select_method"),
                     key=lambda s: s["start"])
    ordinal = {s["id"]: n for n, s in enumerate(selects)}
    out = {}
    for span in spans:
        if span["name"] != "_parallel.task":
            continue
        fan_out = by_id.get(span["parent"])
        caller = fan_out and fan_out["parent"]
        if caller in ordinal:
            out[(ordinal[caller], span["index"])] = span
    return out


def layer_metrics(setup, measured, contended) -> dict[str, tuple]:
    """Per-layer metrics of one traced command as name -> (value, unit).

    ``measured`` holds the spans of the benchmarked command, ``setup`` those
    of its set-up (phantom generation and model training) and ``contended``
    those of the same select commands at two threads, which give the
    ``parallel`` metrics.
    """
    by_name: dict[str, list] = {}
    for span in measured:
        by_name.setdefault(span["name"], []).append(span)

    def spans(*names):
        return [s for n in names for s in by_name.get(n, ())]

    def secs(*names):
        return sum(_duration(s) for s in spans(*names))

    def count(*names):
        return len(spans(*names))

    def total(key, *names):
        return sum(s.get(key, 0) for s in spans(*names))

    m: dict[str, tuple] = {}
    m["spectra.load_s"] = (secs("spectra.load_spectra",
                                "spectra.load_concentrations"), "s")
    m["spectra.cells_parsed"] = (total("cells", "spectra.load_spectra",
                                       "spectra.load_concentrations"), "count")
    saves = ("spectra.save_spectra", "spectra.save_concentrations",
             "spectra.save_matrix")
    m["spectra.save_s"] = (secs(*saves), "s")
    m["spectra.bytes_written"] = (total("bytes", *saves), "B")
    m["synth.generate_s"] = (sum(_duration(s) for s in setup
                                 if s["name"] == "synth.generate"), "s")

    m["preprocess.apply_s"] = (secs("preprocess.apply_pipeline"), "s")
    m["preprocess.spectra_processed"] = (
        total("spectra", "preprocess.apply_pipeline"), "count")
    for step in PREPROCESS_STEPS:
        m[f"preprocess.{step}_s"] = (secs(f"preprocess.{step}"), "s")
        m[f"preprocess.{step}_calls"] = (count(f"preprocess.{step}"), "count")

    requested = total("requested", "decompose.nipals_fit")
    returned = total("returned", "decompose.nipals_fit")
    m["decompose.nipals_fit_s"] = (secs("decompose.nipals_fit"), "s")
    m["decompose.nipals_fit_calls"] = (count("decompose.nipals_fit"), "count")
    m["decompose.components_requested"] = (requested, "count")
    m["decompose.components_returned"] = (returned, "count")
    m["decompose.no_convergence"] = (
        sum(1 for s in spans("decompose.nipals_fit")
            if s.get("error") == "NoConvergence"), "count")
    m["decompose.component_yield"] = (
        returned / requested if requested else 0.0, "ratio")
    m["decompose.project_s"] = (secs("decompose.project"), "s")
    m["decompose.project_calls"] = (count("decompose.project"), "count")

    m["regress.pcr_fit_s"] = (secs("regress.pcr_fit"), "s")
    m["regress.pcr_fit_calls"] = (count("regress.pcr_fit"), "count")
    m["regress.singular_scores"] = (
        sum(1 for s in spans("regress.pcr_fit")
            if s.get("error") == "SingularScores"), "count")
    m["regress.pcr_predict_s"] = (secs("regress.pcr_predict"), "s")
    m["regress.pcr_predict_calls"] = (count("regress.pcr_predict"), "count")
    m["regress.press_calls"] = (count("regress.press"), "count")

    children: dict[int, list] = {}
    for span in measured:
        children.setdefault(span["parent"], []).append(span)
    loo = spans("crossval.loo_press_matrix")
    cells = total("cells", "crossval.loo_press_matrix")
    nan = total("nan", "crossval.loo_press_matrix")
    m["crossval.loo_s"] = (secs("crossval.loo_press_matrix"), "s")
    m["crossval.loo_self_s"] = (sum(
        _duration(s) - _covered((c["start"], c["end"])
                                for c in children.get(s["id"], ()))
        for s in loo), "s")
    m["crossval.folds"] = (total("folds", "crossval.loo_press_matrix"), "count")
    m["crossval.press_cells"] = (cells, "count")
    m["crossval.nan_cells"] = (nan, "count")
    m["crossval.nan_frac"] = (nan / cells if cells else 0.0, "ratio")

    select_pc = {s["id"] for s in spans("significance.select_optimal_pc")}
    m["significance.select_pc_s"] = (secs("significance.select_optimal_pc"),
                                     "s")
    m["significance.anova_s"] = (secs("significance.anova_oneway"), "s")
    m["significance.boxplot_s"] = (secs("significance.boxplot_stats"), "s")
    m["significance.f_cdf_calls"] = (count("significance.f_cdf"), "count")
    m["significance.pairwise_tests"] = (
        sum(1 for s in spans("significance.f_cdf") if s["parent"] in select_pc),
        "count")
    m["significance.p_zero"] = (total("p_zero",
                                      "significance.select_optimal_pc"), "count")
    m["significance.significant_candidates"] = (
        total("significant", "significance.select_optimal_pc"), "count")

    m["selector.select_s"] = (secs("selector.select_method"), "s")
    m["selector.candidates"] = (total("candidates", "selector.select_method"),
                                "count")
    m["selector.candidates_failed"] = (total("failed", "selector.select_method"),
                                       "count")
    m["selector.write_report_s"] = (secs("selector.write_report"), "s")
    m["selector.report_bytes"] = (total("bytes", "selector.write_report"), "B")
    m["selector.train_final_s"] = (sum(_duration(s) for s in setup
                                       if s["name"] == "selector.train_final"),
                                   "s")

    # the fan-out at two threads, against the same candidates at one
    tasks = candidate_spans(contended)
    alone = candidate_spans(measured)
    fan_outs = [s for s in contended if s["name"] == "_parallel.run_indexed"]
    selects = [s for s in contended if s["name"] == "selector.select_method"]
    select_ids = {s["id"] for s in selects}
    workers = max((s["workers"] for s in fan_outs if s["parent"] in select_ids),
                  default=0)
    busy = sum(_duration(s) for s in tasks.values())
    select_wall = sum(_duration(s) for s in selects)
    m["parallel.workers"] = (workers, "count")
    m["parallel.busy_s"] = (busy, "s")
    m["parallel.efficiency"] = (
        busy / (workers * select_wall) if workers and select_wall else 0.0,
        "ratio")
    m["parallel.candidate_slowdown"] = (
        statistics.median(_duration(tasks[k]) / _duration(alone[k])
                          for k in tasks) if tasks else 0.0, "ratio")
    return m
