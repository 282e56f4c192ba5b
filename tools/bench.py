"""Measure specsel's two user paths and write the figures to one JSON file.

Usage, from the root of a checkout:

    python tools/bench.py --out BENCH_<n>.json

It measures with the benchmark's own definitions, loading
``perfbench/run.py`` (which pins BLAS to one thread before numpy loads,
here and in every child) and ``perfbench/tracer.py``. It records:

- the environment, as ``run.environment()`` records it;
- the default ``select`` (12-candidate grid, one thread) run in this
  process on ``tears_phantom(n, 7)`` for each n in ``SELECT_SIZES``: one
  warm-up, then ``SELECT_REPEATS`` traced runs, with the median and
  quartiles of the whole call and of its three stages, summed from the
  tracer's spans (preprocessing, the rest of ``loo_press_matrix``, and the
  ANOVA gate), and the chosen pipeline and PC count;
- the peak resident memory and the wall time of a ``specsel predict``
  child on the ``predict_batch`` workload's inputs at each size in
  ``PREDICT_BATCHES``.

A child's ``ru_maxrss`` carries the high-water mark of the process it was
started from, so each ``specsel`` child is started by a small launcher (an
interpreter without numpy), which times the child from spawn to exit and
reports its peak from ``wait4`` and its own from ``/proc/self/status``;
the run stops if the launcher's own peak reaches ``LAUNCHER_MAX_MB``.
Linux only. Inputs are written to a temporary directory, removed
afterwards.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run  # noqa: E402  (first: it pins BLAS before numpy loads)
from tracer import Tracer  # noqa: E402

from specsel import selector, synth  # noqa: E402
from specsel.cli import DEFAULT_CANDIDATES  # noqa: E402
from specsel.preprocess import parse_pipeline  # noqa: E402

SELECT_SIZES = (20, 40, 100)
SEED = 7
SELECT_REPEATS = 5
PREDICT_BATCHES = (1000, 5000)
PREDICT_REPEATS = 5
LAUNCHER_MAX_MB = 20.0
# runs argv[1:], its standard output discarded, and prints its exit code,
# its peak RSS and this process's own peak RSS, both in kB, and its wall
# time from spawn to exit in seconds
LAUNCHER = """
import os, sys, time
begun = time.perf_counter()
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ, file_actions=[
    (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - begun
with open("/proc/self/status") as fh:
    own = next(int(l.split()[1]) for l in fh if l.startswith("VmHWM:"))
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, own, wall)
"""


def summary(values) -> dict:
    """Median and quartiles (inclusive method) of ``values``."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def traced_select(spectra, conc, grid):
    """The times of one traced ``select_method`` call and of its stages."""
    with Tracer() as tracer:
        begun = time.perf_counter()
        selector.select_method(spectra, conc, grid)
        total = time.perf_counter() - begun

    def seconds(name):
        return sum(s["end"] - s["start"] for s in tracer.spans
                   if s["name"] == name)

    preprocess = seconds("preprocess.apply_pipeline")
    # loo_press_matrix's own time, without the preprocessing it runs
    return {
        "total_s": total, "preprocess_s": preprocess,
        "loo_press_s": seconds("crossval.loo_press_matrix") - preprocess,
        "gate_s": seconds("significance.select_optimal_pc")}


def bench_select(n: int) -> dict:
    spectra, conc = synth.tears_phantom(n, SEED)
    grid = [parse_pipeline(text) for text in DEFAULT_CANDIDATES]
    # a warm-up, whose verdict every run repeats
    report = selector.select_method(spectra, conc, grid)
    runs = [traced_select(spectra, conc, grid) for _ in range(SELECT_REPEATS)]
    return {
        "n": n, "seed": SEED, "candidates": len(grid),
        "repeats": SELECT_REPEATS,
        **{key: summary([times[key] for times in runs]) for key in runs[0]},
        "chosen": [report.chosen_pipeline, report.chosen_pc],
        "chosen_significant": report.chosen_significant,
    }


def launched(argv: list[str]) -> dict:
    """One launched ``specsel`` child, in the working directory: its peak
    and the launcher's, in MB, and its wall time in seconds."""
    done = subprocess.run(
        [sys.executable, "-S", "-c", LAUNCHER, sys.executable, "-c",
         run.CHILD_MAIN, *argv],
        env=run.child_env(), capture_output=True, text=True, check=True)
    *counts, wall = done.stdout.split()
    code, child_kb, own_kb = map(int, counts)
    if code != 0:
        raise RuntimeError(f"specsel {argv[0]} exited {code}")
    if own_kb / 1024.0 >= LAUNCHER_MAX_MB:
        raise RuntimeError(f"launcher peaked at {own_kb / 1024.0:.1f} MB")
    return {"child_mb": child_kb / 1024.0, "launcher_mb": own_kb / 1024.0,
            "wall_s": float(wall)}


def bench_predict(size: int) -> dict:
    """The predict_batch workload at ``size`` spectra, in the working dir."""
    batch, _ = run.write_predict_inputs(run.Predict(batch=size), SEED,
                                        launched)
    runs = [launched(run.predict_argv("predictions.csv"))
            for _ in range(PREDICT_REPEATS)]
    return {
        "batch": size, "matrix_mb": batch.matrix.nbytes / 2 ** 20,
        "repeats": PREDICT_REPEATS,
        "child_peak_mb": summary([p["child_mb"] for p in runs]),
        "child_wall_s": summary([p["wall_s"] for p in runs]),
        "launcher_peak_mb": max(p["launcher_mb"] for p in runs),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True,
                        help="JSON file to write")
    args = parser.parse_args(argv)
    result = {"environment": run.environment(),
              "select": [bench_select(n) for n in SELECT_SIZES]}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        try:
            os.chdir(work)
            result["predict"] = [bench_predict(size)
                                 for size in PREDICT_BATCHES]
        finally:
            os.chdir(cwd)
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
