"""Measure specsel's two user paths and write the figures to one JSON file.

Usage, from the root of a checkout:

    python tools/bench.py --out BENCH_<n>.json

It records:

- the environment: usable cores, the BLAS thread pin, the numpy, scipy and
  Python versions and the git commit (and whether the tree had changes);
- the default ``select`` (12-candidate grid, one thread) run in this
  process on ``tears_phantom(n, 7)`` for each n in ``SELECT_SIZES``: one
  warm-up, then ``SELECT_REPEATS`` timed runs, with the median and
  quartiles of the whole call and of its three stages (preprocessing,
  the rest of ``loo_press_matrix``, and the ANOVA gate), and the chosen
  pipeline and PC count;
- the peak resident memory of a ``specsel predict`` child on batches of
  each size in ``PREDICT_BATCHES``, with a model trained on
  ``tears_phantom(20, 7)`` with the README pipeline at 5 components.

A child's ``ru_maxrss`` carries the high-water mark of the process it was
started from, so each predict child is started by a small launcher (an
interpreter without numpy), which reports the child's peak from
``wait4`` and its own from ``/proc/self/status``; the run stops if the
launcher's own peak reaches ``LAUNCHER_MAX_MB``. Linux only. BLAS is
pinned to one thread here and in every child. Inputs are written to a
temporary directory, removed afterwards.
"""

from __future__ import annotations

import os

# pin BLAS before numpy loads, here and (through the environment) in children
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

from specsel import crossval, selector, synth  # noqa: E402
from specsel.cli import DEFAULT_CANDIDATES  # noqa: E402
from specsel.preprocess import parse_pipeline  # noqa: E402
from specsel.spectra import save_concentrations, save_spectra  # noqa: E402

SELECT_SIZES = (20, 40, 100)
SEED = 7
SELECT_REPEATS = 5
PREDICT_BATCHES = (1000, 5000)
PREDICT_REPEATS = 5
# the predict batch is tears_phantom(size, SEED + BATCH_SEED_OFFSET)
BATCH_SEED_OFFSET = 100000
README_PIPELINE = "baseline_als(100000,0.01,10)|rnv(75)"
TRAIN_N, TRAIN_PC = 20, 5
LAUNCHER_MAX_MB = 20.0
CHILD_MAIN = "import sys; from specsel.cli import main; sys.exit(main())"
# runs argv[1:], its standard output discarded, and prints its exit code,
# its peak RSS and this process's own peak RSS, both in kB
LAUNCHER = """
import os, sys
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ, file_actions=[
    (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
_, status, usage = os.wait4(pid, 0)
with open("/proc/self/status") as fh:
    own = next(int(l.split()[1]) for l in fh if l.startswith("VmHWM:"))
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, own)
"""


def summary(values) -> dict:
    """Median and quartiles (inclusive method) of ``values``."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def environment() -> dict:
    import scipy

    def git(*args):
        done = subprocess.run(["git", "-C", str(ROOT), *args],
                              capture_output=True, text=True, check=False)
        return done.stdout.strip()

    return {
        "cores": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_PIN,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "git_commit": git("rev-parse", "HEAD") or "unknown",
        "git_tree_changed": bool(git("status", "--porcelain", "--", "src")),
    }


class StageClock:
    """Seconds spent in each stage of ``select_method``: the names it and
    ``loo_press_matrix`` call are swapped for timed wrappers while the
    clock is entered."""

    STAGES = {"preprocess_s": (crossval, "apply_pipeline"),
              "loo_press_s": (selector, "loo_press_matrix"),
              "gate_s": (selector, "select_optimal_pc")}

    def __init__(self):
        self.seconds = dict.fromkeys(self.STAGES, 0.0)
        self._originals = {}

    def __enter__(self):
        for stage, (module, name) in self.STAGES.items():
            original = getattr(module, name)
            self._originals[stage] = original
            setattr(module, name, self._timed(stage, original))
        return self

    def __exit__(self, *exc):
        for stage, (module, name) in self.STAGES.items():
            setattr(module, name, self._originals[stage])

    def _timed(self, stage, fn):
        def wrapper(*args, **kwargs):
            begun = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[stage] += time.perf_counter() - begun
        return wrapper


def bench_select(n: int) -> dict:
    spectra, conc = synth.tears_phantom(n, SEED)
    grid = [parse_pipeline(text) for text in DEFAULT_CANDIDATES]
    selector.select_method(spectra, conc, grid)  # warm-up
    runs = []
    for _ in range(SELECT_REPEATS):
        with StageClock() as clock:
            begun = time.perf_counter()
            report = selector.select_method(spectra, conc, grid)
            total = time.perf_counter() - begun
        stages = dict(clock.seconds)
        # loo_press_matrix's own time, without the preprocessing it runs
        stages["loo_press_s"] -= stages["preprocess_s"]
        runs.append({"total_s": total, **stages})
    return {
        "n": n, "seed": SEED, "candidates": len(grid),
        "repeats": SELECT_REPEATS,
        **{key: summary([run[key] for run in runs]) for key in runs[0]},
        "chosen": [report.chosen_pipeline, report.chosen_pc],
        "chosen_significant": report.chosen_significant,
    }


def launched_peak(argv: list[str], work: Path) -> dict:
    """One launched ``specsel`` child: its peak and the launcher's, in MB."""
    env = dict(os.environ, **BLAS_PIN, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-S", "-c", LAUNCHER, sys.executable, "-c",
         CHILD_MAIN, *argv],
        cwd=work, env=env, capture_output=True, text=True, check=True)
    code, child_kb, own_kb = map(int, done.stdout.split())
    if code != 0:
        raise RuntimeError(f"specsel {argv[0]} exited {code}")
    if own_kb / 1024.0 >= LAUNCHER_MAX_MB:
        raise RuntimeError(f"launcher peaked at {own_kb / 1024.0:.1f} MB")
    return {"child_mb": child_kb / 1024.0, "launcher_mb": own_kb / 1024.0}


def bench_predict(work: Path) -> list[dict]:
    spectra, conc = synth.tears_phantom(TRAIN_N, SEED)
    save_spectra(work / "train_spectra.csv", spectra)
    save_concentrations(work / "train_conc.csv", conc, spectra.labels)
    launched_peak(["train", "--spectra", "train_spectra.csv",
                  "--concentrations", "train_conc.csv", "--pipeline",
                  README_PIPELINE, "--pc", str(TRAIN_PC), "--out-model",
                  "model.json"], work)
    results = []
    for size in PREDICT_BATCHES:
        batch, _ = synth.tears_phantom(size, SEED + BATCH_SEED_OFFSET)
        save_spectra(work / "batch_spectra.csv", batch)
        peaks = [launched_peak(["predict", "--model", "model.json",
                               "--spectra", "batch_spectra.csv",
                               "--out", "predictions.csv"], work)
                 for _ in range(PREDICT_REPEATS)]
        results.append({
            "batch": size, "matrix_mb": batch.matrix.nbytes / 2 ** 20,
            "repeats": PREDICT_REPEATS,
            "child_peak_mb": summary([p["child_mb"] for p in peaks]),
            "launcher_peak_mb": max(p["launcher_mb"] for p in peaks),
        })
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True,
                        help="JSON file to write")
    args = parser.parse_args(argv)
    result = {"environment": environment(),
              "select": [bench_select(n) for n in SELECT_SIZES]}
    with tempfile.TemporaryDirectory() as work:
        result["predict"] = bench_predict(Path(work))
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
