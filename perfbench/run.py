"""specsel benchmark: end-to-end runs of the real CLI, and a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload select_n8 --seed 7 --seconds 45 --trace 0
    python3 perfbench/run.py --workload predict_batch --seed 11 --trace 1
    python3 perfbench/run.py --workload select_n8 --smoke   # tiny sizes

``--trace 0`` runs the workload's command as child processes of this one
(``python3 -c 'from specsel.cli import main; ...'``, which is what the
``specsel`` console script does) and reports the end-to-end metrics.
``--trace 1`` calls ``specsel.cli.main`` in this process with spans around
each module's public functions (see ``tracer.py``) and reports the
per-layer metrics. Every child, and this process, runs with BLAS pinned to
one thread, so ``--threads`` is the only parallelism. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. Inputs and reports are written under
``perfbench/out/work/`` and removed afterwards; results and spans stay in
``perfbench/out/results/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# pin BLAS before numpy loads, here and (through the environment) in children
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 3
IMPORT_REPEATS = 3
CHILD_TIMEOUT_S = 170
CHILD_MAIN = "import sys; from specsel.cli import main; sys.exit(main())"
# a select run's K phantom sets are tears_phantom(n, seed + DATASET_STRIDE*k);
# the first one is tears_phantom(n, seed) itself
DATASET_STRIDE = 1000
# predict: a model trained on tears_phantom(TRAIN_N, seed) with the README
# pipeline, applied to a batch from its own phantom stream
README_PIPELINE = "baseline_als(100000,0.01,10)|rnv(75)"
TRAIN_N = 20
TRAIN_PC = 5
BATCH_SEED_OFFSET = 100000
# the model must predict the batch better than its mean does: RMSEP at most
# this share of the true concentrations' standard deviation, per species
# (seeds 1-20 give 0.38-0.72)
RMSEP_MAX_SHARE = 0.85


@dataclass(frozen=True)
class Select:
    """``specsel select --threads 1`` on K phantom sets of n spectra each."""

    n: int
    datasets: int
    grid: tuple[str, ...] = ()   # empty: the CLI's default grid


@dataclass(frozen=True)
class Predict:
    """``specsel predict`` of a phantom batch with a model trained at set-up."""

    batch: int


WORKLOADS = {
    "select_n8": Select(n=8, datasets=24),
    "predict_batch": Predict(batch=1000),
}
SMOKE = {
    "select_n8": Select(n=6, datasets=1, grid=("snv", "derivative(1)")),
    "predict_batch": Predict(batch=20),
}
# the traced select run repeats its inputs at this thread count, for the
# candidate fan-out under contention
CONTENDED_THREADS = 2


# --- environment ---------------------------------------------------------------

def environment() -> dict:
    import scipy

    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((SRC / "specsel").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": np.show_config(mode="dicts")["Build Dependencies"],
        "blas_threads": BLAS_PIN,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


# --- inputs (file names are relative: everything runs in the work directory,
# so reports name the same input paths in every workload and checkout) ---------

def write_phantom(name: str, n: int, seed: int):
    """Phantom CSV pair from the program's own generator and writers."""
    from specsel import synth
    from specsel.spectra import save_concentrations, save_spectra

    spectra, conc = synth.tears_phantom(n, seed)
    save_spectra(f"{name}_spectra.csv", spectra)
    save_concentrations(f"{name}_conc.csv", conc, spectra.labels)
    return name


def write_select_inputs(w: Select, seed: int) -> list[str]:
    return [write_phantom(f"d{k}", w.n, seed + DATASET_STRIDE * k)
            for k in range(w.datasets)]


def write_predict_inputs(w: Predict, seed: int, run_cli):
    from specsel import synth
    from specsel.spectra import save_spectra

    write_phantom("train", TRAIN_N, seed)
    batch, truth = synth.tears_phantom(w.batch, seed + BATCH_SEED_OFFSET)
    save_spectra("batch_spectra.csv", batch)
    run_cli(["train", "--spectra", "train_spectra.csv",
             "--concentrations", "train_conc.csv", "--pipeline",
             README_PIPELINE, "--pc", str(TRAIN_PC), "--out-model",
             "model.json"])
    return batch, truth


def select_argv(w: Select, name: str, out: str, threads=1) -> list[str]:
    argv = ["select", "--spectra", f"{name}_spectra.csv",
            "--concentrations", f"{name}_conc.csv",
            "--threads", str(threads), "--out", out]
    for text in w.grid:
        argv += ["--candidate", text]
    return argv


def predict_argv(out: str) -> list[str]:
    return ["predict", "--model", "model.json", "--spectra",
            "batch_spectra.csv", "--out", out]


def grid_size(w: Select) -> int:
    from specsel.cli import DEFAULT_CANDIDATES

    return len(w.grid or DEFAULT_CANDIDATES)


# --- child processes -----------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ, **BLAS_PIN)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str]) -> dict:
    """Run one CLI command in a fresh interpreter; time it from start to exit."""
    with open("child_stderr.txt", "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", CHILD_MAIN, *argv],
                                env=child_env(), stdout=subprocess.DEVNULL,
                                stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0, "code": proc.returncode}


def import_seconds() -> float:
    """Median time to import the CLI in a fresh child."""
    code = ("import time; t = time.perf_counter(); import specsel.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-c", code], env=child_env(),
                              capture_output=True, text=True, check=True,
                              timeout=CHILD_TIMEOUT_S)
        times.append(float(done.stdout))
    return statistics.median(times)


def cli_inprocess(argv: list[str]) -> tuple[int, float]:
    """specsel.cli.main(argv) in this process, output swallowed, timed."""
    from specsel import cli

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        begun = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - begun
    return code, wall


# --- output checks -------------------------------------------------------------

def expected_choice(entries: list[dict]):
    """The selection rule: smallest PRESS sum among significant entries, or
    among all usable entries when none is significant; earlier wins ties."""
    usable = [e for e in entries if e["ok"]]
    significant = [e for e in usable if e["significant"]]
    best = min(significant or usable, key=lambda e: e["sum_press_at_optimal"])
    return best, bool(significant)


def check_select(path: str, code: int, n_candidates: int):
    """Problems found in one select run, and its verdict digest."""
    raw = Path(path).read_bytes() if Path(path).exists() else b""
    try:
        report = json.loads(raw)
    except json.JSONDecodeError:
        return [f"exit {code}; report missing or not JSON"], None
    problems = []
    if code not in (0, 3):
        problems.append(f"exit code {code}")
    entries = report.get("candidates", [])
    if len(entries) != n_candidates:
        problems.append(f"{len(entries)} report entries, expected {n_candidates}")
    digest = {
        "chosen_pipeline": report.get("chosen_pipeline"),
        "chosen_pc": report.get("chosen_pc"),
        "chosen_significant": report.get("chosen_significant"),
        "optimal_pc": {e["pipeline"]: e.get("optimal_pc") for e in entries},
        "report_sha256": hashlib.sha256(raw).hexdigest(),
    }
    if not any(e["ok"] for e in entries):
        return problems + ["no usable candidate"], digest
    best, significant = expected_choice(entries)
    if (digest["chosen_pipeline"], digest["chosen_pc"],
            digest["chosen_significant"]) != (
            best["pipeline"], best["optimal_pc"], significant):
        problems.append(
            f"chose {digest['chosen_pipeline']} at {digest['chosen_pc']}; "
            f"the rule gives {best['pipeline']} at {best['optimal_pc']}")
    if code != (0 if significant else 3):
        problems.append(f"exit code {code} with significant={significant}")
    return problems, digest


def predict_reference(batch):
    """Estimates from load_model -> apply_pipeline -> pcr_predict, in-process."""
    from specsel.preprocess import apply_pipeline, parse_pipeline
    from specsel.regress import load_model, pcr_predict

    model = load_model("model.json")
    processed = apply_pipeline(batch, parse_pipeline(model.pipeline_name))
    return pcr_predict(model, processed), model.species


def check_predict(path: str, code: int, reference, species, truth) -> list[str]:
    if code != 0:
        return [f"exit code {code}"]
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        names = [row[0] for row in rows[1:]]
        values = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
    except (OSError, ValueError, IndexError) as exc:
        return [f"unreadable predictions: {exc}"]
    if tuple(names) != tuple(species) or values.shape != reference.shape:
        return [f"predictions have rows {names} and shape {values.shape}"]
    problems = []
    if not np.array_equal(values, reference):
        problems.append("predictions differ from the in-process reference")
    rmsep = np.sqrt(np.mean((values - truth) ** 2, axis=1))
    for name, err, spread in zip(species, rmsep, truth.std(axis=1)):
        if not err <= RMSEP_MAX_SHARE * spread:
            problems.append(f"RMSEP {name} {err:.4g} above "
                            f"{RMSEP_MAX_SHARE} x {spread:.4g}")
    return problems


# --- end-to-end runs -------------------------------------------------------------

def timed_setups(prepare):
    """Run the set-up SETUP_REPEATS times; return its times and last result."""
    times = []
    for _ in range(SETUP_REPEATS):
        begun = time.perf_counter()
        result = prepare()
        subprocess.run([sys.executable, "-c", "import specsel.cli"],
                       env=child_env(), check=True, timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - begun)
    return times, result


def measure_passes(seconds: float, one_pass) -> list[list[dict]]:
    """Repeat whole passes while the next one still fits in ``seconds``."""
    passes, started, last = [], time.perf_counter(), 0.0
    while not passes or time.perf_counter() - started + last <= seconds:
        begun = time.perf_counter()
        passes.append(one_pass())
        last = time.perf_counter() - begun
    return passes


def end_to_end(passes, setup_times, printed, details) -> dict:
    """Median over passes of each pass's mean child; set-up median."""
    def per_pass(key):
        return statistics.median(
            statistics.fmean(c[key] for c in runs) for runs in passes)
    children = [c for runs in passes for c in runs]
    failed = sum(1 for c in children if c["problems"])
    wall = per_pass("wall_s")
    return {
        "correct": failed == 0 and not details.get("problems"),
        "attempted": len(children), "failed": failed,
        "metrics": {
            "wall_s": (wall, "s"),
            "cpu_s": (per_pass("cpu_s"), "s"),
            "peak_rss_mb": (statistics.median(c["peak_rss_mb"]
                                              for c in children), "MB"),
            "setup_s": (statistics.median(setup_times), "s"),
        },
        "printed": {**{k: (count / wall, "1/s")
                       for k, count in printed.items()},
                    "failed_frac": (failed / len(children), "ratio")},
        "samples": {"children": len(children), "passes": len(passes),
                    "setups": len(setup_times)},
        "children": children, "setup_times": setup_times, **details,
    }


def run_select(w: Select, seed: int, seconds: float) -> dict:
    n_candidates = grid_size(w)
    setup_times, names = timed_setups(lambda: write_select_inputs(w, seed))
    first_sha: dict[str, str] = {}
    verdicts: dict[str, dict] = {}

    def one_pass():
        runs = []
        for name in names:
            report = f"report_{name}.json"
            Path(report).unlink(missing_ok=True)
            child = run_child(select_argv(w, name, report))
            problems, digest = check_select(report, child["code"],
                                            n_candidates)
            if digest is not None:
                sha = first_sha.setdefault(name, digest["report_sha256"])
                if sha != digest["report_sha256"]:
                    problems.append("report bytes differ between passes")
                verdicts[name] = digest
            child["problems"] = problems
            runs.append(child)
        return runs

    passes = measure_passes(seconds, one_pass)
    return end_to_end(passes, setup_times,
                      {"folds_per_s": n_candidates * w.n},
                      {"verdicts": verdicts})


def run_predict(w: Predict, seed: int, seconds: float) -> dict:
    problems = []

    def train(argv):
        code = run_child(argv)["code"]
        if code != 0:
            problems.append(f"train exited {code}")

    setup_times, (batch, truth) = timed_setups(
        lambda: write_predict_inputs(w, seed, train))
    reference, species = predict_reference(batch)

    def one_pass():
        out = "predictions.csv"
        Path(out).unlink(missing_ok=True)
        child = run_child(predict_argv(out))
        child["problems"] = check_predict(out, child["code"], reference,
                                          species, truth.matrix)
        return [child]

    passes = measure_passes(seconds, one_pass)
    return end_to_end(passes, setup_times, {"spectra_per_s": w.batch},
                      {"problems": problems})


# --- traced run ------------------------------------------------------------------

def traced(tracer, run: str, fn, *args):
    tracer.run = run
    with tracer:
        return fn(*args)


def trace_select(w: Select, seed: int, tracer) -> dict:
    """Untraced and traced in-process runs of every phantom set, then
    traced runs at CONTENDED_THREADS."""
    n_candidates = grid_size(w)
    names = traced(tracer, "setup", write_select_inputs, w, seed)
    problems, failed, reports, verdicts = [], set(), {}, {}

    def run(name, tag, trace_run, threads=1):
        out = f"report_{name}_{tag}.json"
        argv = select_argv(w, name, out, threads)
        code, wall = (traced(tracer, trace_run, cli_inprocess, argv)
                      if trace_run else cli_inprocess(argv))
        found, digest = check_select(out, code, n_candidates)
        problems.extend(f"{name} {tag}: {p}" for p in found)
        if found:
            failed.add((name, tag))
        reports.setdefault(name, set()).add(Path(out).read_bytes()
                                            if Path(out).exists() else b"")
        verdicts[name] = digest
        return wall

    plain = sum(run(name, "untraced", None) for name in names)
    with_spans = sum(run(name, "traced", "measured") for name in names)
    for name in names:
        run(name, "contended", "contended", threads=CONTENDED_THREADS)
    for name, seen in reports.items():
        if len(seen) != 1:
            problems.append(f"{name}: reports differ between runs")
            failed.add((name, "traced"))
    return traced_result(tracer, with_spans - plain, 3 * len(names),
                         len(failed), problems, {"verdicts": verdicts})


def trace_predict(w: Predict, seed: int, tracer) -> dict:
    problems, failed, outputs = [], set(), set()

    def train(argv):
        code, _ = cli_inprocess(argv)
        if code != 0:
            problems.append(f"train exited {code}")

    batch, truth = traced(tracer, "setup", write_predict_inputs, w, seed, train)
    reference, species = predict_reference(batch)

    def run(tag, trace_run):
        out = f"predictions_{tag}.csv"
        argv = predict_argv(out)
        code, wall = (traced(tracer, trace_run, cli_inprocess, argv)
                      if trace_run else cli_inprocess(argv))
        found = check_predict(out, code, reference, species, truth.matrix)
        problems.extend(f"{tag}: {p}" for p in found)
        if found:
            failed.add(tag)
        outputs.add(Path(out).read_bytes() if Path(out).exists() else b"")
        return wall

    plain_wall = run("untraced", None)
    traced_wall = run("traced", "measured")
    if len(outputs) != 1:
        problems.append("traced and untraced predictions differ")
        failed.add("traced")
    return traced_result(tracer, traced_wall - plain_wall, 2, len(failed),
                         problems, {})


def traced_result(tracer, overhead, attempted, failed, problems,
                  details) -> dict:
    from tracer import layer_metrics

    runs = {"setup": [], "measured": [], "contended": []}
    for span in tracer.spans:
        runs[span["run"]].append(span)
    metrics = {"cli.import_s": (import_seconds(), "s")}
    metrics.update(layer_metrics(**runs))
    metrics["trace.overhead_s"] = (overhead, "s")
    return {
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": metrics, "printed": {},
        "samples": {"runs": attempted, "spans": len(tracer.spans)},
        "problems": problems, **details,
    }


# --- entry point -------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: n=6, two candidates, 20 spectra")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "specsel" / "__init__.py").is_file():
        print(f"error: no specsel sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    w = (SMOKE if args.smoke else WORKLOADS)[args.workload]
    stem = (f"{args.workload}{'-smoke' if args.smoke else ''}"
            f"-seed{args.seed}-trace{args.trace}")
    work = OUT / "work" / stem
    results = OUT / "results"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results.mkdir(parents=True, exist_ok=True)
    tracer, cwd = None, os.getcwd()
    try:
        os.chdir(work)
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            trace = trace_select if isinstance(w, Select) else trace_predict
            result = trace(w, args.seed, tracer)
        else:
            run = run_select if isinstance(w, Select) else run_predict
            result = run(w, args.seed, args.seconds)
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)

    metrics = {k: {"value": v, "unit": u}
               for k, (v, u) in result.pop("metrics").items()}
    record = {"workload": args.workload, "settings": vars(args),
              "definition": repr(w), "environment": environment(),
              "metrics": metrics, **result}
    with open(results / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    if tracer is not None:
        with open(results / f"{stem}-spans.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"samples={result['samples']}")
    shown = {**{k: (m["value"], m["unit"]) for k, m in metrics.items()},
             **result["printed"]}
    for name, (value, unit) in shown.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    for problem in result.get("problems", []) + [
            p for c in result.get("children", []) for p in c["problems"]]:
        print(f"check failed: {problem}")
    print(f"# results: {results / (stem + '.json')}")
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
