"""Run a fixed table of specsel commands under two source trees and compare
every file they write, byte for byte.

Usage, from anywhere:

    python tools/compare_outputs.py PARENT_SRC CHANGE_SRC

Each argument is a directory holding the ``specsel`` package, such as a
checkout's ``src``. For each tree the steps of ``steps()`` run in order in
a fresh temporary directory, with that tree first on ``PYTHONPATH``, BLAS
pinned to one thread and only relative paths on the command line, so both
trees should write the same bytes. A step is either a specsel argument
list, whose exit code, standard output and standard error go to a numbered
log file there and are compared too, or a tuple of writers that make input
files from earlier outputs (``rewrite`` copies a CSV with some cells
changed, ``edit_json`` a JSON file with some entries changed, ``config``
writes a config file).

To add a case, append a step to ``steps()`` with a one-line comment on what
it pins, building its arguments with ``pair``, ``synth`` and ``crossval``.
Appending keeps the numbers of the earlier logs.

Run with the same directory twice (``compare_outputs.py src src``), it
checks that every command writes the same bytes on two runs.

Every command's log is also checked against the exit-code contract: it
exits 0, 2 or 3; its standard error holds no ``Traceback`` and no
``<Name>Warning:``; and an exit 2 leaves exactly one standard error line
starting ``error: ``.

Exits 0 when every file matches and every log keeps the contract.
Otherwise it prints one ``differs:`` line for each file, in sorted order,
that differs or that only one tree wrote, and one ``contract: <tree>
<log>`` line for each log that breaks the contract, and exits 1. The line
of a selection report that both trees wrote ends with ``(verdicts
unchanged)`` or ``(verdicts moved)``: whether the chosen pipeline, PC and
significance, and each candidate's ``VERDICT_KEYS``, are the same in both.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

CHILD_MAIN = "import sys; from specsel.cli import main; sys.exit(main())"
PHANTOMS = [(8, 7), (20, 7), (40, 11), (100, 7)]
README_PIPELINE = "baseline_als(100000,0.01,10)|rnv(75)"
TRAIN_SET = "n20_seed7"
# rows between quoted cells: fewer than a chunk of the 21-column body
QUOTE_EVERY = 64
RECIPE = {
    "axis_start": 400, "axis_stop": 1200, "axis_step": 4,
    "species": [
        {"name": "analyte", "peaks": [[600, 10, 1.0], [950, 12, 0.6]],
         "conc_range": [0.0, 2.0]},
        {"name": "matrix", "peaks": [[800, 20, 0.8]], "unit": "%"},
    ],
    "baseline": {"kind": "polynomial", "coeffs": [1.0, -0.5, 0.25],
                 "scale_range": [0.8, 1.2]},
    "noise_sigma": 0.005, "spike_rate": 1.5, "drift_range": [0.9, 1.1],
}
# refused: a species needs peaks
BAD_RECIPE = {"species": [{"name": "analyte"}]}
SCALED_SET = "n8_seed1"
# intensity scales whose squared norms overflow or underflow
SCALES = {"x2p600": 2.0 ** 600, "x1em320": 1e-320}
# concentrations whose squared prediction errors overflow
CONC_SCALE = 1e160
# an axis spacing whose square underflows to 0
FINE_SPACING = 2e-300
# an intensity scale whose centring overflows unless the fits divide first
HUGE_SCALE = 2.0 ** 1017
# what a selection report decides for each candidate
VERDICT_KEYS = ("ok", "significant", "optimal_pc", "candidate_set")
# a JSON integer too large for a float, which no file may give as a number
BIG = 10 ** 400
# an intensity scale whose stencils and score multiply-back overflow
MAX_SCALE = 5e307
# an intensity scale whose baseline_als solves overflow unless each row is
# divided by a power of two first
ALS_SCALE = 1e306
# one recipe or concentration value whose arithmetic passes the float range
FLOAT_MAX_VALUE = 1e308
# the exit codes of success, an input error and the not-significant fallback
EXIT_CODES = (0, 2, 3)
# a warning's category as Python prints it, such as RuntimeWarning:
WARNING = re.compile(r"\w+Warning:")


def pair(spectra: str, conc: str | None = None) -> list:
    """The options naming ``{spectra}_spectra.csv`` and, by default from
    the same tag, ``{conc}_conc.csv``."""
    return ["--spectra", f"{spectra}_spectra.csv",
            "--concentrations", f"{conc or spectra}_conc.csv"]


def synth(tag: str, *options: str) -> list:
    """``synth`` with ``options``, writing the CSV pair of ``tag``."""
    return ["synth", *options, "--out-spectra", f"{tag}_spectra.csv",
            "--out-concentrations", f"{tag}_conc.csv"]


def crossval(spectra: str, pipeline: str, out_dir: str,
             conc: str | None = None) -> list:
    """``crossval`` of ``pipeline`` on ``pair(spectra, conc)``."""
    return ["crossval", *pair(spectra, conc), "--pipeline", pipeline,
            "--out-dir", out_dir]


def rewrite(source: str, target: str, cells):
    """A writer that copies the CSV ``source`` in the working directory to
    ``target`` with LF line endings, the cells of its k-th body line (from
    0) replaced by ``cells(k, those cells)``."""
    def write(work: Path) -> None:
        header, *rows = (work / source).read_text().splitlines()
        body = [",".join(cells(k, row.split(",")))
                for k, row in enumerate(rows)]
        (work / target).write_text("\n".join([header, *body, ""]))
    return write


def scaled(factor: float, lead: int):
    """Cells for ``rewrite``: the ``lead`` first kept, the rest times
    ``factor``."""
    return lambda k, cells: [*cells[:lead],
                             *(repr(float(v) * factor) for v in cells[lead:])]


def edit_json(source: str, target: str, edit):
    """A writer that copies the JSON file ``source`` in the working
    directory to ``target``, its document changed in place by ``edit``."""
    def write(work: Path) -> None:
        document = json.loads((work / source).read_text())
        edit(document)
        (work / target).write_text(json.dumps(document))
    return write


def config(name: str, document: dict):
    """A writer of ``document`` as the config file ``{name}.json``."""
    def write(work: Path) -> None:
        (work / f"{name}.json").write_text(json.dumps(document))
    return write


def steps() -> list:
    """The steps in run order: a specsel argument list, or a tuple of
    writers, each called with the working directory."""
    table = []
    for n, seed in PHANTOMS:
        tag = f"n{n}_seed{seed}"
        table += [
            # synthesis and the CSV writer
            synth(tag, "--n", str(n), "--seed", str(seed)),
            # the default grid through the ANOVA gate to the report
            ["select", *pair(tag), "--out", f"{tag}_select.json"],
            # the gate on log10 PRESS
            ["select", *pair(tag), "--log-press",
             "--out", f"{tag}_select_log.json"],
            # one pipeline's PRESS matrix and box plots
            crossval(tag, "snv", f"{tag}_cv"),
        ]
    return table + [
        # the final fit and the model file, with the README pipeline
        ["train", *pair(TRAIN_SET), "--pipeline", README_PIPELINE,
         "--pc", "5", "--out-model", "model.json"],
        # a 200-spectrum batch
        synth("batch", "--n", "200", "--seed", "8"),
        # preprocessing and projection of new spectra
        ["predict", "--model", "model.json", "--spectra", "batch_spectra.csv",
         "--out", "predictions.csv"],
        # quoted cells, which the reader parses on its csv path
        (rewrite(f"{TRAIN_SET}_spectra.csv",
                 f"{TRAIN_SET}_quoted_spectra.csv",
                 lambda k, cells: [*cells[:-1], f'"{cells[-1]}"']
                 if k % QUOTE_EVERY == 0 else cells),),
        # that path gives the same PRESS as numpy's C reader
        crossval(f"{TRAIN_SET}_quoted", "snv", f"{TRAIN_SET}_quoted_cv",
                 TRAIN_SET),
        # refused, exit 2: too few spectra
        synth("n3", "--n", "3"),
        # refused, exit 2: an unknown operation
        crossval("n8_seed7", "bogus(1)", "bogus_cv"),
        # refused, exit 2: zero components
        ["train", *pair(TRAIN_SET), "--pc", "0",
         "--out-model", "pc0_model.json"],
        # a custom recipe and one without peaks
        (config("recipe", {"recipe": RECIPE}),
         config("bad_recipe", {"recipe": BAD_RECIPE})),
        # species as objects, a polynomial baseline and spikes
        ["--config", "recipe.json",
         *synth("recipe", "--n", "12", "--seed", "5")],
        # PRESS on the recipe's output
        crossval("recipe", "snv", "recipe_cv"),
        # refused, exit 2: a species without peaks
        ["--config", "bad_recipe.json", *synth("bad_recipe")],
        # exit 0 with one failed candidate in the report
        ["select", *pair("n8_seed7"), "--candidate", "snv",
         "--candidate", "peak_normalize(5000)",
         "--out", "failed_candidate_select.json"],
        # exit 2: a preprocessing failure's text
        crossval("n8_seed7", "baseline_als(1e300)", "failed_als_cv"),
        # the set that SCALES scales
        synth(SCALED_SET, "--n", "8", "--seed", "1"),
        # its intensities times each of SCALES
        tuple(rewrite(f"{SCALED_SET}_spectra.csv",
                      f"{SCALED_SET}_{tag}_spectra.csv", scaled(factor, 1))
              for tag, factor in SCALES.items()),
        # x2p600 exits 0, x1em320 exits 2
        *(crossval(f"{SCALED_SET}_{tag}", "identity",
                   f"{SCALED_SET}_{tag}_cv", SCALED_SET) for tag in SCALES),
        # refused, exit 2: the fit's design would overflow
        crossval("n8_seed7", "savgol(301,150,0)", "savgol_overflow_cv"),
        # the concentrations times CONC_SCALE
        (rewrite("n8_seed7_conc.csv", "n8_seed7_x1e160_conc.csv",
                 scaled(CONC_SCALE, 2)),),
        # refused, exit 2: squared prediction errors overflow
        crossval("n8_seed7", "snv", "n8_seed7_x1e160_cv", "n8_seed7_x1e160"),
        # exit 0 with no failed candidate at x2p600
        ["select", *pair(f"{SCALED_SET}_x2p600", SCALED_SET),
         "--out", f"{SCALED_SET}_x2p600_select.json"],
        # the axis at FINE_SPACING, 2 * FINE_SPACING, ...
        (rewrite("n8_seed7_spectra.csv", "n8_seed7_fine_spectra.csv",
                 lambda k, cells: [repr((k + 1) * FINE_SPACING),
                                   *cells[1:]]),),
        # derivative(2) exits 2, the spacing's square underflowing;
        # derivative(1) exits 0
        *(crossval("n8_seed7_fine", pipeline, f"n8_seed7_fine_{tag}_cv",
                   "n8_seed7")
          for tag, pipeline in (("d2", "derivative(2)"),
                                ("d1", "derivative(1)"))),
        # the intensities times HUGE_SCALE
        (rewrite("n8_seed7_spectra.csv", "n8_seed7_x2p1017_spectra.csv",
                 scaled(HUGE_SCALE, 1)),),
        # exit 0: the fits divide by a power of two before they centre
        crossval("n8_seed7_x2p1017", "identity", "n8_seed7_x2p1017_cv",
                 "n8_seed7"),
        # exit 0 with n8_seed7's choice
        ["select", *pair("n8_seed7_x2p1017", "n8_seed7"),
         "--out", "n8_seed7_x2p1017_select.json"],
        # a config whose alpha is BIG, the model with BIG in its coeffs and
        # the intensities times MAX_SCALE
        (config("big_alpha", {"alpha": BIG}),
         edit_json("model.json", "big_model.json",
                   lambda model: model["coeffs"][0].__setitem__(0, BIG)),
         rewrite("n8_seed7_spectra.csv", "n8_seed7_x5e307_spectra.csv",
                 scaled(MAX_SCALE, 1))),
        # refused, exit 2: alpha is not a finite number
        ["--config", "big_alpha.json", "select", *pair("n8_seed7"),
         "--out", "big_alpha_select.json"],
        # refused, exit 2: coeffs has a non-finite value
        ["predict", "--model", "big_model.json",
         "--spectra", "batch_spectra.csv", "--out", "big_predictions.csv"],
        # exit 0 with despike(7,8) at 5 PCs, the derivative(2)
        # candidates failed, and no numpy warning
        ["select", *pair("n8_seed7_x5e307", "n8_seed7"),
         "--out", "n8_seed7_x5e307_select.json"],
        # refused, exit 2: the flag's seed, in the words it has without a
        # recipe config
        ["--config", "recipe.json", *synth("bad_seed", "--seed", "-1")],
        # the intensities times ALS_SCALE
        (rewrite("n8_seed7_spectra.csv", "n8_seed7_x1e306_spectra.csv",
                 scaled(ALS_SCALE, 1)),),
        # exit 0 with n8_seed7's choice; the baseline_als candidates run
        ["select", *pair("n8_seed7_x1e306", "n8_seed7"),
         "--out", "n8_seed7_x1e306_select.json"],
        # RECIPE with FLOAT_MAX_VALUE as its first baseline coefficient or
        # its largest baseline scale, and the first concentration of
        # n8_seed7 at FLOAT_MAX_VALUE
        (*(edit_json("recipe.json", f"max_{key}_recipe.json",
                     lambda document, key=key, index=index:
                     document["recipe"]["baseline"][key].__setitem__(
                         index, FLOAT_MAX_VALUE))
           for key, index in (("coeffs", 0), ("scale_range", 1))),
         rewrite("n8_seed7_conc.csv", "n8_seed7_max_conc.csv",
                 lambda k, cells: [*cells[:2], repr(FLOAT_MAX_VALUE),
                                   *cells[3:]] if k == 0 else cells)),
        # refused, exit 2: a non-finite intensity, and no numpy warning
        *(["--config", f"max_{key}_recipe.json",
           *synth(f"max_{key}", "--n", "12", "--seed", "5")]
          for key in ("coeffs", "scale_range")),
        # refused, exit 2: PRESS is not finite, and no numpy warning
        crossval("n8_seed7", "snv", "n8_seed7_max_conc_cv", "n8_seed7_max"),
    ]


def tree_env(src: Path) -> dict:
    """The environment that imports specsel from ``src``; exits if it
    does not."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    found = subprocess.run(
        [sys.executable, "-c", "import specsel; print(specsel.__file__)"],
        env=env, capture_output=True, text=True)
    if found.returncode or not Path(found.stdout.strip()).is_relative_to(src):
        sys.exit(f"{src}: specsel is not imported from this directory "
                 f"({found.stdout.strip() or found.stderr.strip()})")
    return env


def run_all(env: dict, work: Path) -> None:
    """Run every step under ``env``, in ``work``."""
    for index, step in enumerate(steps()):
        if isinstance(step, tuple):
            for write in step:
                write(work)
            continue
        result = subprocess.run([sys.executable, "-c", CHILD_MAIN, *step],
                                cwd=work, env=env, capture_output=True,
                                text=True)
        command = step[2] if step[0] == "--config" else step[0]
        (work / f"{index:02d}_{command}.log").write_text(command_log(
            step, result.returncode, result.stdout, result.stderr))


def command_log(step: list, code: int, stdout: str, stderr: str) -> str:
    """The log of one specsel command: its arguments, exit code, standard
    output and standard error."""
    return (f"$ specsel {' '.join(step)}\nexit {code}\n"
            f"--- stdout\n{stdout}--- stderr\n{stderr}")


def breaks_contract(log: str) -> bool:
    """Whether the command of ``log``, as ``command_log`` writes it, breaks
    the exit-code contract."""
    head, _, stderr = log.partition("--- stderr\n")
    code = int(head.splitlines()[1].removeprefix("exit "))
    errors = sum(line.startswith("error: ") for line in stderr.splitlines())
    return (code not in EXIT_CODES or "Traceback" in stderr
            or WARNING.search(stderr) is not None
            or (code == 2 and errors != 1))


def verdicts(path: Path):
    """The chosen pipeline, PC and significance of the selection report at
    ``path``, and each candidate's pipeline and ``VERDICT_KEYS``; None if
    the file is not a selection report."""
    try:
        report = json.loads(path.read_bytes())
    except ValueError:
        return None
    if not (isinstance(report, dict)
            and report.get("report") == "specsel-selection"):
        return None
    return (report["chosen_pipeline"], report["chosen_pc"],
            report["chosen_significant"],
            [[c["pipeline"], *(c.get(k) for k in VERDICT_KEYS)]
             for c in report["candidates"]])


def differences(a: Path, b: Path) -> list[str]:
    """Every relative path, sorted, whose bytes differ under ``a`` and
    ``b`` or that exists under only one, a selection report's with whether
    its ``verdicts`` moved; empty when all match."""
    def files(root):
        return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}

    in_a, in_b = files(a), files(b)
    diffs = []
    for rel in sorted(in_a | in_b):
        if rel not in in_a or rel not in in_b:
            diffs.append(f"{rel} (written under one tree only)")
        elif (a / rel).read_bytes() != (b / rel).read_bytes():
            old, new = verdicts(a / rel), verdicts(b / rel)
            if old is None or new is None:
                diffs.append(str(rel))
            else:
                moved = "unchanged" if old == new else "moved"
                diffs.append(f"{rel} (verdicts {moved})")
    return diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    args = parser.parse_args(argv)
    envs = [tree_env(src.resolve()) for src in (args.parent_src,
                                                 args.change_src)]
    breaches = []
    with tempfile.TemporaryDirectory() as parent, \
            tempfile.TemporaryDirectory() as change:
        for src, env, work in zip((args.parent_src, args.change_src), envs,
                                  (Path(parent), Path(change))):
            run_all(env, work)
            breaches += [f"{src} {log.name}"
                         for log in sorted(work.glob("*.log"))
                         if breaks_contract(log.read_text())]
        diffs = differences(Path(parent), Path(change))
        count = sum(1 for p in Path(change).rglob("*") if p.is_file())
    for diff in diffs:
        print(f"differs: {diff}")
    for breach in breaches:
        print(f"contract: {breach}")
    if diffs or breaches:
        return 1
    runs = sum(not isinstance(step, tuple) for step in steps())
    print(f"all {count} files identical ({runs} commands)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
