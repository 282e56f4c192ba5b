"""Run a fixed list of specsel commands under two source trees and compare
every file they write, byte for byte.

Usage, from anywhere:

    python tools/compare_outputs.py PARENT_SRC CHANGE_SRC

Each argument is a directory holding the ``specsel`` package, such as a
checkout's ``src``. For each tree the commands run in a fresh temporary
directory, with that tree first on ``PYTHONPATH``, BLAS pinned to one
thread and only relative paths on the command line, so both trees should
write the same bytes. Each command's exit code, standard output and
standard error go to a log file there and are compared too.

The commands: ``synth``, then ``select`` on the default grid with and
without ``--log-press``, and ``crossval --pipeline snv``, on
``tears_phantom`` (8, 7), (20, 7), (40, 11) and (100, 7); ``train`` with
the README pipeline at 5 components on (20, 7); ``predict`` with that
model on a 200-spectrum batch; ``crossval --pipeline snv`` on a copy of
the (20, 7) spectra CSV with LF line endings and a quoted cell every
``QUOTE_EVERY`` rows, which the reader parses on its csv path, not with
numpy's C reader; ``synth --config`` with the custom ``RECIPE`` (species
as objects, a polynomial baseline and spikes) and ``crossval --pipeline
snv`` on its output; four refusals, which exit 2 and write only their
log: ``synth --n 3``, ``crossval --pipeline "bogus(1)"``,
``train --pc 0`` and ``synth --config`` with ``BAD_RECIPE``; and two
preprocessing failures on (8, 7), so that their text is compared too:
``select --candidate snv --candidate "peak_normalize(5000)"``, which exits
0 with one failed entry, and ``crossval --pipeline "baseline_als(1e300)"``,
which exits 2; and ``crossval --pipeline identity`` on copies of the
(8, 1) spectra CSV with every intensity times each of ``SCALES``, whose
norms overflow or underflow if squared: ×2^600 exits 0 and ×1e-320 exits 2;
then two more refusals on (8, 7), which exit 2 and write only their log:
``crossval --pipeline "savgol(301,150,0)"``, whose fit's design would
overflow, and ``crossval --pipeline snv`` on a copy of the concentrations
CSV with every concentration times ``CONC_SCALE`` (1e160), whose squared
prediction errors overflow; last, the default ``select`` on the (8, 1)
×2^600 copy, which exits 0 with no failed candidate.

Run with the same directory twice (``compare_outputs.py src src``), it
checks that every command writes the same bytes on two runs.

Exits 0 when every file matches, and 1 naming the first file (in sorted
order) that differs or that only one tree wrote.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CHILD_MAIN = "import sys; from specsel.cli import main; sys.exit(main())"
PHANTOMS = [(8, 7), (20, 7), (40, 11), (100, 7)]
README_PIPELINE = "baseline_als(100000,0.01,10)|rnv(75)"
TRAIN_SET = "n20_seed7"
BATCH_N, BATCH_SEED = 200, 8
QUOTED_SET = "n20_seed7_quoted"
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
SCALES = {"x2p600": 2.0 ** 600, "x1em320": 1e-320}
# concentrations whose squared prediction errors overflow
CONC_SCALE = 1e160


def write_quoted_copy(work: Path) -> None:
    """Copy the (20, 7) spectra CSV in ``work`` with LF line endings and the
    last cell of every ``QUOTE_EVERY``-th line quoted."""
    lines = (work / f"{TRAIN_SET}_spectra.csv").read_bytes().split(b"\r\n")
    for n in range(1, len(lines) - 1, QUOTE_EVERY):
        head, _, last = lines[n].rpartition(b",")
        lines[n] = head + b',"' + last + b'"'
    (work / f"{QUOTED_SET}_spectra.csv").write_bytes(b"\n".join(lines))


def write_scaled_copies(work: Path) -> None:
    """Copy the (8, 1) spectra CSV in ``work`` once per ``SCALES`` entry,
    with every intensity (not the axis) times that scale."""
    header, *rows = (work / f"{SCALED_SET}_spectra.csv").read_text().split()
    for tag, scale in SCALES.items():
        scaled = [",".join([axis, *(repr(float(v) * scale) for v in values)])
                  for axis, *values in (row.split(",") for row in rows)]
        (work / f"{SCALED_SET}_{tag}_spectra.csv").write_text(
            "\n".join([header, *scaled]) + "\n")


def write_scaled_concentrations(work: Path) -> None:
    """Copy the (8, 7) concentrations CSV in ``work`` with every
    concentration times ``CONC_SCALE``."""
    header, *rows = (work / "n8_seed7_conc.csv").read_text().splitlines()
    scaled = [",".join([name, unit, *(repr(float(v) * CONC_SCALE)
                                      for v in values)])
              for name, unit, *values in (row.split(",") for row in rows)]
    (work / "n8_seed7_x1e160_conc.csv").write_text(
        "\n".join([header, *scaled]) + "\n")


def write_recipe_configs(work: Path) -> None:
    """Write ``RECIPE`` and ``BAD_RECIPE`` as config files in ``work``."""
    for name, recipe in (("recipe", RECIPE), ("bad_recipe", BAD_RECIPE)):
        (work / f"{name}.json").write_text(json.dumps({"recipe": recipe}))


def commands() -> list:
    """The specsel argument lists, in the order they run; a function in the
    list is called with the working directory instead."""
    runs = []
    for n, seed in PHANTOMS:
        tag = f"n{n}_seed{seed}"
        pair = ["--spectra", f"{tag}_spectra.csv",
                "--concentrations", f"{tag}_conc.csv"]
        runs += [
            ["synth", "--n", str(n), "--seed", str(seed),
             "--out-spectra", f"{tag}_spectra.csv",
             "--out-concentrations", f"{tag}_conc.csv"],
            ["select", *pair, "--out", f"{tag}_select.json"],
            ["select", *pair, "--log-press", "--out", f"{tag}_select_log.json"],
            ["crossval", *pair, "--pipeline", "snv", "--out-dir", f"{tag}_cv"],
        ]
    return runs + [
        ["train", "--spectra", f"{TRAIN_SET}_spectra.csv",
         "--concentrations", f"{TRAIN_SET}_conc.csv",
         "--pipeline", README_PIPELINE, "--pc", "5", "--out-model", "model.json"],
        ["synth", "--n", str(BATCH_N), "--seed", str(BATCH_SEED),
         "--out-spectra", "batch_spectra.csv",
         "--out-concentrations", "batch_conc.csv"],
        ["predict", "--model", "model.json", "--spectra", "batch_spectra.csv",
         "--out", "predictions.csv"],
        write_quoted_copy,
        ["crossval", "--spectra", f"{QUOTED_SET}_spectra.csv",
         "--concentrations", f"{TRAIN_SET}_conc.csv", "--pipeline", "snv",
         "--out-dir", f"{QUOTED_SET}_cv"],
        ["synth", "--n", "3", "--out-spectra", "n3_spectra.csv",
         "--out-concentrations", "n3_conc.csv"],
        ["crossval", "--spectra", "n8_seed7_spectra.csv",
         "--concentrations", "n8_seed7_conc.csv", "--pipeline", "bogus(1)",
         "--out-dir", "bogus_cv"],
        ["train", "--spectra", f"{TRAIN_SET}_spectra.csv",
         "--concentrations", f"{TRAIN_SET}_conc.csv", "--pc", "0",
         "--out-model", "pc0_model.json"],
        write_recipe_configs,
        ["--config", "recipe.json", "synth", "--n", "12", "--seed", "5",
         "--out-spectra", "recipe_spectra.csv",
         "--out-concentrations", "recipe_conc.csv"],
        ["crossval", "--spectra", "recipe_spectra.csv",
         "--concentrations", "recipe_conc.csv", "--pipeline", "snv",
         "--out-dir", "recipe_cv"],
        ["--config", "bad_recipe.json", "synth",
         "--out-spectra", "bad_recipe_spectra.csv",
         "--out-concentrations", "bad_recipe_conc.csv"],
        ["select", "--spectra", "n8_seed7_spectra.csv",
         "--concentrations", "n8_seed7_conc.csv", "--candidate", "snv",
         "--candidate", "peak_normalize(5000)",
         "--out", "failed_candidate_select.json"],
        ["crossval", "--spectra", "n8_seed7_spectra.csv",
         "--concentrations", "n8_seed7_conc.csv",
         "--pipeline", "baseline_als(1e300)", "--out-dir", "failed_als_cv"],
        ["synth", "--n", "8", "--seed", "1",
         "--out-spectra", f"{SCALED_SET}_spectra.csv",
         "--out-concentrations", f"{SCALED_SET}_conc.csv"],
        write_scaled_copies,
    ] + [
        ["crossval", "--spectra", f"{SCALED_SET}_{tag}_spectra.csv",
         "--concentrations", f"{SCALED_SET}_conc.csv", "--pipeline",
         "identity", "--out-dir", f"{SCALED_SET}_{tag}_cv"]
        for tag in SCALES
    ] + [
        ["crossval", "--spectra", "n8_seed7_spectra.csv",
         "--concentrations", "n8_seed7_conc.csv",
         "--pipeline", "savgol(301,150,0)", "--out-dir", "savgol_overflow_cv"],
        write_scaled_concentrations,
        ["crossval", "--spectra", "n8_seed7_spectra.csv",
         "--concentrations", "n8_seed7_x1e160_conc.csv", "--pipeline", "snv",
         "--out-dir", "n8_seed7_x1e160_cv"],
        ["select", "--spectra", f"{SCALED_SET}_x2p600_spectra.csv",
         "--concentrations", f"{SCALED_SET}_conc.csv",
         "--out", f"{SCALED_SET}_x2p600_select.json"],
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
    """Run every command under ``env``, in ``work``."""
    for index, argv in enumerate(commands()):
        if callable(argv):
            argv(work)
            continue
        result = subprocess.run([sys.executable, "-c", CHILD_MAIN, *argv],
                                cwd=work, env=env, capture_output=True,
                                text=True)
        command = argv[2] if argv[0] == "--config" else argv[0]
        (work / f"{index:02d}_{command}.log").write_text(
            f"$ specsel {' '.join(argv)}\nexit {result.returncode}\n"
            f"--- stdout\n{result.stdout}--- stderr\n{result.stderr}")


def first_difference(a: Path, b: Path) -> str | None:
    """The first relative path, sorted, whose bytes differ under ``a`` and
    ``b`` or that exists under only one; None when all match."""
    def files(root):
        return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}

    in_a, in_b = files(a), files(b)
    for rel in sorted(in_a | in_b):
        if rel not in in_a or rel not in in_b:
            return f"{rel} (written under one tree only)"
        if (a / rel).read_bytes() != (b / rel).read_bytes():
            return str(rel)
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    args = parser.parse_args(argv)
    envs = [tree_env(src.resolve()) for src in (args.parent_src,
                                                 args.change_src)]
    with tempfile.TemporaryDirectory() as parent, \
            tempfile.TemporaryDirectory() as change:
        for env, work in zip(envs, (parent, change)):
            run_all(env, Path(work))
        diff = first_difference(Path(parent), Path(change))
        count = sum(1 for p in Path(change).rglob("*") if p.is_file())
    if diff:
        print(f"differs: {diff}")
        return 1
    runs = sum(not callable(argv) for argv in commands())
    print(f"all {count} files identical ({runs} commands)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
