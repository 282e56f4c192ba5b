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
model on a 200-spectrum batch; and three refusals, which exit 2 and write
only their log: ``synth --n 3``, ``crossval --pipeline "bogus(1)"`` and
``train --pc 0``.

Run with the same directory twice (``compare_outputs.py src src``), it
checks that every command writes the same bytes on two runs.

Exits 0 when every file matches, and 1 naming the first file (in sorted
order) that differs or that only one tree wrote.
"""

from __future__ import annotations

import argparse
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


def commands() -> list[list[str]]:
    """The specsel argument lists, in the order they run."""
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
        ["synth", "--n", "3", "--out-spectra", "n3_spectra.csv",
         "--out-concentrations", "n3_conc.csv"],
        ["crossval", "--spectra", "n8_seed7_spectra.csv",
         "--concentrations", "n8_seed7_conc.csv", "--pipeline", "bogus(1)",
         "--out-dir", "bogus_cv"],
        ["train", "--spectra", f"{TRAIN_SET}_spectra.csv",
         "--concentrations", f"{TRAIN_SET}_conc.csv", "--pc", "0",
         "--out-model", "pc0_model.json"],
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
        result = subprocess.run([sys.executable, "-c", CHILD_MAIN, *argv],
                                cwd=work, env=env, capture_output=True,
                                text=True)
        (work / f"{index:02d}_{argv[0]}.log").write_text(
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
    print(f"all {count} files identical ({len(commands())} commands)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
