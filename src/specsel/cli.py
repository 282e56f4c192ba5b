"""Command-line interface.

Subcommands: validate, synth, crossval, select, train, predict. Each
command imports, when it starts, the specsel modules that not every
command runs, so ``validate``, ``synth`` and ``predict`` load neither
``crossval`` nor ``selector``. Exit codes are machine-readable: 0 success, 2 input or
validation failure (an allocation the input asks for that fails
included), 3 when a selection run had to fall back because no candidate
pipeline reached statistical significance.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .errors import IoFailure, SpecselError
from .significance import DEFAULT_ALPHA, boxplot_stats
from .spectra import (
    _number,
    load_concentrations,
    load_spectra,
    read_json,
    save_concentrations,
    save_matrix,
    save_spectra,
    write_csv,
)

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_NOT_SIGNIFICANT = 3

# candidate grid used when neither the command line nor the config gives one
DEFAULT_CANDIDATES = [
    "snv",
    "rnv(75)",
    "rnv(90)",
    "savgol(7,2,0)",
    "derivative(1)",
    "derivative(2)",
    "baseline_als(100000,0.01,10)",
    "despike(7,8)",
    "baseline_als(100000,0.01,10)|rnv(75)",
    "baseline_als(100000,0.01,10)|rnv(90)",
    "despike(7,8)|baseline_als(100000,0.01,10)",
    "savgol(7,2,0)|derivative(2)",
]


# each setting a flag or the config file can give: its default, the JSON
# type(s) it must have and the wording of its error; a float setting is
# read by spectra._number, the rule of every JSON file specsel reads
SETTINGS = {
    "n": (40, int, "an integer"),
    "seed": (0, int, "an integer"),
    "pipeline": ("identity", str, "a pipeline string"),
    "candidates": (DEFAULT_CANDIDATES, list, "a list of pipeline strings"),
    "alpha": (DEFAULT_ALPHA, float, "a finite number"),
    "log_press": (False, bool, "true or false"),
    "threads": (1, int, "an integer"),
}


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    config = read_json(path)
    try:
        if not isinstance(config, dict):
            raise SpecselError("config must be a JSON object")
        for key, (_, kind, what) in SETTINGS.items():
            if key not in config:
                continue
            value = config[key]
            if kind is float:
                config[key] = _number(value, f"config {key!r}")
            # JSON true and false are ints to isinstance, but not numbers
            elif (not isinstance(value, kind)
                    or (isinstance(value, bool) and kind is not bool)
                    or (kind is list and not all(isinstance(v, str)
                                                 for v in value))):
                raise SpecselError(
                    f"config {key!r} must be {what}, got {value!r}")
    except SpecselError as exc:
        raise SpecselError(f"{path}: {exc}") from None
    return config


def _setting(args, config: dict, key: str):
    value = getattr(args, key, None)
    return config.get(key, SETTINGS[key][0]) if value is None else value


def _load_pair(spectra_path, conc_path):
    spectra = load_spectra(spectra_path)
    conc = load_concentrations(conc_path, labels=spectra.labels)
    return spectra, conc


# --- subcommands ----------------------------------------------------------------

def cmd_validate(args, config) -> int:
    spectra, conc = _load_pair(args.spectra, args.concentrations)
    print(f"i={spectra.n_spectra} j={spectra.n_channels} q={conc.n_species}")
    return EXIT_OK


def cmd_synth(args, config) -> int:
    from . import synth

    recipe = synth.tears_recipe()
    if "recipe" in config:
        try:
            recipe = synth.recipe_from_dict(config["recipe"])
        except SpecselError as exc:
            raise SpecselError(f"{args.config}: {exc}") from exc
    # the seed is the flag's or the config's, so its refusal names no file
    recipe = replace(recipe, seed=_setting(args, config, "seed"))
    spectra, conc = synth.phantom(recipe, _setting(args, config, "n"))
    save_spectra(args.out_spectra, spectra)
    save_concentrations(args.out_concentrations, conc, spectra.labels)
    print(f"wrote {spectra.n_spectra} spectra x {spectra.n_channels} channels")
    return EXIT_OK


def cmd_crossval(args, config) -> int:
    from .crossval import loo_press_matrix
    from .preprocess import parse_pipeline

    spectra, conc = _load_pair(args.spectra, args.concentrations)
    pipeline = parse_pipeline(_setting(args, config, "pipeline"))
    matrix = loo_press_matrix(spectra, conc, pipeline)
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create {out_dir}: {exc}") from exc
    press_path = out_dir / "press_matrix.csv"
    save_matrix(press_path, matrix.values, matrix.column_headers(),
                row_labels=list(matrix.labels), row_label_header="held_out")
    box_path = out_dir / "boxplot.csv"
    _write_boxplot_csv(box_path, matrix)
    for note in matrix.notes:
        print(f"note: {note}")
    print(f"wrote {press_path} and {box_path}")
    return EXIT_OK


def _write_boxplot_csv(path, matrix) -> None:
    stats = boxplot_stats(matrix)
    header = ["pc", "q1", "median", "q3", "lo_whisker", "hi_whisker",
              "outliers"]
    write_csv(path, header, (
        ([b.pc, f"{b.q1:.9g}", f"{b.median:.9g}", f"{b.q3:.9g}",
          f"{b.lo_whisker:.9g}", f"{b.hi_whisker:.9g}",
          ";".join(f"{v:.9g}" for v in b.outliers)], ())
        for b in stats))


def cmd_select(args, config) -> int:
    from .preprocess import parse_pipeline
    from .selector import dataset_digest, select_method, write_report

    spectra, conc = _load_pair(args.spectra, args.concentrations)
    candidates = [parse_pipeline(t)
                  for t in _setting(args, config, "candidates")]
    report = select_method(spectra, conc, candidates,
                           alpha=_setting(args, config, "alpha"),
                           log_press=_setting(args, config, "log_press"),
                           workers=_setting(args, config, "threads"))
    inputs = {
        "spectra": str(args.spectra),
        "concentrations": str(args.concentrations),
        "spectra_sha256": spectra.source_sha256,
        "concentrations_sha256": conc.source_sha256,
        "dataset_digest": dataset_digest(spectra, conc),
        "i": spectra.n_spectra,
        "j": spectra.n_channels,
        "q": conc.n_species,
    }
    write_report(args.out, report, inputs=inputs,
                 include_timing=bool(args.timing))
    for alert in report.alerts:
        print(f"alert: {alert}", file=sys.stderr)
    print(f"chosen: {report.chosen_pipeline} with {report.chosen_pc} components"
          f" ({'significant' if report.chosen_significant else 'fallback'})")
    print(f"report: {args.out}")
    return EXIT_OK if report.chosen_significant else EXIT_NOT_SIGNIFICANT


def cmd_train(args, config) -> int:
    from .preprocess import parse_pipeline
    from .regress import save_model
    from .selector import train_final

    spectra, conc = _load_pair(args.spectra, args.concentrations)
    pipeline = parse_pipeline(_setting(args, config, "pipeline"))
    model = train_final(spectra, conc, pipeline, int(args.pc))
    save_model(args.out_model, model)
    fewer = (f"; {args.pc} requested" if model.n_components < args.pc
             else "")
    print(f"wrote model {args.out_model} ({pipeline.name}, "
          f"{model.n_components} components{fewer})")
    return EXIT_OK


def cmd_predict(args, config) -> int:
    from .preprocess import apply_pipeline, parse_pipeline
    from .regress import load_model, pcr_predict

    model = load_model(args.model)
    pipeline = parse_pipeline(model.pipeline_name)
    # no name holds the raw set, so it is freed once preprocessed
    processed = apply_pipeline(load_spectra(args.spectra), pipeline)
    estimates = pcr_predict(model, processed)
    save_matrix(args.out, estimates, list(processed.labels),
                row_labels=list(model.species), row_label_header="species")
    print(f"wrote predictions {args.out}")
    return EXIT_OK


# --- argument parsing -------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specsel",
        description=(
            "Quantify analyte concentrations from spectra via principal "
            "component regression, with ANOVA-gated selection of the "
            "preprocessing pipeline and component count."
        ),
    )
    parser.add_argument("--config", help="JSON config file with defaults")
    sub = parser.add_subparsers(dest="command", required=True)
    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("--spectra", required=True)
    pair.add_argument("--concentrations", required=True)

    p = sub.add_parser("validate", parents=[pair],
                       help="check a spectra/concentrations pair")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("synth", help="generate a synthetic phantom data set")
    p.add_argument("--out-spectra", required=True)
    p.add_argument("--out-concentrations", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("crossval", parents=[pair],
                       help="leave-one-out PRESS matrix for one pipeline")
    p.add_argument("--pipeline")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_crossval)

    p = sub.add_parser("select", parents=[pair],
                       help="qualify candidate pipelines and pick the best")
    p.add_argument("--candidate", dest="candidates", action="append",
                   help="pipeline description; repeatable")
    p.add_argument("--alpha", type=float)
    p.add_argument("--log-press", dest="log_press", action="store_const",
                   const=True)
    p.add_argument("--threads", type=int)
    p.add_argument("--timing", action="store_true",
                   help="include wall times in the report (breaks "
                        "byte-reproducibility)")
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("train", parents=[pair],
                       help="train a final model on the full set")
    p.add_argument("--pipeline")
    p.add_argument("--pc", type=int, required=True)
    p.add_argument("--out-model", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict concentrations of new spectra")
    p.add_argument("--model", required=True)
    p.add_argument("--spectra", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        return args.func(args, config)
    except SpecselError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except MemoryError as exc:
        # an input asked for more memory than the machine can give
        print(f"error: MemoryError: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
