"""specsel: quantitative spectroscopy with qualified preprocessing selection.

Principal component regression over sets of spectra, leave-one-out PRESS
cross-validation, and a one-way ANOVA significance gate that accepts or
rejects candidate preprocessing pipelines while picking the component count.

``import specsel`` loads no submodule: each public name below, and each
submodule, is imported at its first use (PEP 562), so a caller loads only
the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it gives the package
_PUBLIC = {
    "crossval": ("PressMatrix", "loo_press_matrix"),
    "decompose": ("PcaModel", "pca_fit", "project"),
    "errors": ("SpecselError",),
    "preprocess": ("IDENTITY", "Pipeline", "PipelineStep", "apply_pipeline",
                   "parse_pipeline"),
    "regress": ("PcrModel", "load_model", "pcr_fit", "pcr_predict", "press",
                "save_model"),
    "selector": ("HoldoutEvaluation", "SelectionReport", "evaluate_holdout",
                 "select_method", "train_final", "write_report"),
    "significance": ("AnovaResult", "BoxStats", "PcVerdict", "anova_oneway",
                     "boxplot_stats", "select_optimal_pc"),
    "spectra": ("ConcentrationSet", "SpectraSet", "load_concentrations",
                "load_spectra", "save_concentrations", "save_matrix",
                "save_spectra"),
    "synth": ("BaselineSpec", "SpeciesSpec", "SynthRecipe", "generate",
              "tears_phantom", "tears_recipe"),
    "_parallel": (),
}
_OWNER = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name):
    if name in _OWNER:
        return getattr(importlib.import_module(f".{_OWNER[name]}", __name__),
                       name)
    if name in _PUBLIC:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_PUBLIC})
