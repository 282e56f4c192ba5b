"""specsel: quantitative spectroscopy with qualified preprocessing selection.

Principal component regression over sets of spectra, leave-one-out PRESS
cross-validation, and a one-way ANOVA significance gate that accepts or
rejects candidate preprocessing pipelines while picking the component count.
"""

from .crossval import PressMatrix, loo_press_matrix
from .decompose import PcaModel, pca_fit, project
from .errors import SpecselError
from .preprocess import (
    IDENTITY,
    Pipeline,
    PipelineStep,
    apply_pipeline,
    parse_pipeline,
)
from .regress import (
    PcrModel,
    load_model,
    pcr_fit,
    pcr_predict,
    press,
    save_model,
)
from .selector import (
    HoldoutEvaluation,
    SelectionReport,
    evaluate_holdout,
    select_method,
    train_final,
    write_report,
)
from .significance import (
    AnovaResult,
    BoxStats,
    PcVerdict,
    anova_oneway,
    boxplot_stats,
    select_optimal_pc,
)
from .spectra import (
    ConcentrationSet,
    SpectraSet,
    Spectrum,
    load_concentrations,
    load_spectra,
    save_concentrations,
    save_matrix,
    save_spectra,
)
from .synth import (
    BaselineSpec,
    SpeciesSpec,
    SynthRecipe,
    generate,
    tears_phantom,
    tears_recipe,
)

__version__ = "0.1.0"

__all__ = [
    "AnovaResult", "BaselineSpec", "BoxStats", "ConcentrationSet",
    "HoldoutEvaluation", "IDENTITY", "PcaModel", "PcrModel", "PcVerdict",
    "Pipeline", "PipelineStep", "PressMatrix", "SelectionReport",
    "SpeciesSpec", "SpecselError", "SpectraSet", "Spectrum", "SynthRecipe",
    "anova_oneway", "apply_pipeline", "boxplot_stats", "evaluate_holdout",
    "generate", "load_concentrations", "load_model", "load_spectra",
    "loo_press_matrix", "parse_pipeline", "pca_fit", "pcr_fit", "pcr_predict",
    "press", "project", "save_concentrations", "save_matrix", "save_model",
    "save_spectra", "select_method", "select_optimal_pc", "tears_phantom",
    "tears_recipe", "train_final", "write_report",
]
