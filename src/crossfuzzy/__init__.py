"""Memristor-crossbar fuzzy-relation learning and inference simulator."""

from .crossbar import Crossbar, load_delta_csv, save_delta_csv
from .device import (
    DEFAULT_PARAMS,
    MemristorParams,
    apply_flux,
    beta,
)
from .fuzzy import (
    EmptyOutputError,
    FuzzyNumber,
    Universe,
    defuzzify_centroid,
    fuzzify_gaussian,
    normalize_peak,
    regrid,
)
from .harness import (
    EXPERIMENT_NAMES,
    Dataset,
    DatasetSpec,
    EvalSpec,
    ExperimentConfig,
    ExperimentResult,
    auto_t0,
    default_config,
    evaluate_mse,
    eval_points,
    generate_dataset,
    run_experiment,
    target_function,
    train_block,
)
from .relation import Relation, implication_f
from .system import (
    Block,
    Pipeline,
    Section,
    block_infer,
    block_train,
    model_from_json,
    model_to_json,
    pipeline_infer,
)

__version__ = "0.1.0"

__all__ = [
    "Block",
    "Crossbar",
    "DEFAULT_PARAMS",
    "Dataset",
    "DatasetSpec",
    "EXPERIMENT_NAMES",
    "EmptyOutputError",
    "EvalSpec",
    "ExperimentConfig",
    "ExperimentResult",
    "FuzzyNumber",
    "MemristorParams",
    "Pipeline",
    "Relation",
    "Section",
    "Universe",
    "apply_flux",
    "auto_t0",
    "beta",
    "block_infer",
    "block_train",
    "default_config",
    "defuzzify_centroid",
    "eval_points",
    "evaluate_mse",
    "fuzzify_gaussian",
    "generate_dataset",
    "implication_f",
    "load_delta_csv",
    "model_from_json",
    "model_to_json",
    "normalize_peak",
    "pipeline_infer",
    "regrid",
    "run_experiment",
    "save_delta_csv",
    "target_function",
    "train_block",
]
