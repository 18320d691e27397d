"""Staged feature screening, logistic scorecard fitting, and decile evaluation."""

__version__ = "0.1.0"

from .errors import CellParseError, ComputationError, ScreenfitError, ValidationError
from .table import (
    ColumnKind,
    ColumnSpec,
    DataTable,
    TableSchema,
    impute_median,
    load_schema,
    load_table,
    save_schema,
    save_table,
    split_train_validation,
)
from .screening import (
    ChiSquareResult,
    IvResult,
    ScreeningReport,
    StagePlan,
    TTestResult,
    apply_level_mapping,
    chi_square_binary,
    merge_levels,
    occupancy_filter,
    run_screening,
    t_test_multivalued,
    woe_iv,
)
from .varclus import (
    ClusterSelection,
    CorrelationMatrix,
    VariableCluster,
    cluster_variables,
    select_representatives,
)
from .logit import (
    DesignMatrix,
    LogisticModel,
    StepwiseTrace,
    Term,
    chi2_sf,
    encode_design,
    fit_irls,
    global_null_lr,
    log_likelihood,
    prune_collinear,
    sbc,
    stepwise_select,
)
from .evaluation import (
    ConfusionMatrix,
    DecileRow,
    ScoreSet,
    assign_deciles,
    confusion_matrix,
    decile_table,
    score,
)
from .synthgen import GroundTruth, SyntheticSpec, generate, oracle_metrics
from .config import PipelineConfig, SplitConfig, StepwiseConfig, load_config
from .pipeline import PipelineResult, run_pipeline

__all__ = [
    "CellParseError", "ComputationError", "ScreenfitError", "ValidationError",
    "ColumnKind", "ColumnSpec", "DataTable", "TableSchema",
    "impute_median", "load_schema", "load_table", "save_schema", "save_table",
    "split_train_validation",
    "ChiSquareResult", "IvResult", "ScreeningReport", "StagePlan",
    "TTestResult", "apply_level_mapping", "chi_square_binary", "merge_levels",
    "occupancy_filter", "run_screening", "t_test_multivalued", "woe_iv",
    "ClusterSelection", "CorrelationMatrix", "VariableCluster", "cluster_variables",
    "select_representatives",
    "DesignMatrix", "LogisticModel", "StepwiseTrace", "Term", "chi2_sf",
    "encode_design", "fit_irls", "global_null_lr", "log_likelihood",
    "prune_collinear", "sbc", "stepwise_select",
    "ConfusionMatrix", "DecileRow", "ScoreSet", "assign_deciles",
    "confusion_matrix", "decile_table", "score",
    "GroundTruth", "SyntheticSpec", "generate", "oracle_metrics",
    "PipelineConfig", "SplitConfig", "StepwiseConfig", "load_config",
    "PipelineResult", "run_pipeline",
]
