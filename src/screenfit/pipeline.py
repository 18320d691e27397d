"""End-to-end orchestration: data -> screening -> split -> fit -> evaluation.

Stages run strictly in order: median imputation of numeric columns, the
screening cascade (which internally clusters survivors and selects
representatives), application of the learned categorical level merges,
the stratified train/validation split, design encoding with training
statistics, stepwise selection, collinearity pruning against the
validation set, and scoring of train, validation, and the out-of-sample
table.  Each stage's outputs land in the run directory as plain JSON or
CSV; the manifest written last lists every artifact (timings live only
there, so all other files are byte-stable across identical runs).
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from . import __version__
from .config import PipelineConfig
from .errors import ComputationError, ValidationError
from .evaluation import (
    CHART_COLUMNS,
    ScoreSet,
    chart_rows,
    confusion_matrix,
    decile_table,
    export_chart_data,
    metrics,
    score,
)
from .logit import (
    LogisticModel,
    encode_design,
    fit_irls,
    global_null_lr,
    model_from_dict,
    model_to_dict,
    prune_collinear,
    stepwise_select,
)
from .screening import LevelMapping, apply_level_mapping, run_screening
from .synthgen import generate, save_ground_truth
from .table import (
    DataTable,
    impute_numeric_columns,
    load_schema,
    load_table,
    save_schema,
    save_table,
    split_train_validation,
)

ARTIFACT_NAMES = [
    "screening_report.json",
    "cluster_report.json",
    "model.json",
    "decile_table.csv",
    "confusion_report.json",
    "charts.csv",
    "manifest.json",
]


def _write_json(obj: dict, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _apply_mappings(table: DataTable, mappings: dict[str, LevelMapping]) -> DataTable:
    names = set(table.schema.names)
    return apply_level_mapping(
        table, *(mapping for name, mapping in sorted(mappings.items()) if name in names)
    )


@dataclass
class PipelineResult:
    """In-memory view of a finished run, for library callers and tests."""

    model: LogisticModel
    screening_report: object
    final_variables: list[str]
    global_null: dict | None
    score_sets: dict[str, ScoreSet]
    deciles: dict[str, list]
    confusion: dict[str, dict]
    manifest: dict


def _load_input(csv_path: str, schema_path: str) -> DataTable:
    schema = load_schema(schema_path)
    return load_table(csv_path, schema)


def run_pipeline(config: PipelineConfig, out_dir: str | Path) -> PipelineResult:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    timings: dict[str, float] = {}

    def clocked(name: str, fn):
        t0 = time.perf_counter()
        result = fn()
        timings[name] = round(time.perf_counter() - t0, 6)
        return result

    # --- data
    if config.synthetic is not None:
        table, _truth = clocked("generate", lambda: generate(config.synthetic))
    else:
        table = clocked(
            "load", lambda: _load_input(config.input.csv, config.input.schema)
        )
    if config.out_of_sample is not None:
        oos_table = clocked(
            "out_of_sample_load",
            lambda: _load_input(config.out_of_sample.csv, config.out_of_sample.schema),
        )
    elif config.synthetic is not None:
        # Out-of-sample sibling: same data-generating process, fresh records.
        oos_table, _ = clocked(
            "out_of_sample_generate",
            lambda: generate(config.synthetic, sample_index=1),
        )
    else:
        oos_table = None

    table = clocked("impute", lambda: impute_numeric_columns(table))
    if oos_table is not None:
        oos_table = clocked(
            "out_of_sample_impute", lambda: impute_numeric_columns(oos_table)
        )

    # --- screening (includes clustering, occupancy, level merging)
    report = clocked("screening", lambda: run_screening(table, config.plan))
    _write_json(report.to_dict(), out / "screening_report.json")
    _write_json(report.cluster_selection.to_dict(), out / "cluster_report.json")

    final_vars = report.final_variables
    table = _apply_mappings(table, report.level_mappings)
    if oos_table is not None:
        oos_table = _apply_mappings(oos_table, report.level_mappings)

    # --- split and encode
    split = clocked(
        "split",
        lambda: split_train_validation(table, config.split.frac, config.split.seed),
    )
    train_design = encode_design(split.train, final_vars)
    valid_design = encode_design(
        split.validation, final_vars, template=train_design.terms
    )

    # --- fit
    model, trace = clocked(
        "stepwise",
        lambda: stepwise_select(
            train_design,
            p_enter=config.stepwise.p_enter,
            p_stay=config.stepwise.p_stay,
            max_terms=config.stepwise.max_terms,
        ),
    )
    if len(model.terms) >= 2:
        model = clocked(
            "prune",
            lambda: prune_collinear(
                model, train_design, valid_design, cutoff=config.prune_cutoff
            ),
        )
    gnull = global_null_lr(model, train_design) if model.terms else None

    model_doc = {
        "model": model_to_dict(model),
        "target": table.schema.target,
        "variables": final_vars,
        "level_mappings": {
            v: dict(sorted(m.mapping.items()))
            for v, m in sorted(report.level_mappings.items())
        },
        "global_null": gnull,
        "stepwise_trace": [asdict(step) for step in trace.steps],
    }
    _write_json(model_doc, out / "model.json")

    # --- evaluate
    datasets = {"train": split.train, "validation": split.validation}
    if oos_table is not None:
        datasets["out_of_sample"] = oos_table
    score_sets: dict[str, ScoreSet] = {}
    deciles: dict[str, list] = {}
    confusion: dict[str, dict] = {}
    t0 = time.perf_counter()
    for name, ds in datasets.items():
        ss = score(model, ds)
        score_sets[name] = ss
        deciles[name] = decile_table(ss)
        cm = confusion_matrix(ss, config.threshold)
        confusion[name] = asdict(cm) | asdict(metrics(cm))
    timings["evaluate"] = round(time.perf_counter() - t0, 6)

    export_chart_data(deciles["validation"], out / "decile_table.csv")
    with open(out / "charts.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["dataset"] + CHART_COLUMNS)
        for name in datasets:
            for row in chart_rows(deciles[name]):
                writer.writerow([name] + row)
    _write_json(
        {"threshold": config.threshold, "datasets": confusion},
        out / "confusion_report.json",
    )

    manifest = {
        "version": __version__,
        "config": config.to_dict(),
        "split": {
            "frac": config.split.frac,
            "seed": config.split.seed,
            "train_rows": split.train.n_records,
            "validation_rows": split.validation.n_records,
        },
        "artifacts": ARTIFACT_NAMES,
        "timings": timings,
    }
    _write_json(manifest, out / "manifest.json")

    missing = [a for a in ARTIFACT_NAMES if not (out / a).exists()]
    if missing:
        raise ComputationError(f"run finished but artifacts are missing: {missing}")

    return PipelineResult(
        model=model,
        screening_report=report,
        final_variables=final_vars,
        global_null=gnull,
        score_sets=score_sets,
        deciles=deciles,
        confusion=confusion,
        manifest=manifest,
    )


# ---------------------------------------------------------------------------
# Model-file round trip used by the score command


def write_synthetic_dataset(config: PipelineConfig, out_dir: str | Path) -> list[str]:
    """Materialize the synthetic table (data.csv, schema.json, ground_truth.json)."""
    if config.synthetic is None:
        raise ValidationError("config has no 'synthetic' section")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    table, truth = generate(config.synthetic)
    save_table(table, out / "data.csv")
    save_schema(table.schema, out / "schema.json")
    save_ground_truth(truth, out / "ground_truth.json")
    return ["data.csv", "schema.json", "ground_truth.json"]


def load_model_file(path: str | Path):
    """(model, target name, level mappings) from a model.json written by a run."""
    p = Path(path)
    if not p.exists():
        raise ValidationError(f"no such model file: {p}")
    with open(p, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{p}: invalid JSON: {exc}") from exc
    try:
        model = model_from_dict(doc["model"])
        target = doc["target"]
        mappings = {
            v: LevelMapping(variable=v, mapping=dict(m))
            for v, m in doc.get("level_mappings", {}).items()
        }
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"{p}: malformed model file: {exc}") from exc
    return model, target, mappings


def score_table_file(
    model_path: str | Path,
    csv_path: str | Path,
    schema_path: str | Path,
    out_path: str | Path,
) -> int:
    """Score a CSV with a saved model; writes id, probability, decile per record.

    The data must carry the training schema (outcome column included).
    Numeric gaps are median-imputed from the scored table itself.  Decile
    assignment needs at least ten records; smaller files get an empty
    decile column.
    """
    model, target, mappings = load_model_file(model_path)
    schema = load_schema(schema_path)
    if schema.target != target:
        raise ValidationError(
            f"schema target {schema.target!r} does not match model target {target!r}"
        )
    missing_vars = [
        v for v in model.source_variables() if v not in schema.names
    ]
    if missing_vars:
        raise ValidationError(
            f"data is missing required columns: {', '.join(missing_vars)}"
        )
    table = load_table(csv_path, schema)
    table = impute_numeric_columns(table)
    table = _apply_mappings(table, mappings)
    ss = score(model, table)
    from .evaluation import assign_deciles

    dec = assign_deciles(ss) if ss.n >= 10 else None
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "probability", "decile"])
        for i in range(ss.n):
            writer.writerow(
                [int(ss.ids[i]), repr(float(ss.p[i])), "" if dec is None else int(dec[i])]
            )
    return ss.n
