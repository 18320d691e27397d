"""End-to-end orchestration: data -> screening -> split -> fit -> evaluation.

Stages run strictly in order: imputation of every gap of every predictor
(the one gap rule: a continuous or likelihood column takes its median, a
binary or categorical one its most frequent code, so no later stage
meets a gap), the screening cascade (which internally clusters
survivors and selects representatives), the cut of the table to the
screened variables plus the target, the out-of-sample table (loaded or
generated at the same columns, made ready), application of the learned
categorical level merges, the stratified train/validation split, design
encoding with training statistics, stepwise selection, collinearity
pruning against the validation set, and scoring of train, validation,
and the out-of-sample table.  The training table is cut
before the out-of-sample one is made, and a generated sibling is drawn
at the screened columns only, so at most one full-width table is alive
at a time, and none once screening ends.  No artifact is written before
every dataset is scored: a run that stops earlier leaves none.  The
out-of-sample CSV and a file given to `score` take the same two steps,
`_load_scored` and `_ready`, whose docstrings give their rules.  Each
stage's outputs land in the run directory as plain JSON or CSV.  The
manifest, written last, holds the package version, the config as run,
the train and validation row counts, the artifact names and the seconds
on each clock (timings live only there, so all other files are
byte-stable across identical runs).
Every step but the manifest's own write runs under a clock: `generate`
or `load`, `impute`, `screening` (with the cut), `out_of_sample_generate`
or `out_of_sample_load`, `out_of_sample_impute`, `split` (with the level
merges), `encode`, `stepwise`, `prune` (with the global-null test),
`evaluate`, and `write` for the artifact writes.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from . import __version__
from .config import PipelineConfig
from .errors import ValidationError
from .evaluation import (
    CHART_COLUMNS,
    N_DECILES,
    ScoreSet,
    assign_deciles,
    chart_rows,
    confusion_matrix,
    decile_table,
    score,
)
from .logit import (
    LogisticModel,
    encode_design,
    global_null_lr,
    model_from_dict,
    model_to_dict,
    prune_collinear,
    stepwise_select,
)
from .screening import ScreeningReport, apply_level_mapping, run_screening
from .synthgen import generate
from .table import (
    DataTable,
    check_writable,
    impute_numeric_columns,
    load_schema,
    load_table,
    read_json,
    save_schema,
    save_table,
    split_train_validation,
    write_csv,
    write_json,
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


def _load_scored(
    csv_path: str | Path, schema_path: str | Path, target: str, variables: list[str]
) -> DataTable:
    """A CSV to score, read with only the variables and the target kept; a schema
    with another target or without a variable raises before the CSV is read.
    The header and the width of every row are checked, but a bad cell in any
    other column is not read, so it raises nothing."""
    schema = load_schema(schema_path)
    if schema.target != target:
        raise ValidationError(
            f"schema target {schema.target!r} does not match model target {target!r}"
        )
    missing = [v for v in variables if v not in schema.names]
    if missing:
        raise ValidationError(f"data is missing required columns: {', '.join(missing)}")
    return load_table(csv_path, schema, variables)


def _ready(table: DataTable, mappings: dict[str, dict[str, str]]) -> DataTable:
    """A table to score: every gap filled from the table itself, as in
    training, and the level mappings of the columns it holds applied."""
    table = impute_numeric_columns(table)
    names = set(table.schema.names)
    return apply_level_mapping(table, {v: m for v, m in mappings.items() if v in names})


def _make_dir(out_dir: str | Path) -> Path:
    """The output directory, made with its parents if missing; a path that
    cannot be one raises :class:`ValidationError` naming it."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"{out}: cannot make the output directory: {exc.strerror}") from exc
    return out


@dataclass
class PipelineResult:
    """In-memory view of a finished run, for library callers and tests.

    ``model`` is the pruned model with the encoder's warnings ahead of its
    own; ``screening_report`` is the cascade's report, final variables and
    level mappings included; ``score_sets`` and ``confusion`` hold the
    scores and the confusion-matrix dict of each scored dataset (train,
    validation and, when there is one, out_of_sample); ``manifest`` is
    the document written to ``manifest.json``.
    """

    model: LogisticModel
    screening_report: ScreeningReport
    score_sets: dict[str, ScoreSet]
    confusion: dict[str, dict]
    manifest: dict


def run_pipeline(config: PipelineConfig, out_dir: str | Path) -> PipelineResult:
    out = _make_dir(out_dir)
    timings: dict[str, float] = {}

    @contextmanager
    def clock(name: str):
        t0 = time.perf_counter()
        yield
        timings[name] = timings.get(name, 0.0) + time.perf_counter() - t0

    # --- data
    if config.synthetic is not None:
        with clock("generate"):
            table, _truth = generate(config.synthetic)
    else:
        with clock("load"):
            table = load_table(config.input.csv, load_schema(config.input.schema))
    with clock("impute"):
        table = impute_numeric_columns(table)

    # --- screening (includes clustering, occupancy, level merging)
    with clock("screening"):
        report = run_screening(table, config.plan)
        final_vars = report.final_variables
        # Only the screened columns are read from here on; cutting to them
        # frees the full-width table before the out-of-sample one is made.
        table = table.select_columns(final_vars)

    # --- out-of-sample table, before any artifact is written
    oos_table = None
    if config.out_of_sample is not None:
        with clock("out_of_sample_load"):
            oos = config.out_of_sample
            oos_table = _load_scored(oos.csv, oos.schema, table.schema.target, final_vars)
    elif config.synthetic is not None:
        # Out-of-sample sibling: same data-generating process, fresh records.
        with clock("out_of_sample_generate"):
            oos_table, _ = generate(config.synthetic, sample_index=1, columns=final_vars)
    if oos_table is not None:
        with clock("out_of_sample_impute"):
            oos_table = _ready(oos_table, report.level_mappings)

    # --- split and encode
    with clock("split"):
        table = apply_level_mapping(table, report.level_mappings)
        train, validation = split_train_validation(table, config.split.frac, config.split.seed)
    with clock("encode"):
        train_design = encode_design(train, final_vars)
        valid_design = encode_design(validation, final_vars, template=train_design.terms)

    # --- fit
    with clock("stepwise"):
        model, trace = stepwise_select(
            train_design,
            p_enter=config.stepwise.p_enter,
            p_stay=config.stepwise.p_stay,
            max_terms=config.stepwise.max_terms,
        )
    with clock("prune"):
        model = prune_collinear(model, train_design, valid_design, cutoff=config.prune_cutoff)
        gnull = global_null_lr(model, train_design) if model.terms else None
    # The encoder's warnings go ahead of the fit's own, without repeats.
    warnings = train_design.warnings + valid_design.warnings + model.warnings
    model = replace(model, warnings=tuple(dict.fromkeys(warnings)))

    # --- evaluate
    datasets = {"train": train, "validation": validation}
    if oos_table is not None:
        datasets["out_of_sample"] = oos_table
    score_sets: dict[str, ScoreSet] = {}
    deciles: dict[str, list] = {}
    confusion: dict[str, dict] = {}
    with clock("evaluate"):
        for name, ds in datasets.items():
            ss = score(model, ds)
            score_sets[name] = ss
            deciles[name] = decile_table(ss)
            confusion[name] = asdict(confusion_matrix(ss, config.threshold))

    with clock("write"):
        write_json(report.to_dict(), out / "screening_report.json")
        write_json(report.cluster_selection.to_dict(), out / "cluster_report.json")
        model_doc = {
            "model": model_to_dict(model),
            "target": table.schema.target,
            "variables": final_vars,
            "level_mappings": report.level_mappings,
            "global_null": gnull,
            "stepwise_trace": [asdict(step) for step in trace.steps],
        }
        write_json(model_doc, out / "model.json")
        write_csv(CHART_COLUMNS, chart_rows(deciles["validation"]), out / "decile_table.csv")
        charts = ([name] + row for name in datasets for row in chart_rows(deciles[name]))
        write_csv(["dataset"] + CHART_COLUMNS, charts, out / "charts.csv")
        confusion_doc = {"threshold": config.threshold, "datasets": confusion}
        write_json(confusion_doc, out / "confusion_report.json")

    manifest = {
        "version": __version__,
        "config": asdict(config),
        "split": {
            "train_rows": train.n_records,
            "validation_rows": validation.n_records,
        },
        "artifacts": ARTIFACT_NAMES,
        "timings": {name: round(t, 6) for name, t in timings.items()},
    }
    write_json(manifest, out / "manifest.json")
    return PipelineResult(
        model=model,
        screening_report=report,
        score_sets=score_sets,
        confusion=confusion,
        manifest=manifest,
    )


# ---------------------------------------------------------------------------
# Model-file round trip used by the score command


def write_synthetic_dataset(config: PipelineConfig, out_dir: str | Path) -> list[str]:
    """Materialize the synthetic table (data.csv, schema.json, ground_truth.json)."""
    if config.synthetic is None:
        raise ValidationError("config has no 'synthetic' section")
    out = _make_dir(out_dir)
    table, truth = generate(config.synthetic)
    save_table(table, out / "data.csv")
    save_schema(table.schema, out / "schema.json")
    write_json(truth.to_dict(), out / "ground_truth.json")
    return ["data.csv", "schema.json", "ground_truth.json"]


def load_model_file(path: str | Path):
    """(model, target name, level mappings) from a model.json written by a run;
    the mappings are ``{column: {level: merged id}}`` as the run wrote them."""
    def build(doc: dict):
        model, target = model_from_dict(doc["model"]), doc["target"]
        mappings = doc.get("level_mappings", {})
        if not isinstance(mappings, dict):
            raise ValidationError(f"level_mappings must be an object, got {mappings!r}")
        for v, m in mappings.items():
            if not isinstance(m, dict) or not all(isinstance(s, str) for s in (*m, *m.values())):
                raise ValidationError(
                    f"level mapping of {v!r} must be an object of strings, got {m!r}"
                )
        return model, target, mappings

    return read_json(path, "model file", build)


def score_table_file(
    model_path: str | Path,
    csv_path: str | Path,
    schema_path: str | Path,
    out_path: str | Path,
) -> int:
    """Score a CSV with a saved model; writes id (the row position),
    probability and decile per record.

    An output path that is a directory or whose directory is missing raises
    before anything is read; nothing is written unless scoring succeeds.  The
    file takes the run's two out-of-sample steps, :func:`_load_scored` and
    :func:`_ready`, with the model's columns.  Decile assignment needs at
    least ten records; smaller files get an empty decile column.
    """
    check_writable(out_path)
    model, target, mappings = load_model_file(model_path)
    table = _ready(_load_scored(csv_path, schema_path, target, model.source_variables()), mappings)
    ss = score(model, table)
    deciles = assign_deciles(ss).tolist() if ss.n >= N_DECILES else [""] * ss.n
    rows = zip(range(ss.n), ss.p.tolist(), deciles)
    write_csv(["id", "probability", "decile"], rows, out_path)
    return ss.n
