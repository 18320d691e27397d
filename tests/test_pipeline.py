import json
import tracemalloc
import types
import weakref

import numpy as np
import pytest

import screenfit.pipeline as pipeline
from screenfit.config import PipelineConfig
from screenfit.errors import CellParseError, ComputationError, ValidationError
from screenfit.synthgen import generate
from screenfit.table import (
    ColumnKind,
    ColumnSpec,
    DataTable,
    TableSchema,
    load_schema,
    save_schema,
    save_table,
)

CONFIG = {
    "plan": {"retain_after_chi2": 10, "retain_after_t": 8, "retain_after_iv": 6, "final_retain": 4},
    "synthetic": {
        "n_signal": 150,
        "n_background": 650,
        "n_informative": 4,
        "n_noise": 8,
        "kind_mix": {"binary": 0.5, "continuous": 0.5},
        "missing_rate": 0.05,
        "seed": 4,
    },
}


# The clocks of every run, whatever its data source.
ALWAYS_TIMED = {"impute", "screening", "split", "encode", "stepwise", "prune", "write", "evaluate"}


def test_out_of_sample_file_replaces_the_generated_sibling(tmp_path, monkeypatch):
    spec = PipelineConfig.from_dict(CONFIG).synthetic
    oos, _ = generate(spec, sample_index=2)
    save_table(oos, tmp_path / "oos.csv")
    save_schema(oos.schema, tmp_path / "oos_schema.json")
    out_of_sample = {"csv": str(tmp_path / "oos.csv"), "schema": str(tmp_path / "oos_schema.json")}
    config = PipelineConfig.from_dict(CONFIG | {"out_of_sample": out_of_sample})

    sample_indices = []

    def recording_generate(spec, sample_index=0):
        sample_indices.append(sample_index)
        return generate(spec, sample_index)

    monkeypatch.setattr(pipeline, "generate", recording_generate)
    result = pipeline.run_pipeline(config, tmp_path / "run")
    assert sample_indices == [0]
    assert result.score_sets["out_of_sample"].n == oos.n_records
    timings = result.manifest["timings"]
    assert timings.keys() == ALWAYS_TIMED | {
        "generate", "out_of_sample_load", "out_of_sample_impute"
    }


def test_generated_sibling_is_timed(tmp_path):
    result = pipeline.run_pipeline(PipelineConfig.from_dict(CONFIG), tmp_path / "run")
    timings = result.manifest["timings"]
    assert timings.keys() == ALWAYS_TIMED | {
        "generate", "out_of_sample_generate", "out_of_sample_impute"
    }


def _file_config(tmp_path):
    """CONFIG with its generator's samples 0 and 1 saved as the input and
    out-of-sample files in place of its synthetic section."""
    config = PipelineConfig.from_dict(CONFIG)
    paths = {}
    for section, index in (("input", 0), ("out_of_sample", 1)):
        table, _ = generate(config.synthetic, sample_index=index)
        csv, schema = tmp_path / f"{section}.csv", tmp_path / f"{section}.json"
        save_table(table, csv)
        save_schema(table.schema, schema)
        paths[section] = {"csv": str(csv), "schema": str(schema)}
    return PipelineConfig.from_dict({"plan": CONFIG["plan"]} | paths)


def test_files_and_generator_write_the_same_artifacts(tmp_path):
    pipeline.run_pipeline(PipelineConfig.from_dict(CONFIG), tmp_path / "generated")
    pipeline.run_pipeline(_file_config(tmp_path), tmp_path / "files")
    for name in pipeline.ARTIFACT_NAMES:
        if name != "manifest.json":
            assert (tmp_path / "files" / name).read_bytes() == (
                tmp_path / "generated" / name
            ).read_bytes(), name


# Everything run_pipeline calls through its module globals, to tick a fake clock.
CLOCKED_CALLS = (
    "generate", "load_schema", "load_table", "impute_numeric_columns", "run_screening",
    "apply_level_mapping", "split_train_validation", "encode_design", "stepwise_select",
    "prune_collinear", "global_null_lr", "score", "decile_table", "confusion_matrix",
    "write_json", "write_csv",
)


@pytest.mark.parametrize("from_files", [False, True])
def test_clocks_cover_the_run(tmp_path, monkeypatch, from_files):
    """Each call above advances a fake clock by one tick, and so does the
    cut of a table to its columns; every tick but the one of the
    manifest's own write lands in exactly one of the manifest's timings."""
    config = _file_config(tmp_path) if from_files else PipelineConfig.from_dict(CONFIG)

    ticks = [0]
    monkeypatch.setattr(pipeline, "time", types.SimpleNamespace(perf_counter=lambda: ticks[0]))

    def ticking(fn):
        def call(*args, **kwargs):
            ticks[0] += 1
            return fn(*args, **kwargs)
        return call

    for name in CLOCKED_CALLS:
        monkeypatch.setattr(pipeline, name, ticking(getattr(pipeline, name)))
    monkeypatch.setattr(DataTable, "select_columns", ticking(DataTable.select_columns))

    timings = pipeline.run_pipeline(config, tmp_path / "run").manifest["timings"]
    assert sum(timings.values()) == ticks[0] - 1
    assert timings["encode"] == 2
    assert timings["write"] == len(pipeline.ARTIFACT_NAMES) - 1
    data = {"load", "out_of_sample_load"} if from_files else {"generate", "out_of_sample_generate"}
    assert timings.keys() == ALWAYS_TIMED | data | {"out_of_sample_impute"}


def test_bad_out_of_sample_cell_leaves_no_artifact(tmp_path):
    spec = PipelineConfig.from_dict(CONFIG).synthetic
    oos, _ = generate(spec, sample_index=2)
    save_table(oos, tmp_path / "oos.csv")
    save_schema(oos.schema, tmp_path / "oos_schema.json")
    lines = (tmp_path / "oos.csv").read_text(encoding="utf-8").splitlines()
    cells = lines[5].split(",")
    cells[0] = "oops"
    lines[5] = ",".join(cells)
    (tmp_path / "oos.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    out_of_sample = {"csv": str(tmp_path / "oos.csv"), "schema": str(tmp_path / "oos_schema.json")}
    config = PipelineConfig.from_dict(CONFIG | {"out_of_sample": out_of_sample})

    with pytest.raises(CellParseError, match="oops"):
        pipeline.run_pipeline(config, tmp_path / "run")
    assert list((tmp_path / "run").iterdir()) == []


def _corrupt_cell(path, column, row, token):
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[row + 1].split(",")
    cells[lines[0].split(",").index(column)] = token
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_sibling(tmp_path):
    """The sample-index-2 sibling of CONFIG's data as a CSV and schema."""
    oos, _ = generate(PipelineConfig.from_dict(CONFIG).synthetic, sample_index=2)
    save_table(oos, tmp_path / "oos.csv")
    save_schema(oos.schema, tmp_path / "oos_schema.json")
    return tmp_path / "oos.csv", tmp_path / "oos_schema.json"


def test_out_of_sample_cells_outside_the_final_variables_are_not_read(tmp_path):
    csv_path, schema_path = _write_sibling(tmp_path)
    out_of_sample = {"csv": str(csv_path), "schema": str(schema_path)}
    config = PipelineConfig.from_dict(CONFIG | {"out_of_sample": out_of_sample})
    clean = pipeline.run_pipeline(config, tmp_path / "clean")
    final = clean.screening_report.final_variables
    unread = next(name for name in load_schema(schema_path).predictors if name not in final)
    _corrupt_cell(csv_path, unread, 5, "oops")
    pipeline.run_pipeline(config, tmp_path / "corrupt")
    for name in pipeline.ARTIFACT_NAMES:
        if name != "manifest.json":
            assert (tmp_path / "corrupt" / name).read_bytes() == (tmp_path / "clean" / name).read_bytes()


def test_out_of_sample_schema_of_another_target_leaves_no_artifact(tmp_path):
    """The run checks its out-of-sample schema as ``score`` checks a scored
    one: a schema that names another column as its target is refused."""
    csv_path, schema_path = _write_sibling(tmp_path)
    schema = load_schema(schema_path)
    other = next(c.name for c in schema.columns
                 if c.kind is ColumnKind.BINARY and c.name != schema.target)
    save_schema(TableSchema(schema.columns, other), schema_path)
    out_of_sample = {"csv": str(csv_path), "schema": str(schema_path)}
    config = PipelineConfig.from_dict(CONFIG | {"out_of_sample": out_of_sample})
    message = f"schema target '{other}' does not match model target 'target'"
    with pytest.raises(ValidationError, match=f"^{message}$"):
        pipeline.run_pipeline(config, tmp_path / "run")
    assert list((tmp_path / "run").iterdir()) == []


def test_score_reads_only_the_model_columns(tmp_path):
    run = pipeline.run_pipeline(PipelineConfig.from_dict(CONFIG), tmp_path / "run")
    used = run.model.source_variables()
    assert used
    csv_path, schema_path = _write_sibling(tmp_path)
    model_path = tmp_path / "run" / "model.json"
    pipeline.score_table_file(model_path, csv_path, schema_path, tmp_path / "clean.csv")
    unused = next(name for name in load_schema(schema_path).predictors if name not in used)
    _corrupt_cell(csv_path, unused, 5, "oops")
    pipeline.score_table_file(model_path, csv_path, schema_path, tmp_path / "scores.csv")
    assert (tmp_path / "scores.csv").read_bytes() == (tmp_path / "clean.csv").read_bytes()
    _corrupt_cell(csv_path, used[0], 7, "oops")
    with pytest.raises(CellParseError, match=rf"row 7, column '{used[0]}'"):
        pipeline.score_table_file(model_path, csv_path, schema_path, tmp_path / "scores.csv")


def test_encoder_warnings_reach_the_model_file(tmp_path):
    """Every categorical declares a level "z" the data never holds, so the
    training design drops its dummy as constant and says so in model.json."""
    synthetic = {
        "n_signal": 150,
        "n_background": 650,
        "n_informative": 4,
        "n_noise": 4,
        "kind_mix": {"categorical": 0.5, "continuous": 0.5},
        "seed": 4,
    }
    plan = {"retain_after_chi2": 8, "retain_after_t": 7, "retain_after_iv": 6, "final_retain": 4}
    table, _ = generate(PipelineConfig.from_dict({"plan": plan, "synthetic": synthetic}).synthetic)
    save_table(table, tmp_path / "data.csv")
    columns = tuple(
        ColumnSpec(c.name, c.kind, c.levels + ("z",)) if c.levels else c
        for c in table.schema.columns
    )
    save_schema(TableSchema(columns=columns, target="target"), tmp_path / "schema.json")
    data = {"csv": str(tmp_path / "data.csv"), "schema": str(tmp_path / "schema.json")}
    result = pipeline.run_pipeline(
        PipelineConfig.from_dict({"plan": plan, "input": data}), tmp_path / "run"
    )
    categoricals = [v for v in result.screening_report.final_variables if v.startswith("cat_")]
    assert categoricals
    doc = json.loads((tmp_path / "run" / "model.json").read_text(encoding="utf-8"))
    warnings = doc["model"]["warnings"]
    assert warnings == list(result.model.warnings)
    for v in categoricals:
        assert f"{v}=z: constant dummy column dropped from the design" in warnings


WIDE_CONFIG = {
    "plan": {"retain_after_chi2": 260, "retain_after_t": 140, "retain_after_iv": 60, "final_retain": 12},
    "synthetic": {
        "n_signal": 60,
        "n_background": 540,
        "n_informative": 10,
        "n_noise": 290,
        "kind_mix": {"binary": 0.25, "categorical": 0.3, "likelihood": 0.2, "continuous": 0.25},
        "missing_rate": 0.05,
        "seed": 3,
    },
}


def _traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_one_full_width_table_at_a_time(tmp_path, monkeypatch):
    """Generate holds the columns once, and the pipeline cuts the training
    table to the screened columns before it makes the out-of-sample one,
    which it draws at those columns alone.

    The peaks are bounded in the table's float64 bytes (8 per cell).  The
    stored table takes about a third of that here (discrete columns are
    one byte per cell), and either bound fails with a second copy of it.
    The out-of-sample draw at the screened columns peaks at about an
    eighth, mostly the per-column specs and parameters of the structure
    pass; a full-width draw peaks near half, above its bound.
    """
    config = PipelineConfig.from_dict(WIDE_CONFIG)
    pipeline.run_pipeline(config, tmp_path / "warm")  # imports that a first run makes
    (table, _), generate_peak = _traced_peak(lambda: generate(config.synthetic))
    float64_bytes = table.n_records * len(table.schema.names) * 8
    del table
    assert generate_peak < 0.55 * float64_bytes

    # What is left of the first generated table when the next one is drawn,
    # and the next draw's columns, the run's peak before it and its own peak.
    first, left, later = [], [], []

    def watching_generate(spec, sample_index=0, columns=None):
        if first:
            table_ref, column_refs = first[0]
            left.append((table_ref(), {n for n, ref in column_refs.items() if ref() is not None}))
            current, peak_before = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
        table, truth = generate(spec, sample_index, columns)
        if first:
            later.append((columns, peak_before, tracemalloc.get_traced_memory()[1] - current))
        else:
            refs = {name: weakref.ref(table._columns[name]) for name in table.schema.names}
            first.append((weakref.ref(table), refs))
        return table, truth

    monkeypatch.setattr(pipeline, "generate", watching_generate)
    result, pipeline_peak = _traced_peak(lambda: pipeline.run_pipeline(config, tmp_path / "run"))
    [(oos_columns, peak_before, oos_peak)] = later
    assert max(pipeline_peak, peak_before) < 1.25 * float64_bytes
    [(first_table, first_columns)] = left
    assert first_table is None
    assert first_columns <= set(result.screening_report.final_variables) | {"target"}
    assert oos_columns == result.screening_report.final_variables
    assert oos_peak < 0.25 * float64_bytes


# Seed 7 of this config keeps the flag bin_000 and the categorical cat_001
# through screening and in the model.
MIXED_CONFIG = {
    "plan": {"retain_after_chi2": 14, "retain_after_t": 12, "retain_after_iv": 8, "final_retain": 5},
    "synthetic": {
        "n_signal": 150,
        "n_background": 650,
        "n_informative": 6,
        "n_noise": 10,
        "kind_mix": {"binary": 0.4, "categorical": 0.3, "continuous": 0.3},
        "missing_rate": 0.05,
        "seed": 7,
    },
}


def _mixed_input(tmp_path, table):
    """A config of MIXED_CONFIG's plan on the table saved as a CSV and schema."""
    save_table(table, tmp_path / "data.csv")
    save_schema(table.schema, tmp_path / "schema.json")
    inputs = {"csv": str(tmp_path / "data.csv"), "schema": str(tmp_path / "schema.json")}
    return PipelineConfig.from_dict({"plan": MIXED_CONFIG["plan"], "input": inputs})


def test_gaps_in_a_surviving_flag_and_categorical_are_imputed(tmp_path):
    """The generator leaves flags and categoricals whole, so one cell of each
    is blanked in the file; both columns pass screening with their gaps
    filled, the run writes every artifact, and score fills them too."""
    table, _ = generate(PipelineConfig.from_dict(MIXED_CONFIG).synthetic)
    config = _mixed_input(tmp_path, table)
    _corrupt_cell(tmp_path / "data.csv", "bin_000", 3, "")
    _corrupt_cell(tmp_path / "data.csv", "cat_001", 5, "NA")
    result = pipeline.run_pipeline(config, tmp_path / "run")
    assert {"bin_000", "cat_001"} <= set(result.model.source_variables())
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == sorted(pipeline.ARTIFACT_NAMES)
    n = pipeline.score_table_file(
        tmp_path / "run" / "model.json", tmp_path / "data.csv", tmp_path / "schema.json",
        tmp_path / "scores.csv",
    )
    lines = (tmp_path / "scores.csv").read_text(encoding="utf-8").splitlines()
    assert n == len(lines) - 1 == table.n_records


@pytest.mark.parametrize("name", ["bin_000", "cat_000", "lik_000", "con_000"])
def test_all_missing_column_of_any_kind_stops_at_imputation(tmp_path, name):
    """An all-missing predictor of each kind stops the run at the impute
    step with one message, and leaves no artifact."""
    mix = {"binary": 0.3, "categorical": 0.3, "likelihood": 0.2, "continuous": 0.2}
    synthetic = MIXED_CONFIG["synthetic"] | {"kind_mix": mix}
    table, _ = generate(PipelineConfig.from_dict(MIXED_CONFIG | {"synthetic": synthetic}).synthetic)
    gap = np.nan if name.startswith("con") else -1
    config = _mixed_input(tmp_path, table.replace_columns({name: np.full(table.n_records, gap)}))
    message = f"column '{name}' has no non-missing values to impute from"
    with pytest.raises(ComputationError, match=f"^{message}$"):
        pipeline.run_pipeline(config, tmp_path / "run")
    assert list((tmp_path / "run").iterdir()) == []


def test_out_of_sample_column_of_another_kind_leaves_no_artifact(tmp_path):
    """The model keeps the flag b0; an out-of-sample schema that declares b0
    categorical would have it read as level indices, so the run stops
    when it scores that table, before it writes anything."""
    rng = np.random.default_rng(0)
    n = 2000
    columns = {f"b{i}": (rng.random(n) < 0.3).astype(float) for i in range(12)}
    columns |= {f"c{i}": rng.normal(size=n) for i in range(6)}
    eta = 0.8 * (columns["b0"] + columns["b1"] + columns["b2"]) + columns["c0"] - 2
    columns["y"] = (rng.random(n) < 1 / (1 + np.exp(-eta))).astype(float)
    kind = {"b": ColumnKind.BINARY, "c": ColumnKind.CONTINUOUS, "y": ColumnKind.BINARY}
    schema = TableSchema(tuple(ColumnSpec(name, kind[name[0]]) for name in columns), "y")
    save_table(DataTable(schema, columns), tmp_path / "data.csv")
    save_schema(schema, tmp_path / "schema.json")
    categorical_b0 = tuple(
        ColumnSpec("b0", ColumnKind.CATEGORICAL, ("1", "0")) if c.name == "b0" else c
        for c in schema.columns
    )
    save_schema(TableSchema(categorical_b0, "y"), tmp_path / "oos_schema.json")
    plan = {"retain_after_chi2": 16, "retain_after_t": 14, "retain_after_iv": 10, "final_retain": 4}
    inputs = {"csv": str(tmp_path / "data.csv"), "schema": str(tmp_path / "schema.json")}
    consistent = {"plan": plan, "input": inputs, "out_of_sample": inputs}
    result = pipeline.run_pipeline(PipelineConfig.from_dict(consistent), tmp_path / "clean")
    assert ("b0", "flag") in [(t.source, t.encoding) for t in result.model.terms]

    oos_inputs = inputs | {"schema": str(tmp_path / "oos_schema.json")}
    mismatched = consistent | {"out_of_sample": oos_inputs}
    message = "column 'b0' is categorical, but the model encodes it as a flag term"
    with pytest.raises(ValidationError, match=f"^{message}$"):
        pipeline.run_pipeline(PipelineConfig.from_dict(mismatched), tmp_path / "run")
    assert list((tmp_path / "run").iterdir()) == []
