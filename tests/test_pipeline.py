import json
import tracemalloc
import weakref

import pytest

import screenfit.pipeline as pipeline
from screenfit.config import PipelineConfig
from screenfit.errors import CellParseError
from screenfit.synthgen import generate
from screenfit.table import ColumnSpec, TableSchema, load_schema, save_schema, save_table

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
    assert {"out_of_sample_load", "out_of_sample_impute"} <= timings.keys()
    assert "out_of_sample_generate" not in timings


def test_generated_sibling_is_timed(tmp_path):
    result = pipeline.run_pipeline(PipelineConfig.from_dict(CONFIG), tmp_path / "run")
    assert {"out_of_sample_generate", "out_of_sample_impute"} <= result.manifest["timings"].keys()


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
    unread = next(
        name for name in load_schema(schema_path).predictors if name not in clean.final_variables
    )
    _corrupt_cell(csv_path, unread, 5, "oops")
    pipeline.run_pipeline(config, tmp_path / "corrupt")
    for name in pipeline.ARTIFACT_NAMES:
        if name != "manifest.json":
            assert (tmp_path / "corrupt" / name).read_bytes() == (tmp_path / "clean" / name).read_bytes()


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
    categoricals = [v for v in result.final_variables if v.startswith("cat_")]
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
    table to the screened columns before it makes the out-of-sample one.

    The peaks are bounded in the table's float64 bytes (8 per cell).  The
    stored table takes about a third of that here (discrete columns are
    one byte per cell), and either bound fails with a second copy of it.
    """
    config = PipelineConfig.from_dict(WIDE_CONFIG)
    (table, _), generate_peak = _traced_peak(lambda: generate(config.synthetic))
    float64_bytes = table.n_records * len(table.schema.names) * 8
    del table
    assert generate_peak < 0.55 * float64_bytes

    # What is left of the first generated table when the next one is drawn.
    first, left = [], []

    def watching_generate(spec, sample_index=0):
        if first:
            table_ref, column_refs = first[0]
            left.append((table_ref(), {n for n, ref in column_refs.items() if ref() is not None}))
        table, truth = generate(spec, sample_index)
        if not first:
            refs = {name: weakref.ref(table._columns[name]) for name in table.schema.names}
            first.append((weakref.ref(table), refs))
        return table, truth

    monkeypatch.setattr(pipeline, "generate", watching_generate)
    result, pipeline_peak = _traced_peak(lambda: pipeline.run_pipeline(config, tmp_path / "run"))
    assert pipeline_peak < 1.25 * float64_bytes
    [(first_table, first_columns)] = left
    assert first_table is None
    assert first_columns <= set(result.final_variables) | {"target"}
