"""Tests of the benchmark's own code.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import importlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run as bench
import spans
import workloads
from screenfit.config import PipelineConfig

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def small_tall(seed: int = 7) -> PipelineConfig:
    """The tall config at 2000 rows: same plan, a second to run."""
    doc = workloads.tall_config()
    doc["synthetic"]["n_signal"] = 200
    doc["synthetic"]["n_background"] = 1800
    return PipelineConfig.from_dict(doc).with_seed(seed)


@pytest.fixture(scope="module")
def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    """One traced run_pipeline call: (tracer, output directory)."""
    from screenfit import pipeline

    out = tmp_path_factory.mktemp("traced")
    with spans.Tracer() as tracer:
        pipeline.run_pipeline(small_tall(), out)
    return tracer, out


# -- self-time arithmetic


def test_union_length_merges_overlaps():
    assert spans.union_length([]) == 0.0
    assert spans.union_length([(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]) == pytest.approx(3.0)
    assert spans.union_length([(0.0, 4.0), (1.0, 2.0)]) == pytest.approx(4.0)


def test_self_time_subtracts_covered_part_only():
    assert spans.self_time((0.0, 10.0), []) == pytest.approx(10.0)
    assert spans.self_time((0.0, 10.0), [(1.0, 3.0), (5.0, 6.0)]) == pytest.approx(7.0)
    # overlapping children are not subtracted twice; parts outside the parent are ignored
    assert spans.self_time((0.0, 10.0), [(1.0, 3.0), (2.0, 4.0), (9.0, 12.0)]) == pytest.approx(6.0)


def test_busy_counts_a_nested_span_of_the_same_name_once():
    tracer = spans.Tracer()
    tracer.spans = [
        spans.Span("a", 0.0, 4.0, -1),
        spans.Span("a", 1.0, 2.0, 0),
        spans.Span("b", 2.0, 3.0, 0),
    ]
    assert tracer.busy("a") == pytest.approx(4.0)
    assert tracer.count("a") == 2


def test_children_and_self_sum_to_the_root(traced_run):
    tracer, _ = traced_run
    total, children, own = tracer.root_accounting()
    assert own > 0.0
    assert children + own == pytest.approx(total, abs=1e-9)
    metrics = tracer.layer_metrics()
    assert metrics["pipeline.total_s"] == pytest.approx(total)
    assert metrics["pipeline.self_s"] == pytest.approx(own)


def test_trace_covers_both_generate_and_both_impute_calls(traced_run):
    tracer, _ = traced_run
    assert tracer.count("synthgen.generate") == 2
    assert tracer.count("table.impute") == 2
    metrics = tracer.layer_metrics()
    assert metrics["logit.fit_irls_calls"] > 0
    assert metrics["screening.discrete_levels_calls"] > 0
    assert metrics["table.tables_built"] > 0
    assert metrics["logit.fits_per_entered_term"] > 1.0


# -- patching


def test_patched_functions_are_restored_after_a_traced_run(traced_run):
    for _name, module, attr in spans.FUNCTIONS:
        fn = getattr(importlib.import_module(module), attr)
        assert not hasattr(fn, "__wrapped__"), f"{module}.{attr} still wrapped"
    for mod_name in spans.MODULES:
        for key, value in vars(importlib.import_module(mod_name)).items():
            assert not (callable(value) and hasattr(value, "__wrapped__")), f"{mod_name}.{key}"
    for _name, module, cls_name, attr in spans.METHODS:
        method = getattr(getattr(importlib.import_module(module), cls_name), attr)
        assert not hasattr(method, "__wrapped__"), f"{cls_name}.{attr} still wrapped"


def test_patches_are_restored_when_the_traced_code_raises():
    from screenfit import pipeline

    original = pipeline.run_pipeline
    with pytest.raises(RuntimeError):
        with spans.Tracer():
            assert pipeline.run_pipeline is not original
            raise RuntimeError("boom")
    assert pipeline.run_pipeline is original


def test_tracing_leaves_the_artifacts_unchanged(traced_run, tmp_path):
    from screenfit import pipeline

    _, traced_out = traced_run
    pipeline.run_pipeline(small_tall(), tmp_path)
    assert checks.artifact_digests(tmp_path) == checks.artifact_digests(traced_out)


# -- checks


def test_checks_pass_on_a_real_run(traced_run):
    _, out = traced_run
    problems, found = checks.check_pipeline_dir(out)
    assert problems == []
    assert found["oos_lift_d1"] > 1.0
    assert found["sources"]


@pytest.mark.parametrize(
    "artifact, corrupt",
    [
        ("model.json", lambda text: text[: len(text) // 2]),
        ("screening_report.json", lambda text: ""),
        ("charts.csv", lambda text: text.replace("out_of_sample,1,", "out_of_sample,2,", 1)),
        ("decile_table.csv", lambda text: "\n".join(text.splitlines()[:-1]) + "\n"),
    ],
)
def test_checks_fail_on_a_corrupted_artifact(traced_run, tmp_path, artifact, corrupt):
    _, out = traced_run
    copy = tmp_path / "run"
    shutil.copytree(out, copy)
    path = copy / artifact
    path.write_text(corrupt(path.read_text(encoding="utf-8")), encoding="utf-8")
    problems, _ = checks.check_pipeline_dir(copy)
    assert problems


def test_checks_fail_on_a_missing_artifact(traced_run, tmp_path):
    _, out = traced_run
    copy = tmp_path / "run"
    shutil.copytree(out, copy)
    (copy / "cluster_report.json").unlink()
    problems, _ = checks.check_pipeline_dir(copy)
    assert problems == ["cluster_report.json: missing"]


def test_checks_fail_on_a_model_term_outside_final_variables(traced_run, tmp_path):
    _, out = traced_run
    copy = tmp_path / "run"
    shutil.copytree(out, copy)
    doc = json.loads((copy / "model.json").read_text(encoding="utf-8"))
    doc["model"]["rows"][1]["term"]["source"] = "not_screened"
    (copy / "model.json").write_text(json.dumps(doc), encoding="utf-8")
    problems, _ = checks.check_pipeline_dir(copy)
    assert any("outside final_variables" in p for p in problems)


def write_scores(path: Path, rows: list[tuple]) -> None:
    path.write_text(
        "id,probability,decile\n" + "".join(f"{i},{p},{d}\n" for i, p, d in rows),
        encoding="utf-8",
    )


def test_check_scores(tmp_path):
    path = tmp_path / "scores.csv"
    rows = [(i, 1.0 - i / 20, i // 2 + 1) for i in range(20)]
    target = "11" + "0" * 16 + "11"
    write_scores(path, rows)
    problems, found = checks.check_scores(path, target)
    assert problems == []
    assert found["oos_lift_d1"] == pytest.approx(5.0)  # 2/2 in decile 1 over 4/20

    assert checks.check_scores(path, target + "0")[0]  # one row per record
    write_scores(path, rows[:-1] + [(19, 1.5, 10)])
    assert checks.check_scores(path, target)[0]  # probability outside [0, 1]
    write_scores(path, rows[:-1] + [(19, 0.0, 11)])
    assert checks.check_scores(path, target)[0]  # decile outside 1..10


# -- the benchmark's declared metrics


def test_wall_time_aggregation():
    run = bench.Run(ROOT, "tall", 1, trace=False)
    run.passed = [
        {"op_seed": 1000, "wall_s": 3.0, "reference_s": 0.1},
        {"op_seed": 1001, "wall_s": 5.0, "reference_s": 0.2},
        {"op_seed": 1002, "wall_s": 9.0, "reference_s": 0.2},
        {"op_seed": 1000, "wall_s": 2.0, "reference_s": 0.1},
        {"op_seed": 1001, "wall_s": 4.5, "reference_s": 0.3},
    ]
    run.setups = [1.0, 3.0, 2.0]
    assert run.value("wall_s")[0] == pytest.approx(4.5)  # fastest: 2.0, 4.5, 9.0
    assert run.value("reference_s")[0] == pytest.approx(0.1)  # lower quartile
    assert run.value("wall_rel")[0] == pytest.approx(4.5 / 0.1)
    assert run.value("setup_wall_s")[0] == pytest.approx(1.0)  # lower quartile
    assert run.value("setup_s")[0] == pytest.approx(1.0 * bench.REFERENCE_S / 0.1)


def test_score_prints_no_planted_recall(spec, capsys):
    run = bench.Run(ROOT, "score", 1, trace=False)
    run.passed = [{"op_seed": 1000, "wall_s": 2.0, "reference_s": 0.1, "oos_lift_d1": 4.0}]
    run.setups, run.rss, run.attempted = [1.0], [200.0], 1
    metrics = run.metrics(spec)
    assert set(metrics) == {m["name"] for m in spec["end_to_end"]}
    out = capsys.readouterr().out
    assert "metric oos_lift_d1 = 4 ratio" in out
    assert "planted_recall" not in out


def test_metric_names_and_units_are_valid(spec, traced_run):
    tracer, _ = traced_run
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(metric["name"]), metric["name"]
        assert UNIT.match(metric["unit"]), metric["unit"]
        assert metric["better"] in ("higher", "lower")
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert per_layer == set(tracer.layer_metrics()) | {"trace.overhead_s"}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.CONFIGS)
    assert "setup_s" in {m["name"] for m in spec["end_to_end"]}


def test_meta_describes_every_workload_and_layer_metric(spec):
    meta = json.loads((HERE / "meta.json").read_text(encoding="utf-8"))
    assert set(meta["workloads"]) == {w["name"] for w in spec["workloads"]}
    assert set(meta["per_layer"]) == {m["name"] for m in spec["per_layer"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    for entry in meta["per_layer"].values():
        assert set(entry["moves"]) <= end_to_end
        for names in entry["moves"].values():
            assert set(names) <= set(workloads.CONFIGS)


def test_refuses_to_run_outside_a_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tall", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
