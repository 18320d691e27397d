"""Byte-stability of a small end-to-end run, of scoring a saved CSV, and
of the synthetic dataset.

The digests pin every artifact of ``run_pipeline`` except the manifest
(which holds timings), the ``scores.csv`` that ``score_table_file``
writes for a sibling sample saved with ``save_table``, and the three
files ``write_synthetic_dataset`` writes for the same config.  A change
that is meant to leave outputs alone must leave these digests alone; a
change that alters outputs on purpose records the new digests here and
says why.
The ``model.json`` and ``screening_report.json`` digests were re-recorded
when the chi-square tails moved from ``scipy.special.chdtrc`` to
``screenfit.logit.chi2_sf``: only p-value digits changed, each by less
than 1e-12 relative, and every other artifact kept its digest.
A second pin covers a long stepwise trace: the ``model.json`` of the
``tall`` benchmark config at op seed 69000, where stepwise enters and
removes terms for 87 steps until its pass cap stops it.
The ``screening_report.json`` of the ``tall`` and ``wide`` benchmark
configs at op seed 11000 is pinned too, for screening at benchmark width.
The first run's ``model.json`` is also read back: rewriting it from the
loaded model gives the same document, and the loaded model scores the
out-of-sample table exactly as the run did.  A run given the scored
sibling as its out-of-sample file, and ``score_table_file`` on the same
file with that run's model, give the same probabilities.
"""

import csv
import hashlib
import json

import numpy as np
import pytest

from screenfit.config import PipelineConfig
from screenfit.evaluation import score
from screenfit.logit import model_from_dict, model_to_dict
from screenfit.pipeline import (
    ARTIFACT_NAMES,
    load_model_file,
    run_pipeline,
    score_table_file,
    write_synthetic_dataset,
)
from screenfit.screening import apply_level_mapping
from screenfit.synthgen import generate
from screenfit.table import impute_numeric_columns, save_schema, save_table

# 3000 rows x 60 predictors with categoricals and 5 % gaps; on this seed
# level merging fuses levels and a categorical enters the model as dummies.
CONFIG = {
    "plan": {
        "retain_after_chi2": 52,
        "retain_after_t": 42,
        "retain_after_iv": 28,
        "final_retain": 12,
    },
    "split": {"frac": 0.6, "seed": 5},
    "stepwise": {"p_enter": 0.05, "p_stay": 0.05},
    "synthetic": {
        "n_signal": 300,
        "n_background": 2700,
        "n_informative": 12,
        "n_noise": 48,
        "kind_mix": {"binary": 0.3, "categorical": 0.25, "likelihood": 0.2, "continuous": 0.25},
        "missing_rate": 0.05,
        "seed": 3,
        "n_correlated_pairs": 2,
    },
}

SCORED_SAMPLE_INDEX = 2

# The ``tall`` benchmark workload (10k rows x 150 predictors) with every
# seed set from op seed 69000.
CYCLING_CONFIG = {
    "plan": {
        "retain_after_chi2": 130,
        "retain_after_t": 100,
        "retain_after_iv": 60,
        "final_retain": 20,
    },
    "split": {"frac": 0.6, "seed": 69001},
    "stepwise": {"p_enter": 0.01, "p_stay": 0.01, "max_terms": 10},
    "synthetic": {
        "n_signal": 1000,
        "n_background": 9000,
        "n_informative": 20,
        "n_noise": 130,
        "kind_mix": {"binary": 0.3, "categorical": 0.2, "likelihood": 0.2, "continuous": 0.3},
        "missing_rate": 0.05,
        "seed": 69000,
        "n_correlated_pairs": 8,
    },
}

CYCLING_MODEL_DIGEST = "b4050622233814ed54eced7ce96edc2f5eb0e89627c8c10950a431dc76bc934c"

# The ``wide`` benchmark workload (4k rows x 1500 predictors, no gaps);
# ``with_seed`` sets its seeds from an op seed.
WIDE_CONFIG = {
    "plan": {
        "retain_after_chi2": 1300,
        "retain_after_t": 700,
        "retain_after_iv": 300,
        "final_retain": 40,
    },
    "split": {"frac": 0.6, "seed": 1},
    "stepwise": {"p_enter": 0.01, "p_stay": 0.01, "max_terms": 10},
    "synthetic": {
        "n_signal": 400,
        "n_background": 3600,
        "n_informative": 20,
        "n_noise": 1480,
        "kind_mix": {"binary": 0.25, "categorical": 0.3, "likelihood": 0.2, "continuous": 0.25},
        "missing_rate": 0.0,
        "seed": 0,
        "n_correlated_pairs": 0,
    },
}

# ``screening_report.json`` of the ``tall`` and ``wide`` benchmark
# configs at op seed 11000: the t screen takes 75 and 675 columns, many
# blocks and a tail, and tall's background group has 9000 rows.
BENCH_SCREENING_DIGESTS = {
    "tall": "a33c6eaf96627e79f7781ea91fe168adfa794e23688cbba8df98eff30e0fd56a",
    "wide": "2c5ad08ba31190c57ba29614a06b6c77e544a8be3e46fb3fc0f3bac18beb6b78",
}

GOLDEN = {
    "screening_report.json": "03c097e79de1807b4d3c2663ab0bc0ca8d541171c01f64996406c72b494fc6b0",
    "cluster_report.json": "be0432fd59cbff5a1209ab51c9bb0fb3b3d0a3d65188eacd3a7213d0ecc30f02",
    "model.json": "bb87a48de6b38f5c88a08e913a767d2291b6c83c6287ae20c5830e6124c660f6",
    "decile_table.csv": "423ca9b6c8784c86e3250962e3b49512028e62107fabe111c1055ac2d8aae3ce",
    "confusion_report.json": "cf6e36ab86b97fcd6b9831216591be28d715338b934cf1f836bdaf9e5b0a3afb",
    "charts.csv": "367d00a62c57d4196983e52f19c356b607ffbd58c69fa1519c778e768c3bcf23",
    "scores.csv": "c88bfb73bb34802bff35cdaadd2abd65656bb0d8cddf9b9a6dea25a753ab7b5b",
}

SYNTHETIC_GOLDEN = {
    "data.csv": "9a16af6eccd0aba3d30e456a046bbc640d9b490ef124b577b89c55b05da1db21",
    "schema.json": "979ae24cd407ad076657124ca74f51268720398a1a244a21286bf92538c77c84",
    "ground_truth.json": "55b23ee5469cccf860956424e013e47892a500df5be0a335248ebe05fb3ecf27",
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    config = PipelineConfig.from_dict(CONFIG)
    run_dir = tmp_path_factory.mktemp("golden") / "run"
    return config, run_dir, run_pipeline(config, run_dir)


def test_pipeline_and_scoring_artifacts_are_byte_stable(golden_run, tmp_path):
    config, run_dir, result = golden_run
    assert any(t.encoding == "dummy" for t in result.model.terms)
    assert result.screening_report.level_mappings
    assert len(result.screening_report.cluster_selection.clusters) == config.plan.final_retain

    sample, _ = generate(config.synthetic, sample_index=SCORED_SAMPLE_INDEX)
    save_table(sample, tmp_path / "data.csv")
    save_schema(sample.schema, tmp_path / "schema.json")
    score_table_file(
        run_dir / "model.json", tmp_path / "data.csv", tmp_path / "schema.json",
        tmp_path / "scores.csv",
    )

    digests = {name: sha256(run_dir / name) for name in ARTIFACT_NAMES if name != "manifest.json"}
    digests["scores.csv"] = sha256(tmp_path / "scores.csv")
    assert digests == GOLDEN


def test_run_directory_holds_exactly_the_artifacts(golden_run):
    _config, run_dir, _result = golden_run
    assert sorted(path.name for path in run_dir.iterdir()) == sorted(ARTIFACT_NAMES)


def test_model_file_round_trips_and_scores_like_the_run(golden_run):
    config, run_dir, result = golden_run
    with open(run_dir / "model.json", encoding="utf-8") as fh:
        doc = json.load(fh)["model"]
    assert model_to_dict(model_from_dict(doc)) == doc

    model, _target, mappings = load_model_file(run_dir / "model.json")
    oos, _ = generate(config.synthetic, sample_index=1)
    oos = apply_level_mapping(impute_numeric_columns(oos), mappings)
    np.testing.assert_array_equal(score(model, oos).p, result.score_sets["out_of_sample"].p)


def test_model_file_holds_the_report_level_mappings(golden_run):
    _config, run_dir, result = golden_run
    _model, _target, mappings = load_model_file(run_dir / "model.json")
    assert mappings == result.screening_report.level_mappings


def test_score_and_the_run_score_an_out_of_sample_file_alike(tmp_path):
    """The same CSV, given to a run as its out-of-sample file and then to
    ``score_table_file`` with that run's model, gets the same probabilities."""
    config = PipelineConfig.from_dict(CONFIG)
    sample, _ = generate(config.synthetic, sample_index=SCORED_SAMPLE_INDEX)
    save_table(sample, tmp_path / "data.csv")
    save_schema(sample.schema, tmp_path / "schema.json")
    files = {"csv": str(tmp_path / "data.csv"), "schema": str(tmp_path / "schema.json")}
    run_config = PipelineConfig.from_dict(CONFIG | {"out_of_sample": files})
    result = run_pipeline(run_config, tmp_path / "run")
    score_table_file(
        tmp_path / "run" / "model.json", tmp_path / "data.csv", tmp_path / "schema.json",
        tmp_path / "scores.csv",
    )
    with open(tmp_path / "scores.csv", encoding="utf-8", newline="") as fh:
        probabilities = np.array([float(row["probability"]) for row in csv.DictReader(fh)])
    assert np.array_equal(probabilities, result.score_sets["out_of_sample"].p)


def test_synthetic_dataset_is_byte_stable(tmp_path):
    names = write_synthetic_dataset(PipelineConfig.from_dict(CONFIG), tmp_path)
    assert {name: sha256(tmp_path / name) for name in names} == SYNTHETIC_GOLDEN


def test_stepwise_trace_to_the_pass_cap_is_byte_stable(tmp_path):
    run_pipeline(PipelineConfig.from_dict(CYCLING_CONFIG), tmp_path)
    with open(tmp_path / "model.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    assert len(doc["stepwise_trace"]) == 87
    assert doc["model"]["warnings"][-1].startswith("stepwise stopped at its cap")
    assert sha256(tmp_path / "model.json") == CYCLING_MODEL_DIGEST


@pytest.mark.parametrize("workload", sorted(BENCH_SCREENING_DIGESTS))
def test_screening_report_at_benchmark_width_is_byte_stable(tmp_path, workload):
    config = {"tall": CYCLING_CONFIG, "wide": WIDE_CONFIG}[workload]
    run_pipeline(PipelineConfig.from_dict(config).with_seed(11000), tmp_path)
    assert sha256(tmp_path / "screening_report.json") == BENCH_SCREENING_DIGESTS[workload]
