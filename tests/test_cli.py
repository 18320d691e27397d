import json

import pytest

from screenfit.cli import main

SCHEMA = {
    "target": "y",
    "columns": [
        {"name": "x", "kind": "continuous"},
        {"name": "lik", "kind": "likelihood"},
        {"name": "y", "kind": "binary"},
    ],
}

PLAN = {"retain_after_chi2": 4, "retain_after_t": 3, "retain_after_iv": 2, "final_retain": 1}


def input_config(tmp_path, csv_text: str, **sections) -> str:
    """A pipeline config on the given CSV text, plus any further config
    sections; returns the config path."""
    (tmp_path / "data.csv").write_text(csv_text, encoding="utf-8")
    (tmp_path / "schema.json").write_text(json.dumps(SCHEMA), encoding="utf-8")
    config = {
        "plan": PLAN,
        "input": {"csv": str(tmp_path / "data.csv"), "schema": str(tmp_path / "schema.json")},
        **sections,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return str(path)


def run_pipeline_command(tmp_path, config: str) -> int:
    return main(["pipeline", "--config", config, "--out", str(tmp_path / "out")])


def test_missing_config_exits_2(tmp_path, capsys):
    assert run_pipeline_command(tmp_path, str(tmp_path / "absent.json")) == 2
    assert "no such config file" in capsys.readouterr().err


def test_missing_model_file_exits_2(tmp_path, capsys):
    (tmp_path / "schema.json").write_text(json.dumps(SCHEMA), encoding="utf-8")
    (tmp_path / "data.csv").write_text("x,lik,y\n1.0,5,0\n", encoding="utf-8")
    argv = ["score", "--model", str(tmp_path / "absent.json"), "--data", str(tmp_path / "data.csv"),
            "--schema", str(tmp_path / "schema.json"), "--out", str(tmp_path / "scores.csv")]
    assert main(argv) == 2
    assert "no such model file" in capsys.readouterr().err
    assert not (tmp_path / "scores.csv").exists()


# An intercept-only model: scoring it reads no column but the target.
MODEL = {
    "target": "y",
    "model": {
        "rows": [{"estimate": -1.0, "std_error": 0.5}],
        "log_likelihood": -5.0,
        "n": 10,
        "converged": True,
        "iterations": 4,
    },
}


def test_data_directory_exits_2(tmp_path, capsys):
    (tmp_path / "schema.json").write_text(json.dumps(SCHEMA), encoding="utf-8")
    (tmp_path / "model.json").write_text(json.dumps(MODEL), encoding="utf-8")
    (tmp_path / "data.csv").mkdir()
    argv = ["score", "--model", str(tmp_path / "model.json"), "--data", str(tmp_path / "data.csv"),
            "--schema", str(tmp_path / "schema.json"), "--out", str(tmp_path / "scores.csv")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path / "data.csv") in err
    assert not (tmp_path / "scores.csv").exists()


def test_non_finite_likelihood_cell_exits_2(tmp_path, capsys):
    config = input_config(tmp_path, "x,lik,y\n1.0,5,0\n2.0,inf,1\n")
    assert run_pipeline_command(tmp_path, config) == 2
    assert "row 1, column 'lik'" in capsys.readouterr().err


def test_computation_error_exits_1(tmp_path, capsys):
    config = input_config(tmp_path, "x,lik,y\n,5,0\nNA,6,1\n")
    assert run_pipeline_command(tmp_path, config) == 1
    assert "no non-missing values" in capsys.readouterr().err


SYNTHETIC = {
    "n_signal": 20,
    "n_background": 80,
    "n_informative": 2,
    "n_noise": 4,
    "kind_mix": {"binary": 0.5, "continuous": 0.5},
}


@pytest.mark.parametrize(
    "sections, message",
    [
        ({"split": {"seed": -3}}, "split.seed"),
        ({"stepwise": {"max_terms": 2.5}}, "stepwise.max_terms"),
    ],
)
def test_bad_seed_or_max_terms_in_config_exits_2(tmp_path, capsys, sections, message):
    config = input_config(tmp_path, "x,lik,y\n1.0,5,0\n2.0,6,1\n", **sections)
    assert run_pipeline_command(tmp_path, config) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["pipeline", "synth"])
def test_negative_synthetic_seed_exits_2(tmp_path, capsys, command):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"plan": PLAN, "synthetic": SYNTHETIC | {"seed": -1}}), encoding="utf-8")
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "synthetic.seed must be a whole number >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["pipeline", "synth"])
def test_negative_seed_option_exits_2(tmp_path, capsys, command):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"plan": PLAN, "synthetic": SYNTHETIC}), encoding="utf-8")
    argv = [command, "--config", str(path), "--out", str(tmp_path / "out"), "--seed", "-5"]
    assert main(argv) == 2
    assert "synthetic.seed must be a whole number >= 0, got -5" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
