import json

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


def input_config(tmp_path, csv_text: str) -> str:
    """A pipeline config on the given CSV text; returns the config path."""
    (tmp_path / "data.csv").write_text(csv_text, encoding="utf-8")
    (tmp_path / "schema.json").write_text(json.dumps(SCHEMA), encoding="utf-8")
    config = {
        "plan": PLAN,
        "input": {"csv": str(tmp_path / "data.csv"), "schema": str(tmp_path / "schema.json")},
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


def test_non_finite_likelihood_cell_exits_2(tmp_path, capsys):
    config = input_config(tmp_path, "x,lik,y\n1.0,5,0\n2.0,inf,1\n")
    assert run_pipeline_command(tmp_path, config) == 2
    assert "row 1, column 'lik'" in capsys.readouterr().err


def test_computation_error_exits_1(tmp_path, capsys):
    config = input_config(tmp_path, "x,lik,y\n,5,0\nNA,6,1\n")
    assert run_pipeline_command(tmp_path, config) == 1
    assert "no non-missing values" in capsys.readouterr().err
