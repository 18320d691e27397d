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


def test_header_with_a_byte_order_mark_scores(tmp_path):
    # spreadsheet "CSV UTF-8" exports start the file with a byte-order mark
    (tmp_path / "schema.json").write_text(json.dumps(SCHEMA), encoding="utf-8")
    (tmp_path / "model.json").write_text(json.dumps(MODEL), encoding="utf-8")
    (tmp_path / "data.csv").write_text("\ufeffx,lik,y\n1.0,5,0\n", encoding="utf-8")
    argv = ["score", "--model", str(tmp_path / "model.json"), "--data", str(tmp_path / "data.csv"),
            "--schema", str(tmp_path / "schema.json"), "--out", str(tmp_path / "scores.csv")]
    assert main(argv) == 0
    assert (tmp_path / "scores.csv").read_text(encoding="utf-8").count("\n") == 2


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


@pytest.mark.parametrize(
    "sections, message",
    [
        ({"threshold": True, "prune_cutoff": False}, "prune_cutoff must be a finite number"),
        ({"plan": PLAN | {"level_merge_alpha": False}}, "plan.level_merge_alpha must be a finite"),
        ({"out_dir": 5}, "out_dir must be a string, got 5"),
        ({"out_of_sample": {"csv": 0, "schema": 0}}, "out_of_sample.csv must be a string, got 0"),
        # a descriptor number is not a path: the schema is not read from stdin
        ({"input": {"csv": 0, "schema": 0}}, "input.csv must be a string, got 0"),
    ],
)
def test_non_number_or_non_string_in_config_exits_2(tmp_path, capsys, sections, message):
    config = input_config(tmp_path, "x,lik,y\n1.0,5,0\n2.0,6,1\n", **sections)
    assert run_pipeline_command(tmp_path, config) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: ")
    assert message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["pipeline", "synth"])
def test_negative_synthetic_seed_exits_2(tmp_path, capsys, command):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"plan": PLAN, "synthetic": SYNTHETIC | {"seed": -1}}), encoding="utf-8")
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "synthetic.seed must be a whole number >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["pipeline", "synth"])
def test_fractional_synthetic_count_exits_2(tmp_path, capsys, command):
    path = tmp_path / "config.json"
    doc = {"plan": PLAN, "synthetic": SYNTHETIC | {"n_noise": 4.5}}
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "synthetic.n_noise must be a whole number >= 0, got 4.5" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["pipeline", "synth"])
def test_negative_seed_option_exits_2(tmp_path, capsys, command):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"plan": PLAN, "synthetic": SYNTHETIC}), encoding="utf-8")
    argv = [command, "--config", str(path), "--out", str(tmp_path / "out"), "--seed", "-5"]
    assert main(argv) == 2
    assert "synthetic.seed must be a whole number >= 0, got -5" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# A model with one standardized term, on a schema with a categorical
# column the model does not read; its level mapping is applied to nothing.
SCORED_SCHEMA = {
    "target": "y",
    "columns": SCHEMA["columns"][:2]
    + [{"name": "c", "kind": "categorical", "levels": ["a", "b"]}, {"name": "y", "kind": "binary"}],
}
TERM_MODEL = {
    "target": "y",
    "level_mappings": {"c": {"a": "a", "b": "a"}},
    "model": MODEL["model"]
    | {
        "rows": MODEL["model"]["rows"]
        + [
            {
                "term": {"source": "x", "encoding": "standardized", "mean": 1.5, "std": 0.5},
                "estimate": 0.3,
                "std_error": 0.1,
            }
        ]
    },
}


def score_command(tmp_path, model: dict, schema: dict, out=None) -> int:
    (tmp_path / "model.json").write_text(json.dumps(model), encoding="utf-8")
    (tmp_path / "schema.json").write_text(json.dumps(schema), encoding="utf-8")
    (tmp_path / "data.csv").write_text("x,lik,c,y\n1.0,5,a,0\n2.0,6,b,1\n", encoding="utf-8")
    argv = ["score", "--model", str(tmp_path / "model.json"), "--data", str(tmp_path / "data.csv"),
            "--schema", str(tmp_path / "schema.json"), "--out", str(out or tmp_path / "scores.csv")]
    return main(argv)


def edited(doc: dict, where: tuple, value) -> dict:
    """A deep copy of a JSON document with the value at a key path replaced."""
    doc = json.loads(json.dumps(doc))
    *parents, last = where
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value
    return doc


def test_well_formed_model_and_schema_score(tmp_path):
    assert score_command(tmp_path, TERM_MODEL, SCORED_SCHEMA) == 0
    assert (tmp_path / "scores.csv").read_text(encoding="utf-8").count("\n") == 3


ROW = ("model", "rows", 1)
NUMBER = "must be a finite number"
INTERCEPT_FIRST = "rows must start with the intercept row, which has no term"


def test_integer_estimate_that_a_float_holds_scores(tmp_path):
    # Read into an array of Python ints, 10**300 made scoring fail in numpy.
    assert score_command(tmp_path, edited(TERM_MODEL, (*ROW, "estimate"), 10**300), SCORED_SCHEMA) == 0
    assert (tmp_path / "scores.csv").read_text(encoding="utf-8").count("\n") == 3


@pytest.mark.parametrize(
    "where, value, message",
    [
        pytest.param(
            (*ROW, "estimate"), "abc", f"rows[1].estimate {NUMBER}, got 'abc'", id="estimate-string"
        ),
        pytest.param(
            (*ROW, "estimate"), None, f"rows[1].estimate {NUMBER}, got None", id="estimate-null"
        ),
        pytest.param(
            (*ROW, "estimate"), float("nan"), f"rows[1].estimate {NUMBER}", id="estimate-nan"
        ),
        pytest.param(
            (*ROW, "std_error"), True, f"rows[1].std_error {NUMBER}, got True", id="std-error-bool"
        ),
        pytest.param(
            (*ROW, "term", "source"), 5, "term field 'source' must be a string, got 5",
            id="term-source-number",
        ),
        pytest.param(
            (*ROW, "term", "mean"), "abc", f"term field 'mean' {NUMBER}", id="term-mean-string"
        ),
        pytest.param(
            (*ROW, "term", "std"), float("inf"), f"term field 'std' {NUMBER}",
            id="term-std-infinite",
        ),
        pytest.param(
            ("level_mappings", "c"), ["a"], "level mapping of 'c' must be an object of strings",
            id="mapping-list",
        ),
        pytest.param(
            ("level_mappings", "c", "b"), 1, "level mapping of 'c' must be an object of strings",
            id="mapping-number-value",
        ),
        pytest.param(
            (*ROW, "estimate"), 10**400, f"rows[1].estimate {NUMBER}", id="estimate-huge-integer"
        ),
        pytest.param(
            (*ROW, "term", "mean"), -(10**400), f"term field 'mean' {NUMBER}",
            id="term-mean-huge-integer",
        ),
        pytest.param(
            ("level_mappings",), [], "level_mappings must be an object, got []", id="mappings-list"
        ),
        pytest.param(("model", "rows"), [], INTERCEPT_FIRST, id="no-rows"),
        # scored as is, the first term's estimate would be read as the intercept
        pytest.param(
            ("model", "rows"), TERM_MODEL["model"]["rows"][1:], INTERCEPT_FIRST,
            id="intercept-row-missing",
        ),
    ],
)
def test_model_file_with_a_wrong_type_exits_2(tmp_path, capsys, where, value, message):
    assert score_command(tmp_path, edited(TERM_MODEL, where, value), SCORED_SCHEMA) == 2
    err = capsys.readouterr().err
    assert f"error: {tmp_path / 'model.json'}: " in err and message in err
    assert not (tmp_path / "scores.csv").exists()


def test_model_row_with_a_null_term_is_the_intercept(tmp_path):
    model = edited(TERM_MODEL, ("model", "rows", 0, "term"), None)
    assert score_command(tmp_path, model, SCORED_SCHEMA) == 0
    assert (tmp_path / "scores.csv").read_text(encoding="utf-8").count("\n") == 3


@pytest.mark.parametrize(
    "out, message",
    [
        pytest.param("absent/scores.csv", "No such file or directory", id="missing-directory"),
        pytest.param("outdir", "Is a directory", id="directory"),
    ],
)
def test_score_out_path_that_cannot_be_written_exits_2(tmp_path, capsys, out, message):
    (tmp_path / "outdir").mkdir()
    assert score_command(tmp_path, TERM_MODEL, SCORED_SCHEMA, out=tmp_path / out) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / out}: cannot write: {message}")
    assert not (tmp_path / "scores.csv").exists()
    assert not (tmp_path / "absent").exists() and not any((tmp_path / "outdir").iterdir())


@pytest.mark.parametrize(
    "out, message",
    [
        pytest.param("absent/scores.csv", "No such file or directory", id="missing-directory"),
        pytest.param("outdir", "Is a directory", id="directory"),
    ],
)
def test_score_out_path_is_checked_before_the_data_is_read(tmp_path, capsys, out, message):
    (tmp_path / "outdir").mkdir()
    (tmp_path / "model.json").write_text(json.dumps(TERM_MODEL), encoding="utf-8")
    (tmp_path / "schema.json").write_text(json.dumps(SCORED_SCHEMA), encoding="utf-8")
    (tmp_path / "data.csv").write_text("x,lik,c,y\n1.0,5,a,0\nzzz,6,b,1\n", encoding="utf-8")
    argv = ["score", "--model", str(tmp_path / "model.json"), "--data", str(tmp_path / "data.csv"),
            "--schema", str(tmp_path / "schema.json"), "--out"]
    assert main(argv + [str(tmp_path / out)]) == 2
    assert capsys.readouterr().err == f"error: {tmp_path / out}: cannot write: {message}\n"
    assert not (tmp_path / "absent").exists() and not any((tmp_path / "outdir").iterdir())
    # With a good path, the bad cell is reported and nothing is written.
    assert main(argv + [str(tmp_path / "scores.csv")]) == 2
    assert "row 1, column 'x': cannot parse 'zzz'" in capsys.readouterr().err
    assert not (tmp_path / "scores.csv").exists()


@pytest.mark.parametrize("command", ["pipeline", "synth"])
def test_out_dir_that_is_a_file_exits_2(tmp_path, capsys, command):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"plan": PLAN, "synthetic": SYNTHETIC}), encoding="utf-8")
    (tmp_path / "out").write_text("not a directory\n", encoding="utf-8")
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / 'out'}: cannot make the output directory: ")
    assert (tmp_path / "out").read_text(encoding="utf-8") == "not a directory\n"


@pytest.mark.parametrize(
    "where, value, message",
    [
        pytest.param(
            ("columns", 2, "levels"), "abc", "column 'c': levels must be a list of strings",
            id="levels-string",
        ),
        pytest.param(
            ("columns", 0, "name"), 5, "column name must be a string, got 5", id="name-number"
        ),
        pytest.param(
            ("columns", 2, "levels"), [1, 2], "categorical column 'c': a level must be a string",
            id="levels-numbers",
        ),
    ],
)
def test_schema_file_with_a_wrong_type_exits_2(tmp_path, capsys, where, value, message):
    assert score_command(tmp_path, TERM_MODEL, edited(SCORED_SCHEMA, where, value)) == 2
    err = capsys.readouterr().err
    assert f"error: {tmp_path / 'schema.json'}: " in err and message in err
    assert not (tmp_path / "scores.csv").exists()


def test_bound_outside_its_interval_in_config_exits_2(tmp_path, capsys):
    plan = PLAN | {"occupancy_min": 1.5}
    config = input_config(tmp_path, "x,lik,y\n1.0,5,0\n2.0,6,1\n", plan=plan)
    assert run_pipeline_command(tmp_path, config) == 2
    assert capsys.readouterr().err == (
        f"error: {config}: plan.occupancy_min must be in [0, 1], got 1.5\n"
    )
    assert not (tmp_path / "out").exists()


# A model with one flag term on f.  Declared categorical with levels "1"
# and "0", f would be read as level indices: 1 for the cell "0", 0 for "1".
FLAG_MODEL = edited(
    MODEL,
    ("model", "rows"),
    MODEL["model"]["rows"]
    + [{"term": {"source": "f", "encoding": "flag"}, "estimate": 1.2, "std_error": 0.3}],
)


@pytest.mark.parametrize(
    "column, code",
    [
        ({"name": "f", "kind": "binary"}, 0),
        ({"name": "f", "kind": "categorical", "levels": ["1", "0"]}, 2),
    ],
)
def test_flag_term_scores_only_a_binary_column(tmp_path, capsys, column, code):
    schema = {"target": "y", "columns": [column, {"name": "y", "kind": "binary"}]}
    (tmp_path / "model.json").write_text(json.dumps(FLAG_MODEL), encoding="utf-8")
    (tmp_path / "schema.json").write_text(json.dumps(schema), encoding="utf-8")
    (tmp_path / "data.csv").write_text("f,y\n1,0\n0,1\n", encoding="utf-8")
    argv = ["score", "--model", str(tmp_path / "model.json"), "--data", str(tmp_path / "data.csv"),
            "--schema", str(tmp_path / "schema.json"), "--out", str(tmp_path / "scores.csv")]
    assert main(argv) == code
    if code == 0:
        assert (tmp_path / "scores.csv").read_text(encoding="utf-8").count("\n") == 3
    else:
        err = capsys.readouterr().err
        assert err == "error: column 'f' is categorical, but the model encodes it as a flag term\n"
        assert not (tmp_path / "scores.csv").exists()


# A model with a level mapping and a dummy term on c: scoring applies the
# mapping before it encodes the term.
DUMMY_MODEL = edited(
    TERM_MODEL,
    ("model", "rows"),
    TERM_MODEL["model"]["rows"]
    + [
        {
            "term": {"source": "c", "encoding": "dummy", "level": "b", "reference": "a"},
            "estimate": 0.7,
            "std_error": 0.2,
        }
    ],
) | {"level_mappings": {"c": {"a": "a", "b": "b"}}}


@pytest.mark.parametrize(
    "column, cells, code",
    [
        ({"name": "c", "kind": "categorical", "levels": ["a", "b"]}, ("a", "b"), 0),
        ({"name": "c", "kind": "binary"}, ("0", "1"), 2),
    ],
)
def test_level_mapping_applies_only_to_a_categorical_column(tmp_path, capsys, column, cells, code):
    schema = edited(SCORED_SCHEMA, ("columns", 2), column)
    (tmp_path / "model.json").write_text(json.dumps(DUMMY_MODEL), encoding="utf-8")
    (tmp_path / "schema.json").write_text(json.dumps(schema), encoding="utf-8")
    rows = "".join(f"{x},5,{c},{y}\n" for x, c, y in zip((1.0, 2.0), cells, (0, 1)))
    (tmp_path / "data.csv").write_text("x,lik,c,y\n" + rows, encoding="utf-8")
    argv = ["score", "--model", str(tmp_path / "model.json"), "--data", str(tmp_path / "data.csv"),
            "--schema", str(tmp_path / "schema.json"), "--out", str(tmp_path / "scores.csv")]
    assert main(argv) == code
    if code == 0:
        assert (tmp_path / "scores.csv").read_text(encoding="utf-8").count("\n") == 3
    else:
        assert capsys.readouterr().err == "error: column 'c' is binary, not categorical\n"
        assert not (tmp_path / "scores.csv").exists()


def test_synth_and_pipeline_list_the_same_options(capsys):
    helps = []
    for command in ("synth", "pipeline"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        helps.append(capsys.readouterr().out.replace(f"screenfit {command}", "screenfit COMMAND"))
    assert helps[0] == helps[1]
    assert all(option in helps[0] for option in ("--config CONFIG", "--out OUT", "--seed SEED"))
