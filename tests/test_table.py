import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from screenfit.errors import CellParseError, ComputationError, ValidationError
from screenfit.table import (
    ColumnKind,
    ColumnSpec,
    DataTable,
    TableSchema,
    impute_median,
    impute_numeric_columns,
    load_schema,
    load_table,
    save_schema,
    save_table,
    split_train_validation,
    stratified_sample,
)

from conftest import make_table


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


@pytest.fixture
def simple_schema():
    return TableSchema(
        columns=(
            ColumnSpec("x", ColumnKind.CONTINUOUS),
            ColumnSpec("flag", ColumnKind.BINARY),
            ColumnSpec("lvl", ColumnKind.LIKELIHOOD),
            ColumnSpec("cat", ColumnKind.CATEGORICAL, levels=("a", "b")),
            ColumnSpec("y", ColumnKind.BINARY),
        ),
        target="y",
    )


class TestLoadTable:
    def test_three_row_csv(self, tmp_path, simple_schema):
        p = write_csv(tmp_path / "d.csv", "x,flag,lvl,cat,y\n1.5,0,10,a,0\n2.5,1,20,b,1\n3.5,0,30,a,0\n")
        table = load_table(p, simple_schema)
        assert table.n_records == 3
        assert table.column("x").tolist() == [1.5, 2.5, 3.5]

    def test_empty_cell_is_missing(self, tmp_path, simple_schema):
        p = write_csv(tmp_path / "d.csv", "x,flag,lvl,cat,y\n,0,10,a,0\nNA,1,,b,1\n")
        table = load_table(p, simple_schema)
        assert np.isnan(table.column("x")).tolist() == [True, True]
        assert np.isnan(table.column("lvl")).tolist() == [False, True]

    def test_header_mismatch(self, tmp_path, simple_schema):
        p = write_csv(tmp_path / "d.csv", "x,flag,lvl,y\n1,0,10,0\n")
        with pytest.raises(ValidationError, match="header"):
            load_table(p, simple_schema)

    def test_unparseable_cell_names_row_column_token(self, tmp_path, simple_schema):
        # a continuous cell must be a finite number: "nan" is not a gap marker
        for token in ("bad", "nan", "inf", "-inf", "1e400"):
            p = write_csv(tmp_path / "d.csv", f"x,flag,lvl,cat,y\n1.0,0,10,a,0\n{token},1,20,b,1\n")
            with pytest.raises(CellParseError, match=rf"row 1.*'x'.*'{token}'"):
                load_table(p, simple_schema)

    def test_likelihood_out_of_range(self, tmp_path, simple_schema):
        for token in ("100", "0", "2.5", "nan", "inf", "-inf"):
            p = write_csv(tmp_path / "d.csv", f"x,flag,lvl,cat,y\n1.0,0,{token},a,0\n")
            with pytest.raises(CellParseError, match=rf"row 0.*'lvl'.*'{token}'"):
                load_table(p, simple_schema)

    def test_binary_must_be_zero_or_one(self, tmp_path, simple_schema):
        for token in ("2", "0.5", "nan", "inf"):
            p = write_csv(tmp_path / "d.csv", f"x,flag,lvl,cat,y\n1.0,{token},10,a,0\n")
            with pytest.raises(CellParseError, match=rf"row 0.*'flag'.*'{token}'"):
                load_table(p, simple_schema)

    def test_first_bad_cell_is_lowest_row_then_leftmost_column(self, tmp_path, simple_schema):
        text = "x,flag,lvl,cat,y\n1.0,0,10,a,0\n2.0,0,10,zzz,1\nbad,3,10,a,0\n"
        with pytest.raises(CellParseError, match=r"row 1.*'cat'.*'zzz'"):
            load_table(write_csv(tmp_path / "d.csv", text), simple_schema)
        text = "x,flag,lvl,cat,y\n1.0,0,10,a,0\n2.0,5,0,zzz,1\n"
        with pytest.raises(CellParseError, match=r"row 1.*'flag'.*'5'"):
            load_table(write_csv(tmp_path / "d.csv", text), simple_schema)
        # a bad cell above a short row is reported first, and the other way round
        text = "x,flag,lvl,cat,y\n1.0,0,10,zzz,0\n2.0,0,10\n"
        with pytest.raises(CellParseError, match="zzz"):
            load_table(write_csv(tmp_path / "d.csv", text), simple_schema)
        text = "x,flag,lvl,cat,y\n2.0,0,10\n1.0,0,10,zzz,0\n"
        with pytest.raises(ValidationError, match="row 0 has 3 cells"):
            load_table(write_csv(tmp_path / "d.csv", text), simple_schema)

    def test_undeclared_categorical_level(self, tmp_path, simple_schema):
        p = write_csv(tmp_path / "d.csv", "x,flag,lvl,cat,y\n1.0,0,10,zzz,0\n")
        with pytest.raises(CellParseError, match="zzz"):
            load_table(p, simple_schema)

    def test_missing_target_rejected(self, tmp_path, simple_schema):
        p = write_csv(tmp_path / "d.csv", "x,flag,lvl,cat,y\n1.0,0,10,a,\n")
        with pytest.raises(ValidationError, match="target"):
            load_table(p, simple_schema)


class TestCategoricalStorage:
    def schema(self):
        return TableSchema(
            columns=(
                ColumnSpec("cat", ColumnKind.CATEGORICAL, levels=("b", "a", "c")),
                ColumnSpec("y", ColumnKind.BINARY),
            ),
            target="y",
        )

    def test_codes_and_strings_build_the_same_table(self):
        y = np.array([0.0, 1.0, 0.0, 1.0])
        from_codes = DataTable(self.schema(), {"cat": np.array([1, -1, 0, 2]), "y": y})
        from_strings = DataTable(self.schema(), {"cat": ["a", None, "b", "c"], "y": y})
        for t in (from_codes, from_strings):
            assert t.codes("cat").tolist() == [1, -1, 0, 2]
            assert t.column("cat").tolist() == ["a", None, "b", "c"]
            assert t.missing_mask("cat").tolist() == [False, True, False, False]
            np.testing.assert_array_equal(t.numeric_view("cat"), [1.0, np.nan, 0.0, 2.0])

    def test_undeclared_string_rejected(self):
        with pytest.raises(ValidationError, match=r"row 1.*'zzz'"):
            DataTable(self.schema(), {"cat": ["a", "zzz"], "y": np.array([0.0, 1.0])})

    def test_code_out_of_range_rejected(self):
        for bad in (3, -2):
            with pytest.raises(ValidationError, match="cat"):
                DataTable(self.schema(), {"cat": np.array([0, bad]), "y": np.array([0.0, 1.0])})

    def test_codes_of_a_numeric_column_rejected(self):
        t = make_table({"x": [1.0, 2.0], "y": [0, 1]}, {"x": ColumnKind.CONTINUOUS, "y": ColumnKind.BINARY})
        with pytest.raises(ValidationError, match="not categorical"):
            t.codes("x")


class TestRoundTrip:
    def test_save_load_identical(self, tmp_path, simple_schema):
        csv_in = write_csv(
            tmp_path / "in.csv",
            "x,flag,lvl,cat,y\n0.1,0,10,a,0\n-2.75,1,,b,1\n,0,99,a,0\n1e-17,1,1,b,1\n",
        )
        table = load_table(csv_in, simple_schema)
        out = tmp_path / "out.csv"
        save_table(table, out)
        again = load_table(out, simple_schema)
        for name in simple_schema.names:
            spec = simple_schema.column(name)
            a, b = table.column(name), again.column(name)
            if spec.kind is ColumnKind.CATEGORICAL:
                assert a.tolist() == b.tolist()
            else:
                np.testing.assert_array_equal(a, b)

    def test_schema_sidecar_round_trip(self, tmp_path, simple_schema):
        p = tmp_path / "schema.json"
        save_schema(simple_schema, p)
        assert load_schema(p) == simple_schema


class TestImputeMedian:
    def kinds(self):
        return {"x": ColumnKind.CONTINUOUS, "y": ColumnKind.BINARY}

    def test_even_gap(self):
        t = make_table({"x": [1, 2, np.nan, 4], "y": [0, 1, 0, 1]}, self.kinds())
        out = impute_median(t, "x")
        assert out.column("x").tolist() == [1, 2, 2, 4]

    def test_even_count_mean_of_central(self):
        t = make_table({"x": [1, 2, np.nan, 4, 5], "y": [0, 1, 0, 1, 1]}, self.kinds())
        out = impute_median(t, "x")
        assert out.column("x")[2] == 3.0  # (2 + 4) / 2

    def test_no_missing_returns_same_object(self):
        t = make_table({"x": [1.0, 2.0], "y": [0, 1]}, self.kinds())
        assert impute_median(t, "x") is t
        assert impute_numeric_columns(t) is t

    def test_likelihood_rounds_half_up(self):
        t = make_table(
            {"x": [1, 2, 3, 4, np.nan, np.nan], "y": [0, 1, 0, 1, 0, 1]},
            {"x": ColumnKind.LIKELIHOOD, "y": ColumnKind.BINARY},
        )
        out = impute_median(t, "x")  # median of {1,2,3,4} = 2.5 -> 3
        assert out.column("x")[4] == 3.0

    def test_all_missing_errors(self):
        t = make_table({"x": [np.nan, np.nan], "y": [0, 1]}, self.kinds())
        with pytest.raises(ComputationError, match="no non-missing"):
            impute_median(t, "x")

    def test_categorical_rejected(self):
        t = make_table(
            {"c": ["a", "b"], "y": [0, 1]},
            {"c": ColumnKind.CATEGORICAL, "y": ColumnKind.BINARY},
        )
        with pytest.raises(ValidationError):
            impute_median(t, "c")

    @given(
        st.lists(
            st.one_of(st.floats(-100, 100), st.none()),
            min_size=2,
            max_size=30,
        ).filter(lambda vs: any(v is not None for v in vs))
    )
    def test_idempotent(self, raw):
        values = [np.nan if v is None else v for v in raw]
        ys = [i % 2 for i in range(len(values))]
        t = make_table({"x": values, "y": ys}, self.kinds())
        once = impute_median(t, "x")
        twice = impute_median(once, "x")
        np.testing.assert_array_equal(once.column("x"), twice.column("x"))
        # non-missing cells unchanged
        mask = ~np.isnan(np.array(values, dtype=float))
        np.testing.assert_array_equal(
            once.column("x")[mask], np.array(values, dtype=float)[mask]
        )


class TestImputeNumericColumns:
    def test_matches_impute_median_column_by_column(self):
        t = make_table(
            {
                "x": [1.0, np.nan, 4.0, 2.0],
                "lik": [np.nan, 3.0, 4.0, np.nan],
                "full": [1.0, 2.0, 3.0, 4.0],
                "c": ["a", None, "b", "a"],
                "y": [0, 1, 0, 1],
            },
            {
                "x": ColumnKind.CONTINUOUS,
                "lik": ColumnKind.LIKELIHOOD,
                "full": ColumnKind.CONTINUOUS,
                "c": ColumnKind.CATEGORICAL,
                "y": ColumnKind.BINARY,
            },
        )
        out = impute_numeric_columns(t)
        reference = impute_median(impute_median(t, "x"), "lik")
        for name in ("x", "lik", "full", "y"):
            np.testing.assert_array_equal(out.column(name), reference.column(name))
        assert out.column("lik").tolist() == [4.0, 3.0, 4.0, 4.0]  # 3.5 rounds half up
        # columns without gaps, and categorical gaps, are left as they were
        assert out.column("full") is t.column("full")
        assert out.codes("c") is t.codes("c")


class TestSplit:
    def table_with_classes(self, n_pos, n_neg):
        ys = [1] * n_pos + [0] * n_neg
        xs = list(range(len(ys)))
        return make_table(
            {"x": xs, "y": ys},
            {"x": ColumnKind.CONTINUOUS, "y": ColumnKind.BINARY},
        )

    def test_paper_style_60_40(self):
        t = self.table_with_classes(4, 6)
        res = split_train_validation(t, 0.6, seed=7)
        assert res.train.n_records == 6
        assert res.validation.n_records == 4
        pos_in_train = int(res.train.target_values.sum())
        assert pos_in_train in (2, 3)

    def test_two_rows_one_per_class(self):
        t = self.table_with_classes(1, 1)
        res = split_train_validation(t, 0.5, seed=0)
        assert res.train.n_records == 1
        assert res.validation.n_records == 1

    def test_deterministic(self):
        t = self.table_with_classes(13, 17)
        a = split_train_validation(t, 0.6, seed=42)
        b = split_train_validation(t, 0.6, seed=42)
        np.testing.assert_array_equal(a.train.column("x"), b.train.column("x"))
        np.testing.assert_array_equal(a.validation.column("x"), b.validation.column("x"))

    def test_bad_frac(self):
        t = self.table_with_classes(2, 2)
        for frac in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValidationError):
                split_train_validation(t, frac, seed=1)

    def test_single_class_rejected(self):
        t = make_table(
            {"x": [1, 2], "y": [1, 1]},
            {"x": ColumnKind.CONTINUOUS, "y": ColumnKind.BINARY},
        )
        with pytest.raises(ValidationError):
            split_train_validation(t, 0.5, seed=1)

    @given(
        n_pos=st.integers(1, 25),
        n_neg=st.integers(1, 25),
        frac=st.floats(0.05, 0.95),
        seed=st.integers(0, 10_000),
    )
    def test_disjoint_union_and_stratification(self, n_pos, n_neg, frac, seed):
        t = self.table_with_classes(n_pos, n_neg)
        res = split_train_validation(t, frac, seed)
        train_ids = set(res.train.column("x").tolist())
        valid_ids = set(res.validation.column("x").tolist())
        assert train_ids & valid_ids == set()
        assert train_ids | valid_ids == set(range(n_pos + n_neg))
        assert res.train.n_records == math.floor(frac * (n_pos + n_neg) + 0.5)
        # per class, the train share is within one record of frac
        for cls, total in ((1, n_pos), (0, n_neg)):
            k = int((res.train.target_values == cls).sum())
            assert abs(k - frac * total) < 1.0 + 1e-9


class TestStratifiedSample:
    def pool(self, n, target_value, offset=0):
        return make_table(
            {"x": [offset + i for i in range(n)], "y": [target_value] * n},
            {"x": ColumnKind.CONTINUOUS, "y": ColumnKind.BINARY},
        )

    def test_counts(self):
        sample = stratified_sample(self.pool(300, 1), self.pool(500, 0, 1000), 30, 50, seed=9)
        assert sample.n_records == 80
        assert int(sample.target_values.sum()) == 30

    def test_zero_signal(self):
        sample = stratified_sample(self.pool(300, 1), self.pool(500, 0, 1000), 0, 50, seed=9)
        assert sample.n_records == 50
        assert int(sample.target_values.sum()) == 0

    def test_too_many_requested(self):
        with pytest.raises(ValidationError, match="301"):
            stratified_sample(self.pool(300, 1), self.pool(500, 0), 301, 10, seed=9)

    def test_schema_mismatch(self):
        other = make_table(
            {"z": [1.0], "y": [0]},
            {"z": ColumnKind.CONTINUOUS, "y": ColumnKind.BINARY},
        )
        with pytest.raises(ValidationError, match="schema"):
            stratified_sample(self.pool(5, 1), other, 1, 1, seed=9)

    def test_without_replacement_and_deterministic(self):
        a = stratified_sample(self.pool(40, 1), self.pool(60, 0, 1000), 20, 30, seed=3)
        b = stratified_sample(self.pool(40, 1), self.pool(60, 0, 1000), 20, 30, seed=3)
        np.testing.assert_array_equal(a.column("x"), b.column("x"))
        xs = a.column("x").tolist()
        assert len(set(xs)) == len(xs)
