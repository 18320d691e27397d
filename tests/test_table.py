import codecs
import csv
import gc
import io
import itertools
import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from screenfit import table as table_module
from screenfit.config import load_config
from screenfit.errors import CellParseError, ComputationError, ValidationError
from screenfit.logit import DUMMY, encode_design
from screenfit.pipeline import load_model_file
from screenfit.screening import LevelMapping, apply_level_mapping
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
    _kept_blocks,
    _largest_remainder,
)

from conftest import COLUMN_OF_KIND, make_table


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


SIMPLE_SCHEMA = TableSchema(
    columns=(
        ColumnSpec("x", ColumnKind.CONTINUOUS),
        ColumnSpec("flag", ColumnKind.BINARY),
        ColumnSpec("lvl", ColumnKind.LIKELIHOOD),
        ColumnSpec("cat", ColumnKind.CATEGORICAL, levels=("a", "b")),
        ColumnSpec("y", ColumnKind.BINARY),
    ),
    target="y",
)


@pytest.fixture
def simple_schema():
    return SIMPLE_SCHEMA


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
        # the message names the first column that differs, not the whole
        # header, so a stray byte-order mark shows at the front of its name
        for header, message in (
            ("x,flag,lvl,y", "column 3: found 'y', expected 'cat' (4 header columns, 5"),
            ("x,\ufeffflag,lvl,cat,y", r"column 1: found '\ufeffflag', expected 'flag' (5 header"),
            ("x,lvl,flag,cat,y", "column 1: found 'lvl', expected 'flag' (5 header columns, 5"),
            ("x,flag,lvl,cat,y,z", "column 5: found 'z', expected no column (6 header columns, 5"),
        ):
            p = write_csv(tmp_path / "d.csv", f"{header}\n1.0,0,10,a,0\n")
            with pytest.raises(ValidationError, match="header") as info:
                load_table(p, simple_schema)
            assert message in str(info.value) and "'cat', 'y'" not in str(info.value)

    # A CRLF line end or a quote in the header sends the file to csv from
    # the header on; LF and a plain header keep the fast path.
    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    @pytest.mark.parametrize("header", ["x,flag,lvl,cat,y", 'x,flag,lvl,"cat",y'])
    def test_leading_byte_order_mark_is_skipped(self, tmp_path, simple_schema, eol, header):
        lines = [header, "1.5,0,10,a,0", ",1,,b,1", "3.5,NA,30,a,0"]
        data = (eol.join(lines) + eol).encode("utf-8")
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_bytes(data)
        marked.write_bytes(codecs.BOM_UTF8 + data)
        _assert_same_table(load_table(marked, simple_schema), load_table(plain, simple_schema))
        _assert_same_table(
            load_table(marked, simple_schema, ["cat"]), load_table(plain, simple_schema, ["cat"])
        )

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


def _random_table(schema, n, seed):
    rng = np.random.default_rng(seed)
    columns = {}
    for spec in schema.columns:
        if spec.kind is ColumnKind.CATEGORICAL:
            columns[spec.name] = rng.integers(-1, len(spec.levels), n)
            continue
        if spec.kind is ColumnKind.CONTINUOUS:
            values = rng.standard_normal(n)
        elif spec.kind is ColumnKind.LIKELIHOOD:
            values = rng.integers(1, 100, n).astype(float)
        else:
            values = rng.integers(0, 2, n).astype(float)
        if spec.name != schema.target:
            values[rng.random(n) < 0.2] = np.nan
        columns[spec.name] = values
    return DataTable(schema, columns)


def _assert_same_table(a, b):
    assert a.schema == b.schema
    assert a.n_records == b.n_records
    for spec in a.schema.columns:
        if spec.kind is ColumnKind.CATEGORICAL:
            np.testing.assert_array_equal(a.codes(spec.name), b.codes(spec.name))
        else:
            np.testing.assert_array_equal(a.column(spec.name), b.column(spec.name))


class TestLoadColumns:
    """``load_table(..., columns=)`` parses and validates only the named
    columns and the target, but checks the header and every row's width."""

    @given(
        n=st.integers(0, 12),
        seed=st.integers(0, 2**32 - 1),
        names=st.lists(st.sampled_from(SIMPLE_SCHEMA.names), max_size=6),
    )
    def test_equals_a_full_load_cut_to_the_columns(self, tmp_path_factory, n, seed, names):
        p = tmp_path_factory.mktemp("cut") / "d.csv"
        save_table(_random_table(SIMPLE_SCHEMA, n, seed), p)
        cut = load_table(p, SIMPLE_SCHEMA, names)
        _assert_same_table(cut, load_table(p, SIMPLE_SCHEMA).select_columns(names))
        assert cut.schema == SIMPLE_SCHEMA.select(names)

    def test_bad_cell_in_an_unread_column_is_ignored(self, tmp_path, simple_schema):
        p = write_csv(tmp_path / "d.csv", "x,flag,lvl,cat,y\n1.5,7,0,zzz,0\n2.5,1,20,b,1\n")
        table = load_table(p, simple_schema, ["x"])
        assert table.schema.names == ["x", "y"]
        assert table.column("x").tolist() == [1.5, 2.5]

    def test_bad_cell_in_a_read_column_raises_as_in_a_full_load(self, tmp_path, simple_schema):
        text = "x,flag,lvl,cat,y\n1.0,0,10,a,0\n2.0,0,0,zzz,1\nbad,3,10,a,0\n"
        p = write_csv(tmp_path / "d.csv", text)
        with pytest.raises(CellParseError) as full:
            load_table(p, simple_schema)
        for names in (["x", "lvl", "cat"], ["cat", "lvl"], ["lvl"]):
            with pytest.raises(CellParseError) as cut:
                load_table(p, simple_schema, names)
            assert (cut.value.row, cut.value.column, cut.value.token) == (1, "lvl", "0")
            assert str(cut.value) == str(full.value)
        with pytest.raises(CellParseError) as cut:
            load_table(p, simple_schema, ["cat"])
        assert (cut.value.row, cut.value.column, cut.value.token) == (1, "cat", "zzz")
        with pytest.raises(CellParseError) as cut:
            load_table(p, simple_schema, ["flag", "x"])
        assert (cut.value.row, cut.value.column, cut.value.token) == (2, "x", "bad")

    def test_ragged_row_and_header_checked_outside_the_read_columns(self, tmp_path, simple_schema):
        for row in ("1.0,0,10,a,0,extra", "1.0,0,10,a"):
            p = write_csv(tmp_path / "d.csv", f"x,flag,lvl,cat,y\n2.0,1,20,b,1\n{row}\n")
            with pytest.raises(ValidationError, match="row 1 has"):
                load_table(p, simple_schema, ["x"])
        # a bad read cell above the ragged row is still reported first
        p = write_csv(tmp_path / "d.csv", "x,flag,lvl,cat,y\nbad,1,20,b,1\n1.0,0,10,a,0,extra\n")
        with pytest.raises(CellParseError, match="'bad'"):
            load_table(p, simple_schema, ["x"])
        p = write_csv(tmp_path / "d.csv", "x,flag,lvl,cat,z\n1.0,0,10,a,0\n")
        with pytest.raises(ValidationError, match="header"):
            load_table(p, simple_schema, ["x"])

    def test_unknown_column_rejected(self, tmp_path, simple_schema):
        p = write_csv(tmp_path / "d.csv", "x,flag,lvl,cat,y\n1.0,0,10,a,0\n")
        with pytest.raises(ValidationError, match="'nope'"):
            load_table(p, simple_schema, ["x", "nope"])

    def test_no_columns_gives_the_target_alone(self, tmp_path, simple_schema):
        # multi-character target tokens: a one-column cut must keep each
        # token whole, not a string of characters
        p = write_csv(tmp_path / "d.csv", "x,flag,lvl,cat,y\nbad,0,10,a,0\n2.0,1,20,b,+1\n,,,,1.0\n")
        for names in ([], ["y"]):
            table = load_table(p, simple_schema, names)
            assert table.schema.names == ["y"]
            assert table.column("y").tolist() == [0.0, 1.0, 1.0]


def _csv_kept_blocks(fh, width, picked, block):
    """``_kept_blocks``' items as :func:`csv.reader` alone reads them, the
    whole file parsed by :mod:`csv` and cut row by row: the reference."""
    rows = csv.reader(io.TextIOWrapper(fh, encoding="utf-8", newline=""))
    yield next(rows, None)
    while True:
        cells, ragged, n = [], None, 0
        for row in itertools.islice(rows, block):
            if len(row) != width:
                ragged = len(row)
                break
            cells += [row[j] for j in picked]
            n += 1
        yield cells, ragged
        if ragged is not None or n < block:
            return


def _items_and_error(reader, text, width, picked, block):
    """The items ``reader`` yields from ``text`` saved as UTF-8, and the
    message of the :class:`csv.Error` it stops with (None when it reads
    to the end)."""
    items = []
    try:
        for item in reader(io.BytesIO(text.encode("utf-8")), width, picked, block):
            items.append(item)
    except csv.Error as exc:
        return items, str(exc)
    return items, None


@st.composite
def _cuts(draw):
    """A row width, the picked cells (sorted, at least one) and a block."""
    width = draw(st.integers(1, 4))
    picked = draw(st.lists(st.integers(0, width - 1), min_size=1, unique=True))
    return width, sorted(picked), draw(st.integers(1, 4))


class TestKeptBlocks:
    """``_kept_blocks`` yields what :func:`csv.reader` reads, cut to the
    picked cells, errors included, wherever slices and blocks cut."""

    @given(
        text=st.text(alphabet='a,"\n\r\0 \u00e9', max_size=40),
        limit=st.sampled_from([2, 5, csv.field_size_limit()]),
        cut=_cuts(),
        scan_bytes=st.sampled_from([1, 2, 7, 64]),
    )
    def test_equals_csv_reader(self, text, limit, cut, scan_bytes):
        default, scan = csv.field_size_limit(limit), table_module.SCAN_BYTES
        table_module.SCAN_BYTES = scan_bytes
        try:
            assert _items_and_error(_kept_blocks, text, *cut) == _items_and_error(
                _csv_kept_blocks, text, *cut
            )
        finally:
            csv.field_size_limit(default)
            table_module.SCAN_BYTES = scan

    def test_line_over_the_field_limit(self):
        limit = csv.field_size_limit()
        # a line longer than the limit whose fields are all shorter reads
        text = "x\n" + "a," * limit + "a\nb\n"
        items, error = _items_and_error(_kept_blocks, text, limit + 1, [0, limit], 4)
        assert (items, error) == _items_and_error(_csv_kept_blocks, text, limit + 1, [0, limit], 4)
        # the long row has every cell, and the short row after it ends the rows
        assert (items, error) == ([["x"], (["a", "a"], 1)], None)
        # a field longer than the limit stops the read where csv stops
        text = "x\n" + "1" * (limit + 1) + "\nb\n"
        items, error = _items_and_error(_kept_blocks, text, 1, [0], 4)
        assert (items, error) == _items_and_error(_csv_kept_blocks, text, 1, [0], 4)
        assert (items, error) == ([["x"]], f"field larger than field limit ({limit})")


class TestQuotedAndCrlfFiles:
    """Files :mod:`csv` must read: quoted cells and CRLF line ends."""

    def test_levels_with_commas_quotes_and_newlines_round_trip(self, tmp_path):
        levels = ("plain", "a,b", 'say "hi"', "two\nlines")
        schema = TableSchema(
            columns=(
                ColumnSpec("x", ColumnKind.CONTINUOUS),
                ColumnSpec("cat", ColumnKind.CATEGORICAL, levels=levels),
                ColumnSpec("y", ColumnKind.BINARY),
            ),
            target="y",
        )
        n = 40
        rng = np.random.default_rng(5)
        codes = np.concatenate([[0, 0], np.arange(-1, 4), rng.integers(-1, 4, n - 7)])
        table = DataTable(
            schema,
            {"x": rng.standard_normal(n), "cat": codes, "y": (np.arange(n) % 2).astype(float)},
        )
        p = tmp_path / "d.csv"
        save_table(table, p)
        assert '"say ""hi"""' in p.read_text(encoding="utf-8")
        _assert_same_table(load_table(p, schema), table)
        for names in (["cat"], ["x"], []):
            _assert_same_table(load_table(p, schema, names), table.select_columns(names))

    def test_crlf_file(self, tmp_path, simple_schema):
        lines = ["x,flag,lvl,cat,y", "1.5,0,10,a,0", ",1,,b,1", "3.5,NA,30,a,0"]
        lf = write_csv(tmp_path / "lf.csv", "\n".join(lines) + "\n")
        crlf = tmp_path / "crlf.csv"
        crlf.write_bytes(("\r\n".join(lines) + "\r\n").encode("utf-8"))
        _assert_same_table(load_table(crlf, simple_schema), load_table(lf, simple_schema))
        _assert_same_table(
            load_table(crlf, simple_schema, ["cat"]), load_table(lf, simple_schema, ["cat"])
        )

    def test_quoting_that_starts_after_plain_lines(self, tmp_path, simple_schema):
        plain = "x,flag,lvl,cat,y\n1.5,0,10,a,0\n2.5,1,20,b,1\n3.5,0,30,a,0\n4.5,1,,b,1\n"
        quoted = plain.replace("3.5,0,30,a,0", '"3.5",0,"30","a",0')
        expected = load_table(write_csv(tmp_path / "plain.csv", plain), simple_schema)
        p = write_csv(tmp_path / "quoted.csv", quoted)
        _assert_same_table(load_table(p, simple_schema), expected)
        _assert_same_table(load_table(p, simple_schema, ["lvl"]), expected.select_columns(["lvl"]))
        # rows read by csv keep their row numbers and the bad-cell rule
        p = write_csv(tmp_path / "bad.csv", quoted.replace("4.5,1,,b,1", '4.5,1,,"zzz",1'))
        with pytest.raises(CellParseError, match=r"row 3.*'cat'.*'zzz'"):
            load_table(p, simple_schema)


class TestCsvTextWrapper:
    """The text wrapper the :mod:`csv` fallback reads through is detached
    from the caller's file, not left to the garbage collector, which would
    warn and close that file a second time."""

    QUOTED = 'x,flag,lvl,cat,y\n"1.5",0,10,a,0\n2.5,1,20,b,1\n3.5,0,30,a,0\n4.5,1,40,b,1\n'

    @staticmethod
    def _load_leaves_no_warning(load):
        unraisable = []
        hook, sys.unraisablehook = sys.unraisablehook, unraisable.append
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                load()
                gc.collect()
        finally:
            sys.unraisablehook = hook
        assert [w.message for w in caught if issubclass(w.category, ResourceWarning)] == []
        assert [u.exc_value for u in unraisable] == []

    def test_clean_quoted_load(self, tmp_path, simple_schema):
        p = write_csv(tmp_path / "d.csv", self.QUOTED)
        self._load_leaves_no_warning(lambda: load_table(p, simple_schema))

    def test_bad_cell_in_the_first_of_several_blocks(self, tmp_path, simple_schema, monkeypatch):
        # Two rows a block: the load raises in the first block, with the
        # csv rows still open and two rows left unread.
        monkeypatch.setattr(table_module, "BLOCK_CELLS", 2 * len(simple_schema.columns))
        p = write_csv(tmp_path / "d.csv", self.QUOTED.replace("2.5,1,20,b", "2.5,1,20,zzz"))

        def load():
            with pytest.raises(CellParseError, match=r"row 1.*'cat'.*'zzz'"):
                load_table(p, simple_schema)

        self._load_leaves_no_warning(load)


@pytest.fixture(
    scope="class", params=[1, 2 * len(SIMPLE_SCHEMA.columns)], ids=["1_cell", "10_cells"]
)
def small_blocks(request):
    """Loads parse a block of one row at a time, or of two full rows."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(table_module, "BLOCK_CELLS", request.param)
        yield


@pytest.mark.usefixtures("small_blocks")
class TestLoadTableInBlocks(TestLoadTable):
    """Every full-load case again, with rows parsed a block at a time."""


@pytest.mark.usefixtures("small_blocks")
class TestLoadColumnsInBlocks(TestLoadColumns):
    """Every cut-load case again, with rows parsed a block at a time."""


def _assert_same_dtypes(a, b):
    for spec in a.schema.columns:
        stored = a.column if spec.kind is ColumnKind.CONTINUOUS else a.codes
        other = b.column if spec.kind is ColumnKind.CONTINUOUS else b.codes
        assert stored(spec.name).dtype == other(spec.name).dtype


class TestBlockBoundaries:
    """Loads in blocks of two full rows (five rows of a two-column cut)."""

    @pytest.fixture(autouse=True)
    def two_row_blocks(self, monkeypatch):
        monkeypatch.setattr(table_module, "BLOCK_CELLS", 2 * len(SIMPLE_SCHEMA.columns))

    def test_ragged_row_right_after_a_full_block(self, tmp_path, simple_schema):
        full_block = "x,flag,lvl,cat,y\n1.0,0,10,a,0\n2.0,1,20,b,1\n"
        p = write_csv(tmp_path / "d.csv", full_block + "3.0,0,30\nbad,0,10,a,0\n")
        with pytest.raises(ValidationError, match="row 2 has 3 cells, expected 5"):
            load_table(p, simple_schema)
        with pytest.raises(ValidationError, match="row 2 has 3 cells, expected 5"):
            load_table(p, simple_schema, ["x"])
        # a bad cell in the block before it is reported first
        p = write_csv(tmp_path / "d.csv", full_block.replace("b,1", "zzz,1") + "3.0,0,30\n")
        with pytest.raises(CellParseError, match=r"row 1.*'cat'.*'zzz'"):
            load_table(p, simple_schema)

    def test_header_only_file(self, tmp_path, simple_schema):
        p = write_csv(tmp_path / "d.csv", "x,flag,lvl,cat,y\n")
        empty = _random_table(simple_schema, 0, 0)
        for names in (None, ["cat"]):
            loaded = load_table(p, simple_schema, names)
            expected = empty if names is None else empty.select_columns(names)
            _assert_same_table(loaded, expected)
            _assert_same_dtypes(loaded, expected)

    def test_row_count_an_exact_multiple_of_the_block(self, tmp_path, simple_schema):
        source = _random_table(simple_schema, 6, 3)
        p = tmp_path / "d.csv"
        save_table(source, p)
        # six rows: three blocks of a full load, two of a three-column cut
        for names in (None, ["x", "cat"]):
            loaded = load_table(p, simple_schema, names)
            expected = source if names is None else source.select_columns(names)
            _assert_same_table(loaded, expected)
            _assert_same_dtypes(loaded, expected)


@pytest.fixture(scope="class", params=[1, 20], ids=["1_byte", "20_bytes"])
def small_slices(request):
    """Loads scan slices of one line, or of the lines that fit in 20 bytes."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(table_module, "SCAN_BYTES", request.param)
        yield


@pytest.mark.usefixtures("small_slices")
class TestLoadTableInSlices(TestLoadTable):
    """Every full-load case again, with the file scanned a few lines at a time."""


@pytest.mark.usefixtures("small_slices")
class TestLoadColumnsInSlices(TestLoadColumns):
    """Every cut-load case again, with the file scanned a few lines at a time."""


class TestSlices:
    """Loads that scan 13-byte slices, one line of the files below, in
    blocks of two full rows."""

    HEADER = "x,flag,lvl,cat,y\n"

    @pytest.fixture(autouse=True)
    def small_slices_and_blocks(self, monkeypatch):
        monkeypatch.setattr(table_module, "SCAN_BYTES", 13)
        monkeypatch.setattr(table_module, "BLOCK_CELLS", 2 * len(SIMPLE_SCHEMA.columns))

    def test_quote_first_met_in_a_later_slice_keeps_its_row_numbers(
        self, tmp_path, simple_schema
    ):
        plain = self.HEADER + "1.0,0,10,a,0\n2.0,1,20,b,1\n3.0,0,30,a,0\n4.0,1,40,b,1\n"
        quoted = plain.replace("3.0,0,30,a,0", '"3.0",0,30,a,0')
        expected = load_table(write_csv(tmp_path / "plain.csv", plain), simple_schema)
        p = write_csv(tmp_path / "quoted.csv", quoted)
        _assert_same_table(load_table(p, simple_schema), expected)
        p = write_csv(tmp_path / "bad.csv", quoted.replace("4.0,1,40,b,1", "4.0,1,40,zzz,1"))
        with pytest.raises(CellParseError, match=r"row 3.*'cat'.*'zzz'"):
            load_table(p, simple_schema, ["cat"])

    def test_ragged_row_right_after_a_slice_boundary(self, tmp_path, simple_schema):
        p = write_csv(tmp_path / "d.csv", self.HEADER + "1.0,0,10,a,0\n2.0,1,20\n3.0,0,30,a,0\n")
        for names in (None, ["lvl"]):
            with pytest.raises(ValidationError, match="row 1 has 3 cells, expected 5"):
                load_table(p, simple_schema, names)

    def test_no_final_newline(self, tmp_path, simple_schema):
        text = self.HEADER + "1.0,0,10,a,0\n2.0,1,20,b,1\n3.0,0,30,a,0"
        p = write_csv(tmp_path / "d.csv", text)
        expected = load_table(write_csv(tmp_path / "ended.csv", text + "\n"), simple_schema)
        _assert_same_table(load_table(p, simple_schema), expected)
        assert expected.column("x").tolist() == [1.0, 2.0, 3.0]
        p = write_csv(tmp_path / "short.csv", text.removesuffix(",a,0"))
        with pytest.raises(ValidationError, match="row 2 has 3 cells, expected 5"):
            load_table(p, simple_schema, ["x"])

    def test_empty_line(self, tmp_path, simple_schema):
        p = write_csv(tmp_path / "d.csv", self.HEADER + "1.0,0,10,a,0\n\n2.0,1,20,b,1\n")
        with pytest.raises(ValidationError, match="row 1 has 0 cells, expected 5"):
            load_table(p, simple_schema)
        # a one-column file holds an empty line as a row of 0 cells too
        schema = TableSchema(columns=(ColumnSpec("y", ColumnKind.BINARY),), target="y")
        p = write_csv(tmp_path / "y.csv", "y\n1\n\n0\n")
        with pytest.raises(ValidationError, match="row 1 has 0 cells, expected 1"):
            load_table(p, schema)

    @pytest.mark.parametrize("scan_bytes", [13, 1 << 19], ids=["line_slices", "one_slice"])
    def test_undecodable_byte_in_a_later_block_after_a_bad_cell(
        self, tmp_path, simple_schema, monkeypatch, scan_bytes
    ):
        monkeypatch.setattr(table_module, "SCAN_BYTES", scan_bytes)
        rows = self.HEADER + "1.0,0,10,a,0\n2.0,1,20,b,1\n3.0,0,30,a,0\n"
        p = tmp_path / "d.csv"
        p.write_bytes(rows.encode() + b"4.0,1,40,\xff,1\n")
        for names in (None, ["x"]):  # an unread cell is decoded too
            with pytest.raises(ValidationError, match="cannot read data file"):
                load_table(p, simple_schema, names)
        p.write_bytes(rows.replace("b,1", "zzz,1").encode() + b"4.0,1,40,\xff,1\n")
        # a cut to four columns still parses two rows a block
        for names in (None, ["flag", "lvl", "cat"]):
            with pytest.raises(CellParseError, match=r"row 1.*'cat'.*'zzz'"):
                load_table(p, simple_schema, names)


def _parse_floats(spec, tokens):
    """A binary or likelihood column's tokens parsed as floats, the former
    ``_parse_column`` path for every such column: the reference."""
    cells = np.array(tokens, dtype=object)
    gaps = np.isin(cells, table_module.MISSING_TOKENS)
    values = np.full(len(cells), np.nan)
    try:
        values[~gaps] = cells[~gaps].astype(float)
    except ValueError:
        first = next(
            i for i, token in enumerate(tokens)
            if token not in table_module.MISSING_TOKENS and table_module._cell_error(token, spec)
        )
        return values, first
    stored, bad = table_module._from_floats(spec, values, gaps)
    return stored, int(bad[0]) if len(bad) else None


def _parse_levels(spec, tokens):
    """A categorical column's tokens coded by their index in the declared
    levels, -1 for a missing marker and -2 for an undeclared token, plus
    the first row of such a token: the reference."""
    codes = [
        -1 if token in table_module.MISSING_TOKENS
        else spec.levels.index(token) if token in spec.levels
        else -2
        for token in tokens
    ]
    bad = next((i for i, code in enumerate(codes) if code == -2), None)
    return np.array(codes, dtype=np.int8), bad


# The categorical case's levels: "1" is also a binary and a likelihood
# spelling, and "0.5" parses as a float, so each must be coded by its
# place in the level list and by no number rule.
CATEGORICAL_LEVELS = ("1", "abc", "0.5")


class TestParseColumn:
    @given(
        kind=st.sampled_from([ColumnKind.BINARY, ColumnKind.LIKELIHOOD, ColumnKind.CATEGORICAL]),
        tokens=st.lists(
            st.one_of(
                st.integers(-1, 101).map(str),
                st.sampled_from(["", "NA", "1.0", " 1", "1e0", "01", "abc", "nan", "inf", "0.5"]),
            ),
            max_size=20,
        ),
    )
    def test_equals_the_float_parse(self, kind, tokens):
        """Binary and likelihood tokens code as the float parse reads them,
        and categorical tokens by their index in the declared levels."""
        categorical = kind is ColumnKind.CATEGORICAL
        spec = ColumnSpec("c", kind, CATEGORICAL_LEVELS if categorical else None)
        codes, bad = table_module._parse_column(spec, tokens)
        expected, expected_bad = (_parse_levels if categorical else _parse_floats)(spec, tokens)
        assert bad == expected_bad
        if bad is None:
            assert codes.dtype == expected.dtype and not codes.flags.writeable
        np.testing.assert_array_equal(codes, expected)


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

    def test_missing_marker_level_rejected(self):
        for level in ("NA", ""):
            with pytest.raises(ValidationError, match="missing marker"):
                ColumnSpec("cat", ColumnKind.CATEGORICAL, levels=("a", level))

    def test_quoted_carriage_return_level_loads(self, tmp_path):
        schema = TableSchema(
            columns=(
                ColumnSpec("cat", ColumnKind.CATEGORICAL, levels=("a\rb", "z")),
                ColumnSpec("y", ColumnKind.BINARY),
            ),
            target="y",
        )
        p = tmp_path / "d.csv"
        p.write_bytes(b'cat,y\n"a\rb",0\nz,1\n')
        np.testing.assert_array_equal(load_table(p, schema).codes("cat"), [0, 1])

    def test_carriage_return_level_and_name_round_trip(self, tmp_path):
        # csv.writer quotes a field holding "\n" but not one holding a lone
        # "\r", so save_table quotes every field when a name or level does.
        for level, name in (("a\rb", "cat"), ("\r", "cat"), ("a\r\n", "cat"), ("b", "c\rt")):
            schema = TableSchema(
                columns=(
                    ColumnSpec(name, ColumnKind.CATEGORICAL, levels=("a", level, "z")),
                    ColumnSpec("x", ColumnKind.CONTINUOUS),
                    ColumnSpec("y", ColumnKind.BINARY),
                ),
                target="y",
            )
            table = DataTable(
                schema,
                {
                    name: np.array([level, "z", None], dtype=object),
                    "x": np.array([1.5, np.nan, -2.0]),
                    "y": np.array([0.0, 1.0, 1.0]),
                },
            )
            p = tmp_path / "d.csv"
            save_table(table, p)
            _assert_same_table(load_table(p, schema), table)

    def test_plain_table_is_not_quoted(self, tmp_path):
        p = tmp_path / "d.csv"
        kinds = {"cat": ColumnKind.CATEGORICAL, "y": ColumnKind.BINARY}
        save_table(make_table({"cat": ["a", None], "y": [0, 1]}, kinds, levels={"cat": ("a", "b")}), p)
        assert p.read_text(encoding="utf-8") == "cat,y\na,0\n,1\n"

    def test_codes_of_a_numeric_column_rejected(self):
        t = make_table({"x": [1.0, 2.0], "y": [0, 1]}, {"x": ColumnKind.CONTINUOUS, "y": ColumnKind.BINARY})
        with pytest.raises(ValidationError, match="not categorical"):
            t.codes("x")


class TestDiscreteStorage:
    """Binary, likelihood and categorical columns are stored as the
    narrowest signed integer codes, -1 for a gap; the accessors decode
    them to what the float64 storage held."""

    @staticmethod
    def float64_values(spec, cells):
        """The float64 column, NaN at gaps, as a float64 table stored it
        (a categorical as its numeric view: the level index)."""
        if spec.kind is ColumnKind.CATEGORICAL:
            cells = [None if c is None else spec.levels.index(c) for c in cells]
        return np.array([np.nan if c is None else c for c in cells], dtype=np.float64)

    @staticmethod
    def categorical_schema(levels):
        return TableSchema(
            columns=(
                ColumnSpec("cat", ColumnKind.CATEGORICAL, levels=levels),
                ColumnSpec("y", ColumnKind.BINARY),
            ),
            target="y",
        )

    @given(
        data=st.data(),
        n=st.integers(0, 20),
        as_codes=st.booleans(),
    )
    def test_accessors_give_the_float64_values(self, data, n, as_codes):
        cell = {
            ColumnKind.CONTINUOUS: st.floats(allow_nan=False, allow_infinity=False),
            ColumnKind.BINARY: st.sampled_from([0.0, 1.0]),
            ColumnKind.LIKELIHOOD: st.integers(1, 99).map(float),
            ColumnKind.CATEGORICAL: st.sampled_from(["a", "b"]),
        }
        cells, columns = {}, {}
        for spec in SIMPLE_SCHEMA.columns:
            gap = st.nothing() if spec.name == SIMPLE_SCHEMA.target else st.none()
            cells[spec.name] = data.draw(
                st.lists(st.one_of(cell[spec.kind], gap), min_size=n, max_size=n)
            )
            values = self.float64_values(spec, cells[spec.name])
            if as_codes and spec.kind is not ColumnKind.CONTINUOUS:
                columns[spec.name] = np.where(np.isnan(values), -1, values).astype(np.int64)
            elif spec.kind is ColumnKind.CATEGORICAL:
                columns[spec.name] = np.array(cells[spec.name], dtype=object)
            else:
                columns[spec.name] = values
        table = DataTable(SIMPLE_SCHEMA, columns)
        for spec in SIMPLE_SCHEMA.columns:
            expected = self.float64_values(spec, cells[spec.name])
            view = table.numeric_view(spec.name)
            assert view.dtype == np.float64
            np.testing.assert_array_equal(view, expected)
            np.testing.assert_array_equal(np.signbit(view), np.signbit(expected))
            np.testing.assert_array_equal(table.missing_mask(spec.name), np.isnan(expected))
            column = table.column(spec.name)
            assert not column.flags.writeable
            if spec.kind is ColumnKind.CATEGORICAL:
                assert column.tolist() == cells[spec.name]
                continue
            assert column.dtype == np.float64
            np.testing.assert_array_equal(column, expected)
            np.testing.assert_array_equal(np.signbit(column), np.signbit(expected))
            if spec.kind is not ColumnKind.CONTINUOUS:
                assert table.codes(spec.name).dtype == np.int8
                assert table.codes(spec.name).nbytes == n

    def test_binary_value_out_of_domain_rejected(self):
        schema = SIMPLE_SCHEMA.select(["flag"])
        for values in ([0.0, 2.0], [0.0, 0.5], [1.0, -1.0], [0.0, np.inf], np.array([0, 2])):
            with pytest.raises(ValidationError, match=r"binary column 'flag', row 1: .*0 or 1"):
                DataTable(schema, {"flag": values, "y": np.array([0.0, 1.0])})

    def test_likelihood_value_out_of_domain_rejected(self):
        schema = SIMPLE_SCHEMA.select(["lvl"])
        for bad in (0.5, 150.0, -4.0, -1.0, 0.0, np.inf, 100, -4, -2):
            values = np.array([50, 1, bad, 99])
            with pytest.raises(ValidationError, match=r"likelihood column 'lvl', row 2: .*\[1, 99\]"):
                DataTable(schema, {"lvl": values, "y": np.array([0.0, 1.0, 0.0, 1.0])})
        # -1 is the gap code of integer input; NaN the gap of float input
        for gap in (np.array([5, -1]), np.array([5.0, np.nan])):
            table = DataTable(schema, {"lvl": gap, "y": np.array([0.0, 1.0])})
            assert table.codes("lvl").tolist() == [5, -1]

    def test_categorical_code_out_of_domain_rejected(self):
        levels = tuple(f"l{i:03d}" for i in range(300))
        schema = self.categorical_schema(levels)
        for bad in (300, -2, 1000):
            with pytest.raises(ValidationError, match=r"categorical column 'cat', row 1:"):
                DataTable(schema, {"cat": np.array([299, bad]), "y": np.array([0.0, 1.0])})

    def test_continuous_infinity_rejected(self):
        schema = SIMPLE_SCHEMA.select(["x"])
        y = np.array([0.0, 1.0, 0.0])
        for bad in (np.inf, -np.inf):
            for values in (np.array([np.nan, bad, 2.0]), [None, bad, 2.0]):
                with pytest.raises(
                    ValidationError,
                    match=rf"continuous column 'x', row 1: {bad!r} .*must be finite; a gap is NaN\)",
                ):
                    DataTable(schema, {"x": values, "y": y})
        table = DataTable(schema, {"x": np.array([np.nan, 1.0, 2.0]), "y": y})
        assert table.missing_mask("x").tolist() == [True, False, False]

    def test_target_value_out_of_domain_rejected(self):
        schema = SIMPLE_SCHEMA.select([])
        with pytest.raises(ValidationError, match=r"binary column 'y', row 2: 0.5"):
            DataTable(schema, {"y": np.array([0.0, 1.0, 0.5])})
        for gap in (np.array([0, -1]), np.array([0.0, np.nan])):
            with pytest.raises(ValidationError, match="target column 'y' has missing values"):
                DataTable(schema, {"y": gap})

    @pytest.mark.parametrize(
        "n_levels, dtype", [(2, np.int8), (128, np.int8), (129, np.int16), (32769, np.int32)]
    )
    def test_code_dtype_is_the_narrowest_that_holds_the_levels(self, n_levels, dtype):
        levels = tuple(f"l{i:03d}" for i in range(n_levels))
        schema = self.categorical_schema(levels)
        codes = np.array([n_levels - 1, -1, 0])
        for values in (codes, [levels[-1], None, levels[0]]):
            table = DataTable(schema, {"cat": values, "y": np.array([0.0, 1.0, 0.0])})
            assert table.codes("cat").dtype == dtype
            assert table.codes("cat").tolist() == codes.tolist()

    def test_wide_categorical_round_trips_and_encodes(self, tmp_path):
        # e.g. a county attribute: more levels than an int8 code holds
        levels = tuple(f"county_{i:03d}" for i in range(300))
        schema = self.categorical_schema(levels)
        n = 1200
        rng = np.random.default_rng(7)
        codes = np.concatenate([np.arange(300), rng.integers(-1, 300, n - 300)])
        y = (np.arange(n) % 2).astype(float)
        table = DataTable(schema, {"cat": codes, "y": y})
        assert table.codes("cat").dtype == np.int16
        assert table.codes("cat").nbytes == 2 * n
        assert table.codes("cat").tolist() == codes.tolist()
        assert table.column("cat").tolist() == [None if c < 0 else levels[c] for c in codes]

        save_table(table, tmp_path / "d.csv")
        again = load_table(tmp_path / "d.csv", schema)
        assert again.codes("cat").dtype == np.int16
        np.testing.assert_array_equal(again.codes("cat"), table.codes("cat"))

        # pairs of counties merge: 150 levels still need int16 codes
        mapping = LevelMapping("cat", {lvl: levels[2 * (i // 2)] for i, lvl in enumerate(levels)})
        merged = apply_level_mapping(again, mapping)
        assert merged.schema.column("cat").levels == levels[::2]
        assert merged.codes("cat").dtype == np.int16
        np.testing.assert_array_equal(merged.codes("cat"), np.where(codes < 0, -1, codes // 2))

        full = merged.subset(np.flatnonzero(codes >= 0))
        design = encode_design(full, ["cat"])
        dummies = [t for t in design.terms if t.encoding == DUMMY]
        assert len(dummies) == 149
        for j, term in enumerate(design.terms, start=1):
            np.testing.assert_array_equal(design.X[:, j], full.column("cat") == term.level)


class TestSelectColumns:
    def test_keeps_schema_order_and_the_target(self, binary_target_table):
        cut = binary_target_table.select_columns(["group", "flag"])
        assert cut.schema.names == ["flag", "group", "y"]
        assert cut.schema.target == "y"
        assert cut.schema.column("group") == binary_target_table.schema.column("group")
        assert cut.n_records == binary_target_table.n_records
        assert binary_target_table.select_columns([]).schema.names == ["y"]

    def test_shares_the_source_arrays(self, binary_target_table):
        cut = binary_target_table.select_columns(["amount", "group"])
        assert np.shares_memory(cut.column("amount"), binary_target_table.column("amount"))
        for name in ("group", "y"):
            assert np.shares_memory(cut.codes(name), binary_target_table.codes(name))

    def test_unknown_name_rejected(self, binary_target_table):
        with pytest.raises(ValidationError, match="'nope'"):
            binary_target_table.select_columns(["flag", "nope"])


class TestKindRule:
    """``TableSchema.column(name, *kinds)`` checks a column's kind, and a
    column of another kind reads ``column <name!r> is <kind>, not <kinds>``."""

    def test_without_kinds_any_kind_is_returned(self, binary_target_table):
        schema = binary_target_table.schema
        for kind, name in COLUMN_OF_KIND.items():
            assert schema.column(name).kind is kind
            assert schema.column(name, ColumnKind.CATEGORICAL, kind).kind is kind

    @pytest.mark.parametrize(
        "kinds, wanted",
        [
            ((ColumnKind.CATEGORICAL,), "categorical"),
            ((ColumnKind.CONTINUOUS, ColumnKind.LIKELIHOOD), "continuous or likelihood"),
            (
                (ColumnKind.LIKELIHOOD, ColumnKind.CONTINUOUS, ColumnKind.CATEGORICAL),
                "likelihood, continuous or categorical",
            ),
        ],
    )
    def test_other_kind_names_the_kinds_wanted(self, binary_target_table, kinds, wanted):
        message = f"column 'flag' is binary, not {wanted}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            binary_target_table.schema.column("flag", *kinds)

    @pytest.mark.parametrize(
        "guard, kind, wanted",
        [
            ("codes", ColumnKind.CONTINUOUS, "categorical, binary or likelihood"),
            ("impute_median", ColumnKind.BINARY, "continuous or likelihood"),
            ("impute_median", ColumnKind.CATEGORICAL, "continuous or likelihood"),
        ],
    )
    def test_table_guard_refuses_a_column_of_another_kind(
        self, binary_target_table, guard, kind, wanted
    ):
        step = {"codes": DataTable.codes, "impute_median": impute_median}[guard]
        name = COLUMN_OF_KIND[kind]
        message = f"column {name!r} is {kind.value}, not {wanted}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            step(binary_target_table, name)


class TestClassCounts:
    def test_counts_of_a_table_its_subset_and_its_columns(self, binary_target_table):
        assert binary_target_table.class_counts() == (4, 4)
        assert binary_target_table.subset(np.array([0, 1, 2, 4])).class_counts() == (3, 1)
        assert binary_target_table.select_columns(["flag"]).class_counts() == (4, 4)
        assert binary_target_table.subset(np.array([], dtype=int)).class_counts() == (0, 0)


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

    def test_bytes_match_a_per_cell_writer(self, tmp_path, simple_schema):
        def cell(value, kind):
            if kind is ColumnKind.CATEGORICAL:
                return "" if value is None else str(value)
            if math.isnan(value):
                return ""
            if kind in (ColumnKind.BINARY, ColumnKind.LIKELIHOOD):
                return str(int(value))
            return repr(float(value))

        rng = np.random.default_rng(3)
        n = 300
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        x[:6] = [0.1, 1.0 / 3.0, -0.0, 1e16, 5e-324, -2.5]
        columns = {
            "x": x,
            "flag": rng.integers(0, 2, n).astype(float),
            "lvl": rng.integers(1, 100, n).astype(float),
            "cat": rng.integers(-1, 2, n),
            "y": rng.integers(0, 2, n).astype(float),
        }
        for name in ("x", "flag", "lvl"):
            columns[name][rng.random(n) < 0.2] = np.nan
        table = DataTable(simple_schema, columns)
        out = tmp_path / "out.csv"
        save_table(table, out)

        values = [table.column(name) for name in simple_schema.names]
        kinds = [spec.kind for spec in simple_schema.columns]
        lines = [",".join(simple_schema.names)] + [
            ",".join(cell(col[i], kind) for col, kind in zip(values, kinds)) for i in range(n)
        ]
        assert out.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")
        again = load_table(out, simple_schema).column("x")
        np.testing.assert_array_equal(np.signbit(again), np.signbit(table.column("x")))
        np.testing.assert_array_equal(again, table.column("x"))

    def test_schema_sidecar_round_trip(self, tmp_path, simple_schema):
        p = tmp_path / "schema.json"
        save_schema(simple_schema, p)
        assert load_schema(p) == simple_schema


@pytest.mark.parametrize(
    "load, what",
    [(load_schema, "schema file"), (load_config, "config file"), (load_model_file, "model file")],
)
@pytest.mark.parametrize(
    "make, problem",
    [
        (lambda path: None, "no such {what}: "),
        (lambda path: path.mkdir(), "cannot read {what}: "),
        (lambda path: path.write_bytes(b'{"a": "\xff"}'), "cannot read {what}: "),
        (lambda path: path.write_text("{not json"), "invalid JSON: "),
        (lambda path: path.write_text("[1, 2]"), "{what} must be a JSON object"),
    ],
    ids=["missing", "directory", "not_utf8", "invalid", "list"],
)
def test_json_file_problems_raise_validation_error(tmp_path, load, what, make, problem):
    path = tmp_path / "file.json"
    make(path)
    with pytest.raises(ValidationError, match=problem.format(what=what)):
        load(path)


@pytest.mark.parametrize(
    "make, problem",
    [
        (lambda path: None, "no such data file: {path}"),
        (lambda path: path.mkdir(), "{path}: cannot read data file: "),
        (lambda path: path.write_bytes("x,y\ncaf\u00e9,0\n".encode("latin-1")),
         "{path}: cannot read data file: "),
        (lambda path: path.write_text("x,y\n" + "1" * 131073 + ",0\n"),
         "{path}: cannot read data file: field larger than field limit"),
    ],
    ids=["missing", "directory", "latin1", "field_over_limit"],
)
def test_data_file_problems_raise_validation_error(tmp_path, make, problem):
    schema = TableSchema(
        columns=(ColumnSpec("x", ColumnKind.CONTINUOUS), ColumnSpec("y", ColumnKind.BINARY)),
        target="y",
    )
    path = tmp_path / "data.csv"
    make(path)
    with pytest.raises(ValidationError, match=re.escape(problem.format(path=path))):
        load_table(path, schema)


KINDS = ("binary", "categorical", "likelihood", "continuous")


def train_counts_per_class(counts, frac):
    """The stratified split's former per-class rule, kept as a reference."""
    total = sum(counts.values())
    want = math.floor(frac * total + 0.5)
    floors = {c: math.floor(frac * n) for c, n in counts.items()}
    leftover = want - sum(floors.values())
    remainders = sorted(counts, key=lambda c: (-(frac * counts[c] - floors[c]), c))
    out = dict(floors)
    for c in remainders[:leftover]:
        out[c] += 1
    return out


def kind_counts(mix, total):
    """The synthetic generator's former kind rule, kept as a reference."""
    fracs = {k: mix.get(k, 0.0) for k in KINDS}
    floors = {k: math.floor(fracs[k] * total) for k in KINDS}
    leftover = total - sum(floors.values())
    by_remainder = sorted(KINDS, key=lambda k: (-(fracs[k] * total - floors[k]), k))
    for k in by_remainder[:leftover]:
        floors[k] += 1
    return floors


def assert_apportioned(quotas, total, shares):
    assert sum(shares.values()) == total
    for key, quota in quotas.items():
        assert shares[key] in (math.floor(quota), math.ceil(quota))


class TestLargestRemainder:
    @given(
        st.integers(1, 10**6),
        st.integers(1, 10**6),
        st.floats(0, 1, exclude_min=True, exclude_max=True),
    )
    def test_split_classes(self, n0, n1, frac):
        quotas = {0: frac * n0, 1: frac * n1}
        total = math.floor(frac * (n0 + n1) + 0.5)
        shares = _largest_remainder(quotas, total)
        assert_apportioned(quotas, total, shares)
        assert shares == train_counts_per_class({0: n0, 1: n1}, frac)

    @given(st.lists(st.integers(0, 50), min_size=4, max_size=4).filter(any), st.integers(1, 5000))
    def test_kind_mix(self, weights, total):
        mix = {k: w / sum(weights) for k, w in zip(KINDS, weights) if w}
        quotas = {k: mix.get(k, 0.0) * total for k in KINDS}
        shares = _largest_remainder(quotas, total)
        assert_apportioned(quotas, total, shares)
        assert shares == kind_counts(mix, total)


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

    def test_frac_just_outside_names_its_interval(self):
        t = self.table_with_classes(2, 2)
        with pytest.raises(ValidationError, match=f"^{re.escape('frac must be in (0, 1), got 1.0')}$"):
            split_train_validation(t, 1.0, seed=1)

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
