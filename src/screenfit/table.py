"""Columnar data model for wide tabular data with a binary target.

A :class:`DataTable` owns one numpy array per column.  A continuous
column is stored as float64 with NaN as the missing marker.  Every
discrete kind is stored as integer codes with -1 as the missing marker:
a binary column holds its 0/1 values, a likelihood column its 1..99
levels, and a categorical column indices into its spec's declared level
tuple.  The codes take the narrowest signed integer dtype that holds
them -- one byte per cell for binary, likelihood and categoricals of up
to 128 levels -- so a table of mostly discrete columns takes a fraction
of its float64 size.  Every stage works on the codes with numpy
expressions, or reads float64 with NaN through the accessors; only this
module maps codes to level strings and back.  Every view is read-only,
and a continuous column's float view is its stored array.  Each kind set
is named once, :data:`DISCRETE_KINDS` for the coded kinds and
:data:`NUMERIC_KINDS` for the median-filled, t-screened and standardized
ones, and a step that takes only some kinds gets its column from
``TableSchema.column(name, *kinds)``, which raises ``column <name!r> is
<kind>, not <a, b or c>`` for any other kind.  Tables are immutable
after construction: every operation returns a new table (or the same
object when nothing changed), and the backing arrays are marked
read-only so they can be shared across threads and across tables -- a
transform copies only the columns it changes.

All randomness in this module (and in the rest of the package) comes
from numpy's PCG64 generator seeded explicitly; the generator algorithm
is part of the external contract, so identical seeds reproduce identical
bytes across runs and machines.

CSV interchange: comma-delimited UTF-8 with a header row whose order
matches the schema exactly; a leading byte-order mark is skipped.
Empty cells and the literal token "NA" are the missing markers, so
neither may be a declared categorical level.
A load may name the columns it needs: every row is still checked for
width, but only those columns and the target become strings and are
parsed and validated.  The file is read in binary, in slices of whole
lines.  In one numpy pass a slice's commas and newlines give every
cell's bounds, and the kept cells are gathered and decoded at once, so
the others are never tokenized; a slice that is not ASCII is checked as
UTF-8.  From the first line with a quote, carriage return or NUL, or
one longer than :mod:`csv`'s field limit, :mod:`csv` reads the rest of
the file, so quoted cells and CRLF line ends read as :mod:`csv` reads
them.  Every discrete kind is coded through one map from the spelling of
each code to the code: a categorical's declared levels, or the integers
:func:`save_table` writes for binary and likelihood values.  A
continuous column, and a binary or likelihood column with a token
spelled otherwise, is parsed as floats, and float values, loaded or
built, meet one domain rule, which for a continuous column is
finiteness.  Two bounds keep a load lean.  Rows are parsed in blocks of
about :data:`BLOCK_CELLS` kept cells, each block one flat token list,
large because each block costs a pass per column, and each column's
blocks are joined at the end, so a load holds the parsed table plus one
block of tokens, never every row as strings.  A slice is at most
:data:`SCAN_BYTES` bytes and never crosses a block, small because the
scan's arrays take several bytes per byte scanned.  The schema travels
in a JSON sidecar listing name/kind/levels per column plus the
target column name.  File I/O is one reader, :func:`_read`, which
opens every input file (data, schema, config and model) and turns any
failure to read it into a :class:`ValidationError`; one CSV writer,
:func:`write_csv`; and one JSON writer, :func:`write_json`.  Both
writers open their file with :func:`_create`, which turns a path that
cannot be written into a :class:`ValidationError`;
:func:`check_writable` raises the same error before any work for a path
that is a directory or whose directory is missing.
"""

from __future__ import annotations

import codecs
import contextlib
import csv
import errno
import io
import itertools
import json
import math
import os
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import CellParseError, ComputationError, ValidationError, require_number, require_string

MISSING_TOKENS = ("", "NA")

LIKELIHOOD_MIN = 1
LIKELIHOOD_MAX = 99


class ColumnKind(str, Enum):
    """Value domain of a column.

    binary        -- 0/1 indicators
    categorical   -- unordered string levels
    likelihood    -- ordinal propensity scale, integers 1..99 (1 = most likely)
    continuous    -- unrestricted reals
    """

    BINARY = "binary"
    CATEGORICAL = "categorical"
    LIKELIHOOD = "likelihood"
    CONTINUOUS = "continuous"


NUMERIC_KINDS = (ColumnKind.CONTINUOUS, ColumnKind.LIKELIHOOD)
DISCRETE_KINDS = (ColumnKind.CATEGORICAL, ColumnKind.BINARY, ColumnKind.LIKELIHOOD)


@dataclass(frozen=True)
class ColumnSpec:
    """Name, kind, and (for categorical columns) the declared level set."""

    name: str
    kind: ColumnKind
    levels: tuple[str, ...] | None = None

    def __post_init__(self):
        require_string("column name", self.name)
        if self.kind is ColumnKind.CATEGORICAL:
            if self.levels is None or len(self.levels) < 2:
                raise ValidationError(
                    f"categorical column {self.name!r} needs >= 2 declared levels"
                )
            # A CSV cell holding a missing marker is read as a gap, so such
            # a level could not survive a save and load.
            for lvl in self.levels:
                require_string(f"categorical column {self.name!r}: a level", lvl)
                if lvl in MISSING_TOKENS:
                    raise ValidationError(
                        f"categorical column {self.name!r}: level {lvl!r} is a "
                        f"CSV missing marker"
                    )
            if len(set(self.levels)) != len(self.levels):
                raise ValidationError(
                    f"categorical column {self.name!r} has duplicate levels"
                )
        elif self.levels is not None:
            raise ValidationError(
                f"column {self.name!r}: levels are only valid for categorical columns"
            )


@dataclass(frozen=True)
class TableSchema:
    """Ordered column specs plus the designated binary target column."""

    columns: tuple[ColumnSpec, ...]
    target: str

    def __post_init__(self):
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise ValidationError("duplicate column names in schema")
        by_name = {c.name: c for c in self.columns}
        if self.target not in by_name:
            raise ValidationError(f"target column {self.target!r} not in schema")
        if by_name[self.target].kind is not ColumnKind.BINARY:
            raise ValidationError(f"target column {self.target!r} must be binary")
        object.__setattr__(self, "_by_name", by_name)

    @property
    def names(self) -> list[str]:
        return [c.name for c in self.columns]

    def column(self, name: str, *kinds: ColumnKind) -> ColumnSpec:
        """The named column's spec.  An unknown name raises
        :class:`ValidationError`, and with ``kinds`` given so does a column
        of any other kind: ``column <name!r> is <kind>, not <a, b or c>``."""
        if name not in self._by_name:
            raise ValidationError(f"no column named {name!r} in schema")
        spec = self._by_name[name]
        if kinds and spec.kind not in kinds:
            *rest, last = (kind.value for kind in kinds)
            wanted = f"{', '.join(rest)} or {last}" if rest else last
            raise ValidationError(f"column {name!r} is {spec.kind.value}, not {wanted}")
        return spec

    @property
    def predictors(self) -> list[str]:
        return [c.name for c in self.columns if c.name != self.target]

    def select(self, names) -> "TableSchema":
        """The schema cut to the named columns and the target, in schema
        order.  An unknown name raises :class:`ValidationError`."""
        keep = {self.column(name).name for name in names} | {self.target}
        return TableSchema(
            columns=tuple(c for c in self.columns if c.name in keep), target=self.target
        )

    def to_dict(self) -> dict:
        """The schema as ``schema.json`` holds it: each column spec's set fields."""
        columns = [{k: v for k, v in vars(c).items() if v is not None} for c in self.columns]
        return {"target": self.target, "columns": columns}

    @classmethod
    def from_dict(cls, d: dict) -> "TableSchema":
        try:
            for c in d["columns"]:
                if "levels" in c and not isinstance(c["levels"], (list, tuple)):
                    raise ValidationError(f"column {c['name']!r}: levels must be a list of strings")
            cols = tuple(
                ColumnSpec(
                    name=c["name"],
                    kind=ColumnKind(c["kind"]),
                    levels=tuple(c["levels"]) if "levels" in c else None,
                )
                for c in d["columns"]
            )
            return cls(columns=cols, target=d["target"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed schema: {exc}") from exc


def _code_range(spec: ColumnSpec) -> tuple[int, int]:
    """The lowest and highest code of a discrete column: its binary values,
    its likelihood levels, or the indices of its declared levels."""
    if spec.kind is ColumnKind.CATEGORICAL:
        return 0, len(spec.levels) - 1
    if spec.kind is ColumnKind.BINARY:
        return 0, 1
    return LIKELIHOOD_MIN, LIKELIHOOD_MAX


def _stored_dtype(spec: ColumnSpec) -> np.dtype:
    """Float64 for a continuous column; for a discrete one the narrowest
    signed integer dtype that holds its codes and -1."""
    if spec.kind is ColumnKind.CONTINUOUS:
        return np.dtype(np.float64)
    # A signed dtype that holds -(top + 1) also holds top.
    return np.min_scalar_type(-_code_range(spec)[1] - 1)


def _domain(kind: ColumnKind) -> str:
    """What a value of a binary, likelihood or continuous column must be."""
    if kind is ColumnKind.BINARY:
        return "binary values must be 0 or 1"
    if kind is ColumnKind.CONTINUOUS:
        return "continuous values must be finite"
    return f"likelihood levels are integers in [{LIKELIHOOD_MIN}, {LIKELIHOOD_MAX}]"


def _in_domain(spec: ColumnSpec, values: np.ndarray) -> np.ndarray:
    """Which float values fit a binary, likelihood or continuous column
    (NaN fits none of them)."""
    if spec.kind is ColumnKind.CONTINUOUS:
        return np.isfinite(values)
    lo, hi = _code_range(spec)
    return (values == np.floor(values)) & (values >= lo) & (values <= hi)


def _from_floats(spec: ColumnSpec, values: np.ndarray, gaps: np.ndarray) -> tuple:
    """A binary, likelihood or continuous column's float values, with a
    gap wherever ``gaps`` is set, as the table stores them (a discrete
    gap becomes -1), plus the rows out of the column's domain.  With any
    such row the values come back as they were given."""
    bad = np.flatnonzero(~(gaps | _in_domain(spec, values)))
    if len(bad) or spec.kind is ColumnKind.CONTINUOUS:
        return values, bad
    return _freeze(np.where(gaps, -1, values).astype(_stored_dtype(spec))), bad


def _bad_codes(spec: ColumnSpec, codes: np.ndarray) -> np.ndarray | tuple:
    """Rows of integer codes that are neither -1 nor a code of the column."""
    lo, hi = _code_range(spec)
    # The bounds of the whole column settle the common case without a
    # row-wise pass; a likelihood 0 lies inside them, but codes.all()
    # finds it.
    if not len(codes) or (codes.min() >= -1 and codes.max() <= hi and (lo == 0 or codes.all())):
        return ()
    return np.flatnonzero((codes != -1) & ((codes < lo) | (codes > hi)))


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _mapped_codes(spec: ColumnSpec, cells, missing: tuple) -> tuple:
    """A discrete column's cells coded through the spelling of each code:
    a declared level, or the integer :func:`save_table` writes.  The codes
    are read-only in the spec's stored dtype, -1 for a cell in ``missing``
    and -2 for any other cell; the rows of the -2s come with them."""
    lo, hi = _code_range(spec)
    spellings = spec.levels or map(str, range(lo, hi + 1))
    index = dict(zip(spellings, range(lo, hi + 1))) | dict.fromkeys(missing, -1)
    codes = np.fromiter(
        map(index.get, cells, itertools.repeat(-2)), dtype=_stored_dtype(spec), count=len(cells)
    )
    return _freeze(codes), np.flatnonzero(codes == -2)


def _stored(spec: ColumnSpec, values) -> np.ndarray:
    """A column as the table stores it, read-only (see :class:`DataTable`).
    A value outside the column's kind raises :class:`ValidationError`
    naming the column and the first bad row."""
    continuous = spec.kind is ColumnKind.CONTINUOUS
    cells = np.asarray(values, dtype=np.float64 if continuous else None)
    if cells.dtype.kind in "iu":
        codes, bad = cells, _bad_codes(spec, cells)
    elif spec.kind is ColumnKind.CATEGORICAL:
        codes, bad = _mapped_codes(spec, cells, (None,))
    else:
        cells = np.asarray(cells, dtype=np.float64)
        codes, bad = _from_floats(spec, cells, np.isnan(cells))
    if len(bad):
        row, cell = bad[0], cells[bad[0] : bad[0] + 1].tolist()[0]
        if spec.kind is ColumnKind.CATEGORICAL:
            why = "is neither a declared level nor a level code"
        else:
            gap = "NaN" if continuous else "NaN or -1"
            why = f"is out of domain ({_domain(spec.kind)}; a gap is {gap})"
        raise ValidationError(f"{spec.kind.value} column {spec.name!r}, row {row}: {cell!r} {why}")
    if codes.dtype != _stored_dtype(spec) or codes.flags.writeable:
        codes = _freeze(codes.astype(_stored_dtype(spec)))
    return codes


class DataTable:
    """Immutable columnar table; one array per schema column.

    A continuous column is a float64 array with NaN for a missing cell.
    A discrete column is an array of integer codes with -1 for a missing
    cell: the 0/1 of a binary column, the 1..99 of a likelihood column,
    or the index into ``spec.levels`` of a categorical one.  The codes
    take the narrowest signed integer dtype that holds them: ``int8`` for
    binary and likelihood columns and for categoricals of up to 128
    levels, a wider one for more levels.  :meth:`codes` returns them.
    :meth:`numeric_view` is the one float decode: float64 with NaN, the
    stored array of a continuous column.  :meth:`column` gives the same,
    but level strings with None for a categorical.  Every view is read-only.

    The constructor takes a discrete column either as integer codes (-1
    for missing) or as values: floats with NaN for missing for binary and
    likelihood columns, strings with None for missing for categoricals.
    The dtype decides which.  A value or code outside the column's kind
    -- a binary 0.5 or 2, a likelihood 150, a continuous infinity, a code
    out of range, an undeclared string -- raises :class:`ValidationError` naming the
    column and the first bad row.

    Every stored array is read-only.  The constructor shares a read-only
    array of the stored dtype (float64, or the column's code dtype)
    instead of copying it, so a transform hands over the columns it
    leaves alone, and any new column it has frozen, without a copy.

    The target column must exist, be binary, and contain no missing
    values.  Both target classes being present is *not* required here --
    single-class tables are legitimate sampling pools -- and is instead
    checked by the operations that need it.
    """

    def __init__(self, schema: TableSchema, columns: dict[str, np.ndarray]):
        if set(columns) != set(schema.names):
            raise ValidationError("column dict does not match schema names")
        lengths = {len(v) for v in columns.values()}
        if len(lengths) > 1:
            raise ValidationError(f"ragged columns: lengths {sorted(lengths)}")
        self.schema = schema
        self._columns = {c.name: _stored(c, columns[c.name]) for c in schema.columns}
        self._n = lengths.pop() if lengths else 0
        if (self._columns[schema.target] < 0).any():
            raise ValidationError(f"target column {schema.target!r} has missing values")

    @property
    def n_records(self) -> int:
        return self._n

    def column(self, name: str) -> np.ndarray:
        """The column's values, read-only: for a categorical an object array
        of level strings with None for missing cells, else
        :meth:`numeric_view`."""
        spec = self.schema.column(name)
        if spec.kind is ColumnKind.CATEGORICAL:
            return _freeze(np.array(spec.levels + (None,), dtype=object)[self._columns[name]])
        return self.numeric_view(name)

    def codes(self, name: str) -> np.ndarray:
        """A discrete column's stored codes, -1 for missing: the binary
        values, the likelihood levels, or the indices into a categorical's
        declared levels."""
        self.schema.column(name, *DISCRETE_KINDS)
        return self._columns[name]

    @property
    def target_values(self) -> np.ndarray:
        """The target's stored 0/1 codes: a read-only int8 array, not a copy."""
        return self._columns[self.schema.target]

    def missing_mask(self, name: str) -> np.ndarray:
        if self.schema.column(name).kind is ColumnKind.CONTINUOUS:
            return np.isnan(self._columns[name])
        return self._columns[name] < 0

    def numeric_view(self, name: str) -> np.ndarray:
        """Column as a read-only float64 array with NaN for missing, the
        stored array itself for a continuous column.

        Binary and likelihood columns give their values, and categorical
        columns their index in the declared level list (the conventional
        numeric recoding of character levels): every discrete kind
        decodes its codes the same way.  An unknown name raises
        :class:`ValidationError`.
        """
        kind = self.schema.column(name).kind
        values = self._columns[name]
        if kind is ColumnKind.CONTINUOUS:
            return values
        return _freeze(np.where(values < 0, np.nan, values))

    def subset(self, rows: np.ndarray) -> "DataTable":
        """New table containing the given rows (original order preserved by the caller's index order)."""
        return DataTable(
            self.schema, {n: _freeze(col[rows]) for n, col in self._columns.items()}
        )

    def replace_columns(
        self, columns: dict[str, np.ndarray], specs: tuple[ColumnSpec, ...] = ()
    ) -> "DataTable":
        """New table with the given columns, and the specs given for any of
        them, replaced; the other columns are shared, not copied.  Returns
        this table when there is nothing to replace."""
        new_specs = {spec.name: spec for spec in specs}
        if not new_specs.keys() <= columns.keys():
            raise ValidationError("a replacement spec must come with its column")
        if not columns:
            return self
        schema = TableSchema(
            columns=tuple(new_specs.get(c.name, c) for c in self.schema.columns),
            target=self.schema.target,
        )
        return DataTable(schema, self._columns | columns)

    def select_columns(self, names) -> "DataTable":
        """New table with only the named columns and the target, in schema
        order; the arrays are shared, not copied.  An unknown name raises
        :class:`ValidationError`."""
        schema = self.schema.select(names)
        return DataTable(schema, {name: self._columns[name] for name in schema.names})

    def class_counts(self) -> tuple[int, int]:
        """Rows of target 0 and of target 1."""
        ones = int(np.count_nonzero(self._columns[self.schema.target]))
        return self._n - ones, ones


# ---------------------------------------------------------------------------
# CSV and JSON I/O

# Cells a load parses at a time: a block is this many cells of the kept
# columns, rounded down to whole rows, so a load never holds more than
# one block of tokens.
BLOCK_CELLS = 1 << 19

# Bytes a load scans at a time: a slice is whole lines of at most this
# many bytes (one line when a line is longer) and never crosses a block.
# Blocks stay large because each costs a pass per column.  Slices stay
# small because the scan's arrays, several bytes per byte scanned, come
# on top of the block's tokens: scoring the 10.8 MB benchmark CSV peaked
# 1.8 MB above the line-splitting reader it replaced with 512 KB slices.
# A process that scores it again and again, between array-heavy work,
# still peaked 0.4 MB above that reader with 128 KB slices, and level
# with it at 64 KB.
SCAN_BYTES = 1 << 16


def _cell_error(token: str, spec: ColumnSpec) -> str | None:
    """Why a token that is not a missing marker breaks its column's kind, or None."""
    if spec.kind is ColumnKind.CATEGORICAL:
        return None if token in spec.levels else "not a declared level"
    try:
        value = float(token)
    except ValueError:
        return "not a number"
    if not math.isfinite(value):
        return "not a finite number"
    if not _in_domain(spec, np.float64(value)):
        return _domain(spec.kind)
    return None


def _parse_column(spec: ColumnSpec, tokens: list[str]) -> tuple[np.ndarray, int | None]:
    """A column's tokens as the table stores them, plus the first row whose
    token breaks the column's kind (None when every token fits).  A
    discrete column is coded through :func:`_mapped_codes`.  A continuous
    column, and a binary or likelihood one with a token that is not a
    canonical spelling, is parsed as floats."""
    if spec.kind is not ColumnKind.CONTINUOUS:
        codes, bad = _mapped_codes(spec, tokens, MISSING_TOKENS)
        if spec.kind is ColumnKind.CATEGORICAL or not len(bad):
            return codes, int(bad[0]) if len(bad) else None
    cells = np.array(tokens, dtype=object)
    gaps = np.isin(cells, MISSING_TOKENS)
    values = np.full(len(cells), np.nan)
    try:
        values[~gaps] = cells[~gaps].astype(float)
    except ValueError:
        first = next(
            i for i, token in enumerate(tokens)
            if token not in MISSING_TOKENS and _cell_error(token, spec)
        )
        return values, first
    stored, bad = _from_floats(spec, values, gaps)
    return stored, int(bad[0]) if len(bad) else None


def _csv_rows(fh, offset: int):
    """The rows :func:`csv.reader` reads from the binary file ``fh`` from
    byte ``offset`` on, decoded as UTF-8 with line ends kept.  The text
    wrapper is detached when the rows end or the generator is closed,
    leaving ``fh`` to its owner; close the generator while ``fh`` is open."""
    fh.seek(offset)
    text = io.TextIOWrapper(fh, encoding="utf-8", newline="")
    try:
        yield from csv.reader(text)
    finally:
        text.detach()


def _scan(data: bytes, width: int, picked: list[int], limit: int, max_rows: int) -> tuple:
    """The leading rows of ``data``, whole lines each ended by a newline,
    that are plain: no quote, carriage return or NUL, no longer than the
    field ``limit``, and at most ``max_rows`` of them.

    Returns the tokens of their ``picked`` cells, row by row; the number
    of those rows; the bytes they take; and, when a row of the wrong width
    ends them, its cell count (None otherwise).  An empty line is a row
    of 0 cells, as :func:`csv.reader` reads it."""
    arr = np.frombuffer(data, dtype=np.uint8)
    seps = np.flatnonzero((arr == ord(",")) | (arr == ord("\n")))
    ends = np.flatnonzero(arr[seps] == ord("\n"))  # each line's newline, in seps
    lines = seps[ends]
    odd = min((i for i in map(data.find, (b'"', b"\r", b"\0")) if i >= 0), default=len(data))
    n = min(max_rows, int(np.searchsorted(lines, odd)))
    lengths = np.diff(lines[:n], prepend=-1)
    long = np.flatnonzero(lengths > limit)
    n = int(long[0]) if len(long) else n
    cells = np.where(lengths[:n] == 1, 0, np.diff(ends[:n], prepend=-1))
    ragged = np.flatnonzero(cells != width)
    rows = int(ragged[0]) if len(ragged) else n
    used = int(lines[rows - 1]) + 1 if rows else 0
    if not data.isascii():
        # A ragged line is read too, as csv.reader reads it.
        data[: int(lines[rows]) + 1 if len(ragged) else used].decode("utf-8")
    if not rows:
        tokens = []
    elif len(picked) == width:
        # Every cell is kept: the gather below would add about a tenth to
        # a full-width load, for the same tokens.
        tokens = data[: used - 1].replace(b",", b"\n").decode("utf-8").split("\n")
    else:
        # Each kept cell with the separator after it, row by row.
        bounds = np.concatenate(([-1], seps[: rows * width]))
        cell = (np.arange(rows)[:, None] * width + picked).ravel()
        starts, stops = bounds[cell] + 1, bounds[cell + 1] + 1
        lens = stops - starts
        at = np.cumsum(lens)
        gather = np.arange(at[-1] - 1) + np.repeat(starts - (at - lens), lens)[:-1]
        tokens = arr[gather].tobytes().replace(b",", b"\n").decode("utf-8").split("\n")
    return tokens, rows, used, int(cells[rows]) if len(ragged) else None


def _kept_blocks(fh, width: int, picked: list[int], block: int):
    """The rows :func:`csv.reader` reads from the binary file ``fh``, cut
    to the cells at ``picked``: first the header row (None for an empty
    file), then one item per block of ``block`` rows.  An item is one
    token list that holds the block's picked cells, row by row, and the
    cell count of the row of the wrong width that ends the rows early
    (None when none does); the last item holds fewer than ``block`` rows
    or ends at such a row.

    The file is read in slices of whole lines, at most
    :data:`SCAN_BYTES` bytes unless one line is longer, and never past a
    block, and the plain lines of a slice are scanned by :func:`_scan`.
    A UTF-8 byte-order mark at the start of the file is skipped.
    From the first line that is not plain on, :mod:`csv` reads the rest
    of the file: no quoted field can have started before that line, so
    the rows are the ones :mod:`csv` reads.  Errors are those of reading
    UTF-8 and of :mod:`csv`."""
    limit = csv.field_size_limit()
    line = fh.readline()
    start = len(codecs.BOM_UTF8) if line.startswith(codecs.BOM_UTF8) else 0
    line = line[start:]
    rows = None
    if b'"' in line or b"\r" in line or b"\0" in line or len(line) > limit:
        rows = _csv_rows(fh, start)
        yield next(rows, None)
    else:
        text = line.decode("utf-8").removesuffix("\n")
        yield text.split(",") if text else [] if line else None
    pos = start + len(line)
    while True:
        cells, n, ragged = [], 0, None
        while rows is None and n < block and ragged is None:
            fh.seek(pos)
            data = fh.read(SCAN_BYTES)
            end = data.rfind(b"\n") + 1
            data = data[:end] if end else data + fh.readline()
            if not data:
                break
            if not data.endswith(b"\n"):  # the last line of the file
                data += b"\n"
            tokens, count, used, ragged = _scan(data, width, picked, limit, block - n)
            cells += tokens
            n, pos = n + count, pos + used
            if ragged is None and n < block and used < len(data):
                rows = _csv_rows(fh, pos)
        if rows is not None and ragged is None:
            for row in itertools.islice(rows, block - n):
                if len(row) != width:
                    ragged = len(row)
                    break
                cells += row if len(picked) == width else [row[j] for j in picked]
                n += 1
        yield cells, ragged
        if ragged is not None or n < block:
            return


def load_table(
    csv_path: str | Path, schema: TableSchema, columns: Iterable[str] | None = None
) -> DataTable:
    """Read a CSV into a typed table, validating its cells against the schema.

    The header row must equal the schema's column names, in order, or a
    :class:`ValidationError` names the first column that differs, and
    every row must have one cell per schema column.  With ``columns``
    given, only the named columns and the target are kept, parsed and
    validated, and the table's schema is cut to them as
    :meth:`TableSchema.select` cuts it; the cells of the other columns are
    not checked at all, and only the kept ones become strings.  An
    unknown name raises :class:`ValidationError`.  Lines are split as
    :mod:`csv` splits them, quoted cells and CRLF line ends included, and
    a leading UTF-8 byte-order mark (spreadsheet exports write one) is
    skipped.  Empty cells and "NA" become the missing marker.  Any parsed
    cell violating its column kind -- including a numeric cell that is not
    finite -- raises :class:`CellParseError` naming the row, column, and
    offending token; of several such cells the lowest row, then the
    leftmost column, is named.  A row with the wrong number of cells
    raises :class:`ValidationError` unless a bad parsed cell comes before
    it, and so does a file :func:`_read` cannot read.  Rows are parsed
    in blocks as they are read, each block one token list that holds its
    kept cells row by row, so that a column is every k-th token of it,
    for k kept columns.  A bad cell in one block is reported
    before an undecodable byte, or a line :mod:`csv` cannot split, in a
    later block.
    """
    kept = schema if columns is None else schema.select(columns)
    width = len(schema.columns)
    position = {name: j for j, name in enumerate(schema.names)}
    picked = [position[name] for name in kept.names]
    block = max(1, BLOCK_CELLS // len(kept.columns))

    def parse_blocks(fh):
        # Closed while ``fh`` is open, so that its csv rows, if any, detach.
        with contextlib.closing(_kept_blocks(fh, width, picked, block)) as blocks:
            header = next(blocks)
            if header is None:
                raise ValidationError(f"{csv_path}: empty file, no header row")
            if header != schema.names:
                # Only the first difference is named: a paper-width header
                # holds a thousand names or more, and a stray character would
                # hide among them.
                pairs = enumerate(zip(header, schema.names))
                at = next((i for i, (a, b) in pairs if a != b), min(len(header), width))
                found, expected = (
                    repr(names[at]) if at < len(names) else "no column"
                    for names in (header, schema.names)
                )
                raise ValidationError(
                    f"{csv_path}: header does not match the schema at column {at}: found "
                    f"{found}, expected {expected} ({len(header)} header columns, {width} "
                    f"in the schema)"
                )
            parts = [[] for _ in kept.columns]
            start = 0
            for cells, ragged in blocks:
                bad_cells = []
                for j, spec in enumerate(kept.columns):
                    # One column at a time, so a block's tokens are never
                    # held in a second, column-wise copy.
                    tokens = cells[j :: len(picked)]
                    column, bad_row = _parse_column(spec, tokens)
                    parts[j].append(column)
                    if bad_row is not None:
                        bad_cells.append((bad_row, j, tokens[bad_row]))
                if bad_cells:
                    row, j, token = min(bad_cells)
                    spec = kept.columns[j]
                    raise CellParseError(start + row, spec.name, token, _cell_error(token, spec))
                start += len(tokens)
                if ragged is not None:
                    raise ValidationError(
                        f"{csv_path}: row {start} has {ragged} cells, expected {width}"
                    )
            return parts

    parts = _read(csv_path, "data file", parse_blocks)
    return DataTable(
        kept, {spec.name: _freeze(np.concatenate(p)) for spec, p in zip(kept.columns, parts)}
    )


def _format_column(table: DataTable, spec: ColumnSpec) -> np.ndarray:
    """A column's CSV cells: "" for a gap, else the level, the integer of
    a binary or likelihood value, or the repr of a continuous value (which
    parses back to the same float)."""
    if spec.kind is ColumnKind.CATEGORICAL:
        return np.array(spec.levels + ("",), dtype=object)[table.codes(spec.name)]
    if spec.kind is ColumnKind.CONTINUOUS:
        cells = map(repr, table.column(spec.name).tolist())
    else:
        cells = map(str, table.codes(spec.name).tolist())
    column = np.array(list(cells), dtype=object)
    column[table.missing_mask(spec.name)] = ""
    return column


def save_table(table: DataTable, csv_path: str | Path) -> None:
    """Serialize back to CSV with identical header order; round-trips through load_table."""
    columns = (_format_column(table, spec) for spec in table.schema.columns)
    # csv.writer leaves a lone "\r" unquoted, which splits the row on reading,
    # so a name or level holding one has every field of the file quoted.
    texts = (*table.schema.names, *(lvl for c in table.schema.columns for lvl in c.levels or ()))
    quoting = csv.QUOTE_ALL if any("\r" in text for text in texts) else csv.QUOTE_MINIMAL
    write_csv(table.schema.names, zip(*columns), csv_path, quoting)


def _read(path: str | Path, what: str, parse):
    """``parse`` applied to the file at ``path`` opened in binary, which
    ``parse`` reads as UTF-8.  A missing file, a directory, non-UTF-8 bytes
    or a line :mod:`csv` cannot split raise :class:`ValidationError` naming
    the path and ``what`` the file is ("data file", "model file", ...)."""
    try:
        with open(path, "rb") as fh:
            return parse(fh)
    except FileNotFoundError:
        raise ValidationError(f"no such {what}: {path}") from None
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ValidationError(f"{path}: cannot read {what}: {exc}") from exc


def _create(path: str | Path, **kwargs):
    """The file at ``path`` opened for writing as UTF-8 text; a path that
    cannot be opened raises :class:`ValidationError` naming it."""
    try:
        return open(path, "w", encoding="utf-8", **kwargs)
    except OSError as exc:
        raise _unwritable(path, exc.strerror) from exc


def check_writable(path: str | Path) -> None:
    """Raise :func:`_create`'s error, without making the file, for a path
    that is a directory or whose directory does not exist."""
    if Path(path).is_dir():
        raise _unwritable(path, os.strerror(errno.EISDIR))
    if not Path(path).parent.is_dir():
        raise _unwritable(path, os.strerror(errno.ENOENT))


def _unwritable(path: str | Path, reason: str) -> ValidationError:
    return ValidationError(f"{path}: cannot write: {reason}")


def write_csv(header: list[str], rows: Iterable, path: str | Path, quoting=csv.QUOTE_MINIMAL) -> None:
    """Write a CSV the one way every CSV file of a run is written: UTF-8,
    the header row, then the rows, each line ended by a bare newline, with
    fields quoted as the :mod:`csv` constant ``quoting`` says."""
    with _create(path, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n", quoting=quoting)
        writer.writerow(header)
        writer.writerows(rows)


def write_json(obj: dict, path: str | Path) -> None:
    """Write a JSON document the one way every file of a run is written:
    indent 2, keys sorted at every level, and a final newline.  The text
    is streamed to the file, never held whole in memory."""
    with _create(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path: str | Path, what: str, build: Callable[[dict], object]):
    """``build`` applied to the JSON object in a file.  Besides the
    failures of reading any file, invalid JSON, a document that is not
    an object, or a ``KeyError`` or ``TypeError`` from ``build`` raises
    :class:`ValidationError` naming the path and ``what`` the file is
    ("config file", "model file", ...); a :class:`ValidationError` from
    ``build`` gains the path in front."""
    try:
        doc = _read(path, what, lambda fh: json.loads(fh.read().decode("utf-8")))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: {what} must be a JSON object")
    try:
        return build(doc)
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"{path}: malformed {what}: {exc}") from exc
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def save_schema(schema: TableSchema, path: str | Path) -> None:
    write_json(schema.to_dict(), path)


def load_schema(path: str | Path) -> TableSchema:
    return read_json(path, "schema file", TableSchema.from_dict)


# ---------------------------------------------------------------------------
# Imputation


def _filled(table: DataTable, specs) -> dict[str, np.ndarray]:
    """Read-only copies of the given columns that have gaps, in their
    stored dtype, filled as :func:`impute_numeric_columns` fills them."""
    filled = {}
    for spec in specs:
        values = table._columns[spec.name]
        mask = table.missing_mask(spec.name)
        if not mask.any():
            continue
        if mask.all():
            raise ComputationError(
                f"column {spec.name!r} has no non-missing values to impute from"
            )
        if spec.kind not in NUMERIC_KINDS:
            fill = np.bincount(values[~mask]).argmax()  # ties to the lower code
        else:
            fill = float(np.median(values[~mask]))
            if spec.kind is ColumnKind.LIKELIHOOD:
                fill = float(np.clip(math.floor(fill + 0.5), LIKELIHOOD_MIN, LIKELIHOOD_MAX))
        col = values.copy()
        col[mask] = fill
        filled[spec.name] = _freeze(col)
    return filled


def impute_median(table: DataTable, column: str) -> DataTable:
    """Replace missing cells with the median of the non-missing values.

    Continuous columns use the plain median (mean of the two central
    values on even counts).  Likelihood columns round the median half-up
    so the result stays an integer in [1, 99].  Categorical and binary
    columns are rejected; :func:`impute_numeric_columns` fills them with
    their most frequent code.
    """
    spec = table.schema.column(column, *NUMERIC_KINDS)
    return table.replace_columns(_filled(table, [spec]))


def impute_numeric_columns(table: DataTable) -> DataTable:
    """Fill every gap of every predictor from the table itself, building a
    single table: a continuous or likelihood column takes its median, as
    :func:`impute_median` gives it, and a binary or categorical column its
    most frequent code, ties to the lower code.  An all-missing column
    raises :class:`ComputationError`."""
    return table.replace_columns(_filled(table, table.schema.columns))


# ---------------------------------------------------------------------------
# Splitting


def _largest_remainder(quotas: dict, total: int) -> dict:
    """Largest-remainder apportionment of ``total``: each key gets the floor
    of its quota, and the ``total`` minus the sum of the floors keys with
    the largest fractional remainders (ties to the smaller key) one more."""
    floors = {key: math.floor(q) for key, q in quotas.items()}
    by_remainder = sorted(quotas, key=lambda key: (-(quotas[key] - floors[key]), key))
    for key in by_remainder[: total - sum(floors.values())]:
        floors[key] += 1
    return floors


def split_train_validation(table: DataTable, frac: float, seed: int) -> tuple[DataTable, DataTable]:
    """Deterministic stratified split into disjoint ``(train, validation)`` tables.

    Each target class contributes round-to-floor-or-ceiling of frac times
    its size (within one record of the exact fraction), and the per-class
    row choice is a seeded permutation, so the same seed always yields
    the same row assignment.
    """
    require_number("frac", frac, "(0, 1)")
    if table.n_records < 2:
        raise ValidationError("need at least 2 records to split")
    y = table.target_values
    n0, n1 = table.class_counts()
    if n0 == 0 or n1 == 0:
        raise ValidationError("both target classes must be present to split")
    # The classes' shares sum to round-half-up(frac * n).
    k = _largest_remainder({0: frac * n0, 1: frac * n1}, math.floor(frac * (n0 + n1) + 0.5))
    rng = np.random.default_rng(seed)
    train_rows = []
    for cls in (0, 1):
        idx = np.flatnonzero(y == cls)
        perm = rng.permutation(len(idx))
        train_rows.append(idx[perm[: k[cls]]])
    train_mask = np.zeros(table.n_records, dtype=bool)
    train_mask[np.concatenate(train_rows)] = True
    return table.subset(np.flatnonzero(train_mask)), table.subset(np.flatnonzero(~train_mask))

