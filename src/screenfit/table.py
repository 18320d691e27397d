"""Columnar data model for wide tabular data with a binary target.

A :class:`DataTable` owns one numpy array per column.  Numeric kinds
(binary, likelihood-level, continuous) are stored as float64 with NaN as
the missing marker.  A categorical column is stored as integer codes
into its spec's declared level tuple, with -1 as the missing marker, so
every stage works on categoricals with numpy expressions over the codes;
only this module maps codes to level strings and back.  Tables are
immutable after construction: every operation returns a new table (or
the same object when nothing changed), and the backing arrays are marked
read-only so they can be shared across threads and across tables -- a
transform copies only the columns it changes.

All randomness in this module (and in the rest of the package) comes
from numpy's PCG64 generator seeded explicitly; the generator algorithm
is part of the external contract, so identical seeds reproduce identical
bytes across runs and machines.

CSV interchange: comma-delimited UTF-8 with a header row whose order
matches the schema exactly.  Empty cells and the literal token "NA" are
the missing markers.  The schema travels in a JSON sidecar listing
name/kind/levels per column plus the target column name.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import CellParseError, ComputationError, ValidationError

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


IMPUTED_KINDS = (ColumnKind.CONTINUOUS, ColumnKind.LIKELIHOOD)


@dataclass(frozen=True)
class ColumnSpec:
    """Name, kind, and (for categorical columns) the declared level set."""

    name: str
    kind: ColumnKind
    levels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.kind is ColumnKind.CATEGORICAL:
            if self.levels is None or len(self.levels) < 2:
                raise ValidationError(
                    f"categorical column {self.name!r} needs >= 2 declared levels"
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

    def column(self, name: str) -> ColumnSpec:
        if name not in self._by_name:
            raise ValidationError(f"no column named {name!r} in schema")
        return self._by_name[name]

    @property
    def predictors(self) -> list[str]:
        return [c.name for c in self.columns if c.name != self.target]

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "columns": [
                {"name": c.name, "kind": c.kind.value}
                | ({"levels": list(c.levels)} if c.levels is not None else {})
                for c in self.columns
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TableSchema":
        try:
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


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _owned(values, dtype) -> np.ndarray:
    """A read-only array of the dtype: read-only input of that dtype is
    shared as it is, anything else is copied."""
    if isinstance(values, np.ndarray) and values.dtype == dtype and not values.flags.writeable:
        return values
    return _freeze(np.array(values, dtype=dtype))


def _level_codes(levels: tuple[str, ...], cells, missing: tuple) -> np.ndarray:
    """Codes of cells into the levels: -1 for a missing marker, -2 for any
    other value that is not a declared level."""
    index = {lvl: i for i, lvl in enumerate(levels)} | dict.fromkeys(missing, -1)
    return np.fromiter(
        map(index.get, cells, itertools.repeat(-2)), dtype=np.intp, count=len(cells)
    )


def _stored(spec: ColumnSpec, values) -> np.ndarray:
    """A column as the table stores it, read-only (see :class:`DataTable`)."""
    if spec.kind is not ColumnKind.CATEGORICAL:
        return _owned(values, np.float64)
    cells = np.asarray(values)
    if cells.dtype.kind in "iu":
        codes = _owned(values, np.intp)
    else:
        codes = _freeze(_level_codes(spec.levels, cells, (None,)))
    bad = np.flatnonzero((codes < -1) | (codes >= len(spec.levels)))
    if len(bad):
        raise ValidationError(
            f"categorical column {spec.name!r}, row {bad[0]}: "
            f"{cells[bad[0]]!r} is neither a declared level nor a level code"
        )
    return codes


class DataTable:
    """Immutable columnar table; one array per schema column.

    Binary, likelihood and continuous columns are float64 arrays with NaN
    for a missing cell.  A categorical column is an array of int codes
    into ``spec.levels``, with -1 for a missing cell: :meth:`codes`
    returns them, and :meth:`column` decodes them to level strings with
    None for a missing cell.  The constructor takes a categorical column
    either as integer codes or as strings (None for missing); the dtype
    decides which, and codes out of range or strings that are not
    declared levels are rejected.

    Every stored array is read-only.  The constructor shares a read-only
    array of the stored dtype (float64, or intp for codes) instead of
    copying it, so a transform hands over the columns it leaves alone,
    and any new column it has frozen, without a copy.

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
        if np.isnan(self._columns[schema.target]).any():
            raise ValidationError(f"target column {schema.target!r} has missing values")

    @property
    def n_records(self) -> int:
        return self._n

    def column(self, name: str) -> np.ndarray:
        """The column's values; a categorical comes back decoded, as an
        object array of level strings with None for missing cells."""
        spec = self.schema.column(name)
        if spec.kind is ColumnKind.CATEGORICAL:
            return _freeze(np.array(spec.levels + (None,), dtype=object)[self._columns[name]])
        return self._columns[name]

    def codes(self, name: str) -> np.ndarray:
        """A categorical column's codes into its declared levels, -1 for missing."""
        if self.schema.column(name).kind is not ColumnKind.CATEGORICAL:
            raise ValidationError(f"column {name!r} is not categorical")
        return self._columns[name]

    @property
    def target_values(self) -> np.ndarray:
        """Target as an int 0/1 array."""
        return self._columns[self.schema.target].astype(int)

    def missing_mask(self, name: str) -> np.ndarray:
        if self.schema.column(name).kind is ColumnKind.CATEGORICAL:
            return self._columns[name] < 0
        return np.isnan(self._columns[name])

    def numeric_view(self, name: str) -> np.ndarray:
        """Column as float64 with NaN for missing.

        Binary and likelihood columns are already numeric; categorical
        columns are coded by their index in the declared level list (the
        conventional numeric recoding of character levels).
        """
        kind = self.schema.column(name).kind
        values = self._columns[name]
        if kind is ColumnKind.CATEGORICAL:
            return np.where(values < 0, np.nan, values)
        return values.astype(float)

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

    def class_counts(self) -> tuple[int, int]:
        y = self.target_values
        return int((y == 0).sum()), int((y == 1).sum())


# ---------------------------------------------------------------------------
# CSV / sidecar I/O


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
    if spec.kind is ColumnKind.BINARY and value not in (0.0, 1.0):
        return "binary values must be 0 or 1"
    if spec.kind is ColumnKind.LIKELIHOOD and (
        value != int(value) or not (LIKELIHOOD_MIN <= value <= LIKELIHOOD_MAX)
    ):
        return f"likelihood levels are integers in [{LIKELIHOOD_MIN}, {LIKELIHOOD_MAX}]"
    return None


def _in_domain(kind: ColumnKind, values: np.ndarray) -> np.ndarray:
    """Which parsed values fit a numeric kind (the vector form of :func:`_cell_error`)."""
    if kind is ColumnKind.BINARY:
        return (values == 0.0) | (values == 1.0)
    fits = np.isfinite(values)
    if kind is ColumnKind.LIKELIHOOD:
        fits &= (values == np.floor(values)) & (values >= LIKELIHOOD_MIN) & (values <= LIKELIHOOD_MAX)
    return fits


def _parse_column(spec: ColumnSpec, tokens: tuple[str, ...]) -> tuple[np.ndarray, int | None]:
    """A column's tokens as the table stores them, plus the first row whose
    token breaks the column's kind (None when every token fits)."""
    if spec.kind is ColumnKind.CATEGORICAL:
        codes = _level_codes(spec.levels, tokens, MISSING_TOKENS)
        bad = np.flatnonzero(codes == -2)
        return codes, int(bad[0]) if len(bad) else None
    cells = np.array(tokens, dtype=object)
    present = ~np.isin(cells, MISSING_TOKENS)
    values = np.full(len(cells), np.nan)
    try:
        values[present] = cells[present].astype(float)
    except ValueError:
        first = next(
            i for i, token in enumerate(tokens)
            if token not in MISSING_TOKENS and _cell_error(token, spec)
        )
        return values, first
    bad = np.flatnonzero(present & ~_in_domain(spec.kind, values))
    return values, int(bad[0]) if len(bad) else None


def load_table(csv_path: str | Path, schema: TableSchema) -> DataTable:
    """Read a CSV into a typed table, validating every cell against the schema.

    The header row must equal the schema's column names, in order.  Empty
    cells and "NA" become the missing marker.  Any cell violating its
    column kind -- including a numeric cell that is not finite -- raises
    :class:`CellParseError` naming the row, column, and offending token;
    of several such cells the lowest row, then the leftmost column, is
    named.  A row with the wrong number of cells raises
    :class:`ValidationError` unless a bad cell comes before it.
    """
    path = Path(csv_path)
    if not path.exists():
        raise ValidationError(f"no such file: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: empty file, no header row") from None
        if header != schema.names:
            raise ValidationError(
                f"{path}: header {header} does not match schema columns {schema.names}"
            )
        raw_rows = list(reader)

    width = len(schema.columns)
    ragged = next((i for i, row in enumerate(raw_rows) if len(row) != width), None)
    rows = raw_rows if ragged is None else raw_rows[:ragged]
    cells = list(zip(*rows)) if rows else [()] * width
    columns = {}
    bad_cells = []
    for j, (spec, tokens) in enumerate(zip(schema.columns, cells)):
        columns[spec.name], bad_row = _parse_column(spec, tokens)
        if bad_row is not None:
            bad_cells.append((bad_row, j))
    if bad_cells:
        row, j = min(bad_cells)
        spec, token = schema.columns[j], cells[j][row]
        raise CellParseError(row, spec.name, token, _cell_error(token, spec))
    if ragged is not None:
        raise ValidationError(
            f"{path}: row {ragged} has {len(raw_rows[ragged])} cells, expected {width}"
        )
    return DataTable(schema, {name: _freeze(col) for name, col in columns.items()})


def _format_cell(value, kind: ColumnKind) -> str:
    if kind is ColumnKind.CATEGORICAL:
        return "" if value is None else str(value)
    if math.isnan(value):
        return ""
    if kind in (ColumnKind.BINARY, ColumnKind.LIKELIHOOD):
        return str(int(value))
    return repr(float(value))


def save_table(table: DataTable, csv_path: str | Path) -> None:
    """Serialize back to CSV with identical header order; round-trips through load_table."""
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(table.schema.names)
        cols = [table.column(n) for n in table.schema.names]
        kinds = [c.kind for c in table.schema.columns]
        for i in range(table.n_records):
            writer.writerow(
                [_format_cell(col[i], kind) for col, kind in zip(cols, kinds)]
            )


def save_schema(schema: TableSchema, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(schema.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_schema(path: str | Path) -> TableSchema:
    p = Path(path)
    if not p.exists():
        raise ValidationError(f"no such file: {p}")
    with open(p, encoding="utf-8") as fh:
        try:
            d = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{p}: invalid JSON: {exc}") from exc
    return TableSchema.from_dict(d)


# ---------------------------------------------------------------------------
# Imputation


def _median_filled(table: DataTable, specs) -> dict[str, np.ndarray]:
    """Median-filled, read-only copies of the given columns that have gaps."""
    filled = {}
    for spec in specs:
        values = table.column(spec.name)
        mask = np.isnan(values)
        if not mask.any():
            continue
        if mask.all():
            raise ComputationError(
                f"column {spec.name!r} has no non-missing values to impute from"
            )
        med = float(np.median(values[~mask]))
        if spec.kind is ColumnKind.LIKELIHOOD:
            med = float(np.clip(math.floor(med + 0.5), LIKELIHOOD_MIN, LIKELIHOOD_MAX))
        col = values.copy()
        col[mask] = med
        filled[spec.name] = _freeze(col)
    return filled


def impute_median(table: DataTable, column: str) -> DataTable:
    """Replace missing cells with the median of the non-missing values.

    Continuous columns use the plain median (mean of the two central
    values on even counts).  Likelihood columns round the median half-up
    so the result stays an integer in [1, 99].  Categorical and binary
    columns are rejected; their imputation is out of scope.
    """
    spec = table.schema.column(column)
    if spec.kind not in IMPUTED_KINDS:
        raise ValidationError(
            f"impute_median only applies to continuous or likelihood columns, "
            f"{column!r} is {spec.kind.value}"
        )
    return table.replace_columns(_median_filled(table, [spec]))


def impute_numeric_columns(table: DataTable) -> DataTable:
    """Median-impute every continuous and likelihood column that has gaps,
    as :func:`impute_median` does one column, building a single table."""
    specs = [spec for spec in table.schema.columns if spec.kind in IMPUTED_KINDS]
    return table.replace_columns(_median_filled(table, specs))


# ---------------------------------------------------------------------------
# Splitting and sampling


@dataclass(frozen=True)
class SplitResult:
    train: DataTable
    validation: DataTable
    seed: int


def _train_counts_per_class(counts: dict[int, int], frac: float) -> dict[int, int]:
    """Per-class train counts: floors of frac*n_c, topped up by largest
    fractional remainder until the overall total is round-half-up(frac*n)."""
    total = sum(counts.values())
    want = math.floor(frac * total + 0.5)
    floors = {c: math.floor(frac * n) for c, n in counts.items()}
    leftover = want - sum(floors.values())
    remainders = sorted(
        counts, key=lambda c: (-(frac * counts[c] - floors[c]), c)
    )
    out = dict(floors)
    for c in remainders[:leftover]:
        out[c] += 1
    return out


def split_train_validation(table: DataTable, frac: float, seed: int) -> SplitResult:
    """Deterministic stratified split into disjoint train/validation tables.

    Each target class contributes round-to-floor-or-ceiling of frac times
    its size (within one record of the exact fraction), and the per-class
    row choice is a seeded permutation, so the same seed always yields
    the same row assignment.
    """
    if not (0.0 < frac < 1.0):
        raise ValidationError(f"frac must be in (0, 1), got {frac}")
    if table.n_records < 2:
        raise ValidationError("need at least 2 records to split")
    y = table.target_values
    n0, n1 = table.class_counts()
    if n0 == 0 or n1 == 0:
        raise ValidationError("both target classes must be present to split")
    counts = {0: n0, 1: n1}
    k = _train_counts_per_class(counts, frac)
    rng = np.random.default_rng(seed)
    train_rows = []
    for cls in (0, 1):
        idx = np.flatnonzero(y == cls)
        perm = rng.permutation(len(idx))
        train_rows.append(idx[perm[: k[cls]]])
    train_mask = np.zeros(table.n_records, dtype=bool)
    train_mask[np.concatenate(train_rows)] = True
    train = table.subset(np.flatnonzero(train_mask))
    validation = table.subset(np.flatnonzero(~train_mask))
    return SplitResult(train=train, validation=validation, seed=seed)


def stratified_sample(
    signal_pool: DataTable,
    background_pool: DataTable,
    n_signal: int,
    n_background: int,
    seed: int,
) -> DataTable:
    """Concatenate seeded without-replacement samples from two record pools.

    Signal rows come first in the result.  Pools must share a schema.
    """
    if signal_pool.schema != background_pool.schema:
        raise ValidationError("signal and background pools must share a schema")
    if n_signal < 0 or n_background < 0:
        raise ValidationError("sample counts must be non-negative")
    if n_signal > signal_pool.n_records:
        raise ValidationError(
            f"requested {n_signal} signal records from a pool of {signal_pool.n_records}"
        )
    if n_background > background_pool.n_records:
        raise ValidationError(
            f"requested {n_background} background records from a pool of "
            f"{background_pool.n_records}"
        )
    rng = np.random.default_rng(seed)
    sig_rows = np.sort(rng.permutation(signal_pool.n_records)[:n_signal])
    bkg_rows = np.sort(rng.permutation(background_pool.n_records)[:n_background])
    columns = {
        name: _freeze(np.concatenate([col[sig_rows], background_pool._columns[name][bkg_rows]]))
        for name, col in signal_pool._columns.items()
    }
    return DataTable(signal_pool.schema, columns)
