"""Staged predictor screening against a binary target.

Four filters are applied in a fixed order, each shrinking the retained
variable set: a chi-square screen over binary predictors, a two-sample
t screen over multivalued numeric predictors, an information-value band
over discrete predictors, and a final stage that splits the survivors
into ``final_retain`` clusters (see :mod:`screenfit.varclus`), keeps one
representative per cluster, drops sparse binary flags, and merges
statistically indistinguishable categorical levels.  Every stage's
statistics and retained set are recorded in a :class:`ScreeningReport`
whose stage sets are nested.  Each per-variable result is keyed by its
variable in the report and holds no copy of the name; a level merge is
the plain ``{level: merged id}`` dict that ``model.json`` stores and
:func:`apply_level_mapping` takes under its column.  The report's JSON
form is read off the fields of its result dataclasses, so each field
name is also its key in ``screening_report.json``.

Screening takes an imputed table, as ``logit.encode_design`` and
``varclus`` do: a gap in any predictor a stage reads raises ``variable
'<v>' has missing values; impute first``.

Every level-wise statistic reads one count table: the level x class
counts of a discrete variable (``_level_class_counts``, one ``bincount``
over the row index :func:`discrete_levels` gives).  It
feeds the binary chi-square, weight of evidence and information value,
the occupancy filter and level merging.  :func:`run_screening` takes
each discrete column's table once per run and hands it to every stage
that reads the column; each public one-variable function takes its own
table and calls the same private core.  Chi-square p-values, of the
binary screen and of each level merge, come from
:func:`screenfit.logit.chi2_sf`; the t screen ranks by |t| and needs no
tail probability.  A 2x2 table with an empty margin scores chi-square 0
(p 1), so a constant flag ranks last, as a constant column's t of 0
does.  Stages 1-3 rank their results by one rule, score then schema
position.

The t screen gathers ``_T_BLOCK`` columns at a time into one
C-ordered buffer per target class and takes each row's sum, then its
sum of squared deviations.  Each is the same pairwise sum that
``mean()`` and ``var(ddof=1)`` take over one column, so every t
statistic has the bits of a column-at-a-time screen.

Likelihood-scale columns (integers 1..99) are treated as numeric for the
t screen and binned into seven equal-width bins for weight-of-evidence /
information-value work.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import varclus
from .errors import ComputationError, ValidationError, require_number, require_whole
from .logit import chi2_sf
from .table import (
    DISCRETE_KINDS,
    LIKELIHOOD_MAX,
    LIKELIHOOD_MIN,
    NUMERIC_KINDS,
    ColumnKind,
    ColumnSpec,
    DataTable,
)

N_LIKELIHOOD_BINS = 7

DEFAULT_IV_SMOOTHING = 0.5

# Columns the t screen gathers into one buffer per target class.  From
# about 8 columns on, the per-call cost is spread thin: on the 675
# multivalued columns of a 4000 x 1500 table (one BLAS thread, a 2-core
# Xeon with 2 MB of L2 per core) the stage took 22 ms a column at a time
# and 12 ms in blocks of 8 to 675 alike.  Sixteen columns of its 3600
# background rows make a 460 KB buffer, which stays in cache and keeps
# the stage's memory flat as the table widens; one block of every
# column takes 19 MB there.
_T_BLOCK = 16


# ---------------------------------------------------------------------------
# Result containers


@dataclass(frozen=True)
class ChiSquareResult:
    statistic: float
    df: int
    p_value: float


@dataclass(frozen=True)
class TTestResult:
    t_statistic: float
    df: int


@dataclass(frozen=True)
class IvLevelRow:
    level: str
    signal_share: float
    background_share: float
    woe: float
    iv_contribution: float


@dataclass(frozen=True)
class IvResult:
    levels: tuple[IvLevelRow, ...]
    total_iv: float


@dataclass(frozen=True)
class StagePlan:
    """Retention targets and thresholds for the screening cascade.

    Counts are totals after each stage, whole numbers >= 1 that must
    decrease strictly: retain_after_chi2 > retain_after_t >
    retain_after_iv > final_retain.  final_retain is also the number of
    clusters the cluster stage asks for; when the variables split into
    fewer, the report warns of it.
    """

    retain_after_chi2: int
    retain_after_t: int
    retain_after_iv: int
    final_retain: int
    iv_min: float = 0.03
    iv_max: float = 0.5
    occupancy_min: float = 0.10
    level_merge_alpha: float = 0.05
    iv_smoothing: float = DEFAULT_IV_SMOOTHING

    def __post_init__(self):
        names = ("retain_after_chi2", "retain_after_t", "retain_after_iv", "final_retain")
        counts = tuple(getattr(self, name) for name in names)
        for name, count in zip(names, counts):
            require_whole(f"plan.{name}", count, 1)
        if not all(a > b for a, b in zip(counts, counts[1:])):
            raise ValidationError(
                f"stage counts must decrease strictly, got {counts}"
            )
        require_number("plan.iv_min", self.iv_min, "(0, inf)")
        require_number("plan.iv_max", self.iv_max, f"({self.iv_min}, inf)")
        require_number("plan.occupancy_min", self.occupancy_min, "[0, 1]")
        require_number("plan.level_merge_alpha", self.level_merge_alpha, "[0, 1)")
        require_number("plan.iv_smoothing", self.iv_smoothing, "[0, inf)")


@dataclass
class ScreeningReport:
    """Per-stage retained sets (nested) plus the statistics behind each cut."""

    stages: list[tuple[str, list[str]]] = field(default_factory=list)
    chi_square: dict[str, ChiSquareResult] = field(default_factory=dict)
    t_test: dict[str, TTestResult] = field(default_factory=dict)
    iv: dict[str, IvResult] = field(default_factory=dict)
    level_mappings: dict[str, dict[str, str]] = field(default_factory=dict)
    cluster_selection: varclus.ClusterSelection | None = None
    warnings: list[str] = field(default_factory=list)

    @property
    def final_variables(self) -> list[str]:
        return list(self.stages[-1][1]) if self.stages else []

    def to_dict(self) -> dict:
        """The report as ``screening_report.json`` holds it: each statistic
        is its result's fields, and each level mapping its dict.  The
        writer sorts the keys."""
        return {
            "stages": [{"stage": s, "retained": vs} for s, vs in self.stages],
            "chi_square": {v: vars(r) for v, r in self.chi_square.items()},
            "t_test": {v: vars(r) for v, r in self.t_test.items()},
            "iv": {
                v: vars(r) | {"levels": [vars(row) for row in r.levels]}
                for v, r in self.iv.items()
            },
            "level_mappings": self.level_mappings,
            "warnings": self.warnings,
        }


# ---------------------------------------------------------------------------
# Level extraction helpers


_LIKELIHOOD_BIN_EDGES = np.linspace(LIKELIHOOD_MIN, LIKELIHOOD_MAX, N_LIKELIHOOD_BINS + 1)

_LIKELIHOOD_BIN_LABELS = tuple(
    f"[{lo:g},{hi:g}{']' if i == N_LIKELIHOOD_BINS - 1 else ')'}"
    for i, (lo, hi) in enumerate(zip(_LIKELIHOOD_BIN_EDGES, _LIKELIHOOD_BIN_EDGES[1:]))
)

# The bin of every likelihood code 0..99, and -1 for the gap code -1.
# searchsorted puts x == edge into the left bin's right edge; shift so
# bins are [lo, hi) with the last bin closed.
_LIKELIHOOD_BIN_OF_CODE = np.append(
    np.clip(
        np.searchsorted(_LIKELIHOOD_BIN_EDGES, np.arange(LIKELIHOOD_MAX + 1), side="right") - 1,
        0,
        N_LIKELIHOOD_BINS - 1,
    ),
    -1,
)


def discrete_levels(table: DataTable, variable: str) -> tuple[np.ndarray, np.ndarray]:
    """(labels, level-index per row) for a variable usable in level-wise stats.

    Binary columns yield levels "0"/"1"; categorical columns their string
    levels in sorted order; likelihood columns the seven equal-width bins
    over [1, 99].  Missing rows get index -1.  Returned labels cover only
    levels that occur in the data.  Each kind maps the column's codes
    through a lookup whose last entry, the one code -1 picks, is -1.
    """
    spec = table.schema.column(variable, *DISCRETE_KINDS)
    if spec.kind is ColumnKind.CATEGORICAL:
        labels = sorted(spec.levels)
        label_of_code = np.array([labels.index(lvl) for lvl in spec.levels] + [-1])
    elif spec.kind is ColumnKind.BINARY:
        labels = ["0", "1"]
        label_of_code = np.array([0, 1, -1])
    else:
        labels = _LIKELIHOOD_BIN_LABELS
        label_of_code = _LIKELIHOOD_BIN_OF_CODE
    labels = np.array(labels, dtype=object)
    # A lookup by intp indices runs about twice as fast as by the narrow codes.
    raw = label_of_code.take(table.codes(variable).astype(np.intp))
    # Keep the labels that occur, and index each row into the kept ones.
    occupied = np.flatnonzero(np.bincount(raw + 1, minlength=len(labels) + 1)[1:])
    if len(occupied) == len(labels):
        return labels, raw
    remap = np.full(len(labels) + 1, -1)
    remap[occupied] = np.arange(len(occupied))
    return labels[occupied], remap[raw]


def _level_class_counts(table: DataTable, variable: str) -> tuple[np.ndarray, np.ndarray]:
    """(occurring labels, L x 2 float counts of the rows per level, column
    0 for target 0 and column 1 for target 1); a gap raises."""
    labels, idx = discrete_levels(table, variable)
    # Shifting the index by one puts the missing rows in cells 0 and 1.
    cells = 2 * (idx + 1) + table.target_values
    counts = np.bincount(cells, minlength=2 * len(labels) + 2)
    if counts[:2].any():
        raise ValidationError(f"variable {variable!r} has missing values; impute first")
    return labels, counts[2:].reshape(-1, 2).astype(float)


def _require_both_classes(table: DataTable) -> None:
    n0, n1 = table.class_counts()
    if n0 == 0 or n1 == 0:
        raise ComputationError("target is constant; both classes are required")


# ---------------------------------------------------------------------------
# Per-variable statistics


def _pearson_2x2(a: float, b: float, c: float, d: float) -> float:
    """Pearson chi-square (df 1, no continuity correction) of the 2x2 table
    of counts with rows (a, b) and (c, d), rows a grouping and columns the
    target; 0 when a margin is zero."""
    row0, row1, col0, col1 = a + b, c + d, a + c, b + d
    if 0 in (row0, row1, col0, col1):
        return 0.0
    total = a + b + c + d
    statistic = 0.0
    for count, row, col in ((a, row0, col0), (b, row0, col1), (c, row1, col0), (d, row1, col1)):
        expected = row * col / total
        statistic += (count - expected) * (count - expected) / expected
    return statistic


def _chi_square(labels: np.ndarray, counts: np.ndarray) -> ChiSquareResult:
    """The binary chi-square of one flag from its level x class counts; a
    flag of one level has an empty margin."""
    statistic = _pearson_2x2(*counts.ravel().tolist()) if len(labels) == 2 else 0.0
    return ChiSquareResult(statistic=statistic, df=1, p_value=chi2_sf(statistic, 1))


def chi_square_binary(table: DataTable, variable: str) -> ChiSquareResult:
    """Pearson chi-square of a binary variable against the binary target.

    Computed on the 2x2 contingency table, df = 1, no continuity
    correction; a flag of one level gives statistic 0 and p 1.
    """
    _require_both_classes(table)
    table.schema.column(variable, ColumnKind.BINARY)
    return _chi_square(*_level_class_counts(table, variable))


def _moments(columns, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and ddof=1 variance of each column at the given rows, as
    ``x[rows].mean()`` and ``x[rows].var(ddof=1)`` give them: the columns
    are gathered into the rows of one C-ordered buffer, and a reduction
    along each row takes the same pairwise sums as one over a 1-D array."""
    g = np.empty((len(columns), len(rows)))
    for out, x in zip(g, columns):
        out[:] = x[rows]
    mean = np.add.reduce(g, axis=1, keepdims=True) / len(rows)
    g -= mean
    g *= g
    return mean[:, 0], np.add.reduce(g, axis=1) / (len(rows) - 1)


def _t_result(variable: str, n0: int, n1: int, diff: float, pooled_var: float) -> TTestResult:
    """One variable's t from its mean difference and pooled variance, or its error."""
    df = n0 + n1 - 2
    if pooled_var == 0.0:
        if diff == 0.0:
            return TTestResult(t_statistic=0.0, df=df)
        raise ComputationError(
            f"{variable!r}: zero pooled variance with unequal group means (infinite t)"
        )
    se = math.sqrt(pooled_var * (1.0 / n0 + 1.0 / n1))
    return TTestResult(t_statistic=diff / se, df=df)


def _t_tests(table: DataTable, variables: list[str]) -> dict[str, TTestResult]:
    """:func:`t_test_multivalued` of each variable, in blocks of _T_BLOCK
    columns gathered at the row indices of each class, likelihood codes
    as stored.  A gap in any variable raises first; past that, the error
    is that of the first variable in the list that has one.
    """
    y = table.target_values
    class_rows = (np.flatnonzero(y == 0), np.flatnonzero(y == 1))
    n0, n1 = len(class_rows[0]), len(class_rows[1])
    columns = []
    for v in variables:
        spec = table.schema.column(v, *NUMERIC_KINDS)
        if table.missing_mask(v).any():
            raise ValidationError(f"variable {v!r} has missing values; impute first")
        x = table.codes(v) if spec.kind is ColumnKind.LIKELIHOOD else table.numeric_view(v)
        columns.append(x)
    if variables and min(n0, n1) < 2:
        raise ValidationError(
            f"{variables[0]!r}: each target group needs >= 2 non-missing values "
            f"(got {n0} and {n1})"
        )
    stats = []
    for start in range(0, len(columns), _T_BLOCK):
        block = columns[start : start + _T_BLOCK]
        (m0, v0), (m1, v1) = (_moments(block, rows) for rows in class_rows)
        pooled_var = ((n0 - 1) * v0 + (n1 - 1) * v1) / (n0 + n1 - 2)
        stats += zip((m1 - m0).tolist(), pooled_var.tolist())
    return {v: _t_result(v, n0, n1, *s) for v, s in zip(variables, stats)}


def t_test_multivalued(table: DataTable, variable: str) -> TTestResult:
    """Pooled-variance two-sample t of a numeric variable across target groups.

    Sign follows mean(target=1) - mean(target=0); df = n0 + n1 - 2.
    """
    return _t_tests(table, [variable])[variable]


def _woe_iv(variable: str, labels: np.ndarray, counts: np.ndarray, smoothing: float) -> IvResult:
    """WoE and IV of one variable from its level x class counts."""
    n0, n1 = counts.T
    L = len(labels)
    s = smoothing
    sig = (n1 + s) / (n1.sum() + s * L)
    bkg = (n0 + s) / (n0.sum() + s * L)
    if s == 0.0 and ((n1 == 0) | (n0 == 0)).any():
        raise ComputationError(
            f"{variable!r}: empty level with smoothing off; WoE is undefined"
        )
    woe = np.log(sig / bkg)
    contrib = (sig - bkg) * woe
    rows = zip(labels.tolist(), sig.tolist(), bkg.tolist(), woe.tolist(), contrib.tolist())
    levels = tuple(IvLevelRow(*row) for row in rows)
    return IvResult(levels=levels, total_iv=float(contrib.sum()))


def woe_iv(
    table: DataTable, variable: str, smoothing: float = DEFAULT_IV_SMOOTHING
) -> IvResult:
    """Weight of evidence and information value of a discrete variable.

    Per level, with pseudo-count smoothing s over L levels:
        signal_share     = (n_1,level + s) / (n_1 + s*L)
        background_share = (n_0,level + s) / (n_0 + s*L)
        woe              = ln(signal_share / background_share)
        contribution     = (signal_share - background_share) * woe
    and total IV is the sum of contributions.  A single-level variable
    has IV 0 by construction.
    """
    _require_both_classes(table)
    return _woe_iv(variable, *_level_class_counts(table, variable), smoothing)


def _occupied(labels: np.ndarray, counts: np.ndarray, min_frac: float) -> bool:
    """Whether a flag's share of ones, from its level x class counts, is at
    least min_frac; a flag of no rows is not."""
    total = counts.sum()
    return bool(total > 0 and counts[labels == "1"].sum() / total >= min_frac)


def occupancy_filter(
    table: DataTable, variables: list[str], min_frac: float
) -> list[str]:
    """Retain binary variables whose share of ones is >= min_frac."""
    retained = []
    for name in variables:
        table.schema.column(name, ColumnKind.BINARY)
        if _occupied(*_level_class_counts(table, name), min_frac):
            retained.append(name)
    return retained


def _merge_levels(
    declared: tuple[str, ...], labels: np.ndarray, counts: np.ndarray, alpha: float
) -> dict[str, str]:
    """Level merging of one categorical from its declared levels and its
    level x class counts."""
    # Each group: its member levels and its target 0 and target 1 counts.
    groups = [([lvl], n0, n1) for lvl, (n0, n1) in zip(labels, counts.tolist())]
    while alpha > 0.0 and len(groups) > 1:
        # Occurring levels make every group's total nonzero.
        rates = [n1 / (n1 + n0) for _, n0, n1 in groups]
        smallest = [min(members) for members, _, _ in groups]
        _, i, j = min(
            ((abs(rates[i] - rates[j]), smallest[i], smallest[j]), i, j)
            for i in range(len(groups))
            for j in range(i + 1, len(groups))
        )
        (members_i, n0_i, n1_i), (members_j, n0_j, n1_j) = groups[i], groups[j]
        # An empty target margin (both rates equal) scores 0: p is 1 and the pair merges.
        if chi2_sf(_pearson_2x2(n0_i, n1_i, n0_j, n1_j), 1) <= alpha:
            break
        groups[i] = (members_i + members_j, n0_i + n0_j, n1_i + n1_j)
        del groups[j]
    mapping = {lvl: min(members) for members, _, _ in groups for lvl in members}
    # levels declared in the schema but absent from the data map to themselves
    for lvl in declared:
        mapping.setdefault(lvl, lvl)
    return mapping


def merge_levels(table: DataTable, variable: str, alpha: float = 0.05) -> dict[str, str]:
    """Greedily merge categorical levels that are indistinguishable on the target.

    Repeatedly takes the pair of current levels with the closest target
    rates, tests the pair's 2x2 chi-square against the target, and fuses
    the pair when p > alpha; stops at the first pair that fails.  With
    alpha = 0 merging is disabled and the identity mapping is returned
    (any finite chi-square has p > 0, so a literal p > 0 rule would fuse
    everything).  Returns ``{level: merged id}`` for every declared level.
    Each level maps to the lexicographically smallest member of its group,
    so applying the map twice changes nothing.
    """
    _require_both_classes(table)
    spec = table.schema.column(variable, ColumnKind.CATEGORICAL)
    return _merge_levels(spec.levels, *_level_class_counts(table, variable), alpha)


def apply_level_mapping(table: DataTable, mappings: dict[str, dict[str, str]]) -> DataTable:
    """Rewrite categorical columns through level mappings, updating their specs.

    ``mappings`` is ``{column: {level: merged id}}``, and every mapping is
    applied in one new table.  Levels without an entry in a mapping are
    left as-is, so mappings learned on one table can be applied to later
    tables that may carry extra levels.  A column's new levels are the
    merged ids of its declared levels together with every merged id the
    mapping names, so a table that declares fewer levels than training
    still takes each merged id as a level.
    """
    columns, specs = {}, []
    for variable, mapping in mappings.items():
        spec = table.schema.column(variable, ColumnKind.CATEGORICAL)
        merged = [mapping.get(lvl, lvl) for lvl in spec.levels]
        new_levels = tuple(sorted(set(merged) | set(mapping.values())))
        if len(new_levels) < 2:
            raise ComputationError(
                f"{variable!r}: merging collapsed the column to a single level"
            )
        recode = np.array([new_levels.index(m) for m in merged] + [-1])
        columns[spec.name] = recode[table.codes(spec.name)]
        specs.append(ColumnSpec(name=spec.name, kind=spec.kind, levels=new_levels))
    return table.replace_columns(columns, tuple(specs))


# ---------------------------------------------------------------------------
# The cascade


def run_screening(table: DataTable, plan: StagePlan) -> ScreeningReport:
    """Run the full screening cascade and record every stage.

    Stage order: chi-square screen over binary predictors (other kinds
    pass through), |t| screen over multivalued numeric predictors, IV
    band [iv_min, iv_max] over discrete predictors capped at the stage
    count by IV rank (continuous pass through), then variable clustering
    into final_retain clusters with one representative each, followed by
    the binary occupancy filter and categorical level merging.  Retained
    sets are nested and listed in schema column order.
    """
    _require_both_classes(table)
    schema_order = {name: i for i, name in enumerate(table.schema.names)}
    predictors = table.schema.predictors
    report = ScreeningReport()
    report.stages.append(("input", list(predictors)))

    def kind(name: str) -> ColumnKind:
        return table.schema.column(name).kind

    def cut(results: dict, score, retained: list[str], want: int, stage: str) -> list[str]:
        """Rank the results' variables by score, ties in schema order, and
        drop the lowest-ranked until want variables are retained; variables
        without a result are kept."""
        n_drop = len(retained) - want
        if n_drop < 0:
            raise ValidationError(
                f"{stage}: plan wants {want} variables but only {len(retained)} remain"
            )
        if n_drop > len(results):
            raise ValidationError(
                f"{stage}: plan needs {n_drop} variables dropped but only "
                f"{len(results)} are eligible"
            )
        ranks = sorted(results, key=lambda v: (-score(results[v]), schema_order[v]))
        dropped = set(ranks[len(ranks) - n_drop :])
        return [v for v in retained if v not in dropped]

    # One level x class count table per discrete column serves every stage.
    counts_of = functools.cache(functools.partial(_level_class_counts, table))

    # --- stage 1: chi-square over binary predictors
    report.chi_square = {
        v: _chi_square(*counts_of(v)) for v in predictors if kind(v) is ColumnKind.BINARY
    }
    retained = cut(
        report.chi_square, lambda r: r.statistic, predictors, plan.retain_after_chi2,
        "chi-square stage",
    )
    report.stages.append(("chi_square", retained))

    # --- stage 2: |t| over multivalued numeric predictors
    report.t_test = _t_tests(table, [v for v in retained if kind(v) in NUMERIC_KINDS])
    retained = cut(
        report.t_test, lambda r: abs(r.t_statistic), retained, plan.retain_after_t, "t-test stage"
    )
    report.stages.append(("t_test", retained))

    # --- stage 3: information-value band over discrete predictors
    report.iv = {
        v: _woe_iv(v, *counts_of(v), plan.iv_smoothing)
        for v in retained
        if kind(v) in DISCRETE_KINDS
    }
    in_band = {v: r for v, r in report.iv.items() if plan.iv_min <= r.total_iv <= plan.iv_max}
    retained = [v for v in retained if v not in report.iv or v in in_band]
    if len(retained) > plan.retain_after_iv:
        retained = cut(in_band, lambda r: r.total_iv, retained, plan.retain_after_iv, "IV stage")
    if not retained:
        raise ComputationError("IV stage retained no variables")
    report.stages.append(("information_value", retained))

    # --- stage 4: variable clustering, occupancy filter, level merging
    if len(retained) < plan.final_retain:
        raise ValidationError(
            f"clustering stage: plan wants {plan.final_retain} clusters but only "
            f"{len(retained)} variables remain"
        )
    numeric = np.column_stack([table.numeric_view(v) for v in retained])
    corr = varclus.correlation_matrix_from_array(numeric, retained)
    clusters = varclus.cluster_variables(corr, n_clusters=plan.final_retain)
    if len(clusters) < plan.final_retain:
        report.warnings.append(
            f"clustering stage: plan wants {plan.final_retain} clusters but the "
            f"variables split into only {len(clusters)}"
        )
    selection = varclus.select_representatives(clusters, corr)
    report.cluster_selection = selection
    retained = sorted(selection.representatives(), key=schema_order.__getitem__)

    retained = [
        v for v in retained
        if kind(v) is not ColumnKind.BINARY or _occupied(*counts_of(v), plan.occupancy_min)
    ]

    final = []
    for v in retained:
        if kind(v) is ColumnKind.CATEGORICAL:
            declared = table.schema.column(v).levels
            mapping = _merge_levels(declared, *counts_of(v), plan.level_merge_alpha)
            if len(set(mapping.values())) < 2:
                report.warnings.append(
                    f"{v}: level merging collapsed the column to one level; dropped"
                )
                continue
            report.level_mappings[v] = mapping
        final.append(v)
    if not final:
        raise ComputationError("final screening stage retained no variables")
    report.stages.append(("cluster_occupancy_merge", final))

    # nestedness is structural; assert it cheaply as a guard
    for (_, prev), (_, cur) in zip(report.stages, report.stages[1:]):
        assert set(cur) <= set(prev)
    return report
