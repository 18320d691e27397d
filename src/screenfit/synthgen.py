"""Synthetic wide tables with a planted logistic ground truth.

The generator draws independent predictor columns of four kinds (binary
flags with occupancy between 5% and 60%, categoricals with 3-8 levels,
1..99 likelihood scales with per-column skew, and standard-normal
continuous variables), picks a subset of them as informative, and draws
the outcome from a logistic model over the standardized informative
columns.  The intercept is calibrated by bisection on the realized
responder count so the realized prevalence matches
n_signal / (n_signal + n_background).  Missing cells are then injected
into continuous and likelihood columns.

The columns are built in the dtype the table stores them in: binary and
likelihood values, categorical codes and the target as ``int8`` with -1
for a gap, continuous values as float64 with NaN.  Each is frozen and
handed to :class:`DataTable`, which shares it rather than copying it.

Everything is a pure function of the spec (including its seed) plus a
sample index: the same inputs reproduce the same table bit for bit.  The
spec seed drives a *structure* stream (column parameters, the choice of
informative variables, their coefficients) while the sample index picks
a *records* stream, so sibling samples -- e.g. an out-of-sample test set
drawn with index 1 -- share the identical data-generating process while
holding entirely fresh records.  The planted coefficients, intercept,
and the standardization constants they apply to are returned as ground
truth so fitted models can be compared against an oracle that scores
with the truth directly.

The generator makes one pass over each stream.  The structure pass draws
every column's parameters in schema order (occupancy, level count and
Dirichlet level probabilities, skew), then the planted variables, the
correlated pairs and the coefficients; a spec with too few continuous
noise columns for its pairs fails there, before any record is drawn.
The records pass draws each column's records in schema order, then the
pairs' noise, the outcome's uniforms and the gap masks.  A categorical's
codes count the cumulative level probabilities that each uniform draw
reaches: the codes ``Generator.choice`` draws from the same uniforms, at
about a quarter of its cost.  Asked for some columns only, the generator
builds those, the planted ones and the paired ones.  Every other column
keeps its place in the records stream, its normals drawn and its
uniforms and gap mask skipped with ``advance``, so the stream stays in
step and the table is the full draw cut to those columns, but it is
never built, stored or checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ComputationError, ValidationError, require_number, require_whole
from .evaluation import ScoreSet
from .logit import _sigmoid
from .table import ColumnKind, ColumnSpec, DataTable, TableSchema, _freeze, _largest_remainder

KINDS = tuple(kind.value for kind in ColumnKind)

TARGET_NAME = "target"

CATEGORY_LABELS = "abcdefgh"

MAX_INTERCEPT = 60.0


@dataclass(frozen=True)
class SyntheticSpec:
    """Shape and signal content of a generated table."""

    n_signal: int
    n_background: int
    n_informative: int
    n_noise: int
    kind_mix: dict[str, float]
    beta_range: tuple[float, float] = (0.3, 1.5)
    missing_rate: float = 0.0
    seed: int = 0
    n_correlated_pairs: int = 0
    correlated_r: float = 0.8

    def __post_init__(self):
        for name in ("n_signal", "n_background"):
            require_whole(f"synthetic.{name}", getattr(self, name), 1)
        for name in ("n_informative", "n_noise", "n_correlated_pairs"):
            require_whole(f"synthetic.{name}", getattr(self, name), 0)
        if self.n_predictors < 1:
            raise ValidationError("n_informative + n_noise must be >= 1")
        if set(self.kind_mix) - set(KINDS):
            raise ValidationError(
                f"kind_mix keys must be among {KINDS}, got {sorted(self.kind_mix)}"
            )
        for kind, frac in self.kind_mix.items():
            require_number(f"synthetic.kind_mix.{kind}", frac, "[0, inf)")
        if abs(sum(self.kind_mix.values()) - 1.0) > 1e-9:
            raise ValidationError("kind_mix fractions must sum to 1")
        lo, hi = self.beta_range
        require_number("synthetic.beta_range[0]", lo, "(0, inf)")
        require_number("synthetic.beta_range[1]", hi, f"[{lo}, inf)")
        require_number("synthetic.missing_rate", self.missing_rate, "[0, 0.5]")
        require_number("synthetic.correlated_r", self.correlated_r, "(-1, 1)")
        require_whole("synthetic.seed", self.seed, 0)

    @property
    def n_records(self) -> int:
        return self.n_signal + self.n_background

    @property
    def n_predictors(self) -> int:
        return self.n_informative + self.n_noise

    @property
    def target_prevalence(self) -> float:
        return self.n_signal / self.n_records

    @classmethod
    def from_dict(cls, d: dict) -> "SyntheticSpec":
        if not isinstance(d, dict):
            raise ValidationError(f"malformed synthetic spec: expected an object, got {d!r}")
        try:
            beta_range = tuple(d.get("beta_range", cls.beta_range))
            return cls(**d | {"kind_mix": dict(d["kind_mix"]), "beta_range": beta_range})
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed synthetic spec: {exc}") from exc


@dataclass(frozen=True)
class GroundTruth:
    """Planted coefficients (per standardized unit) and the calibrated intercept."""

    planted: dict[str, float]
    intercept: float
    prevalence: float
    standardization: dict[str, tuple[float, float]]  # variable -> (mean, std)

    def to_dict(self) -> dict:
        """The fields as ``ground_truth.json`` holds them, each
        standardization pair as a mean/std object."""
        standardization = {k: {"mean": m, "std": s} for k, (m, s) in self.standardization.items()}
        return vars(self) | {"standardization": standardization}


def _calibrate_intercept(count, want: int) -> float:
    """Bisect [-MAX_INTERCEPT, MAX_INTERCEPT] for an intercept c with
    count(c) >= want, where count is non-decreasing in c; returns the upper end.

    The search runs up to 200 rounds but stops at the first round that
    moves neither end (by then the ends are adjacent floats): every later
    round would repeat it, so the result is that of all 200 rounds.
    """
    lo_c, hi_c = -MAX_INTERCEPT, MAX_INTERCEPT
    if count(lo_c) > want or count(hi_c) < want:
        raise ComputationError("intercept calibration infeasible for this spec")
    for _ in range(200):
        ends = (lo_c, hi_c)
        mid = 0.5 * (lo_c + hi_c)
        if count(mid) < want:
            lo_c = mid
        else:
            hi_c = mid
        if (lo_c, hi_c) == ends:
            break
    return hi_c


def _choice_codes(u: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """The ``int8`` codes ``Generator.choice(len(probs), size=len(u), p=probs)``
    draws from the uniforms ``u``: ``cdf.searchsorted(u, side="right")`` over
    the normalised cdf, the count of thresholds each draw reaches (never 1)."""
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    codes = np.zeros(len(u), dtype=np.int8)
    for threshold in cdf[:-1]:
        codes += u >= threshold
    return codes


def generate(spec: SyntheticSpec, sample_index: int = 0, columns=None) -> tuple[DataTable, GroundTruth]:
    """Draw a table plus its ground truth; deterministic given spec and index.

    sample_index 0 is the primary table; any other index yields a fresh,
    structurally identical sample (same column parameters, same planted
    variables and coefficients) suitable for out-of-sample testing.  The
    columns are built in their stored dtypes (``int8`` codes for every
    discrete kind, float64 for continuous), and the table shares them
    (read-only) instead of copying them, so they exist once in memory.

    With ``columns`` given, the table holds only those columns and the
    target, in schema order: exactly ``generate(spec,
    sample_index)[0].select_columns(columns)``, with the same ground truth.
    An unknown name raises :class:`ValidationError` before any record is
    drawn.
    """
    require_whole("sample_index", sample_index, 0)
    structure = np.random.default_rng(np.random.SeedSequence([spec.seed, 0]))
    n = spec.n_records
    total = spec.n_predictors
    counts = _largest_remainder({k: spec.kind_mix.get(k, 0.0) * total for k in KINDS}, total)

    # Structure pass: every draw from the structure stream, before any record.
    specs: list[ColumnSpec] = []
    params: list = []  # occupancy, level probabilities, skew, or None
    for kind in ColumnKind:
        for i in range(counts[kind.value]):
            name, levels, param = f"{kind.value[:3]}_{i:03d}", None, None
            if kind is ColumnKind.BINARY:
                param = structure.uniform(0.05, 0.6)
            elif kind is ColumnKind.CATEGORICAL:
                n_levels = int(structure.integers(3, len(CATEGORY_LABELS) + 1))
                levels = tuple(CATEGORY_LABELS[:n_levels])
                param = structure.dirichlet(np.full(n_levels, 2.0))
            elif kind is ColumnKind.LIKELIHOOD:
                param = structure.uniform(0.5, 2.0)
            specs.append(ColumnSpec(name=name, kind=kind, levels=levels))
            params.append(param)
    schema = TableSchema(
        columns=(*specs, ColumnSpec(name=TARGET_NAME, kind=ColumnKind.BINARY)), target=TARGET_NAME
    )
    kept = schema if columns is None else schema.select(columns)

    def names_of(kind: ColumnKind) -> list[str]:
        return [s.name for s in specs if s.kind is kind]

    all_names = np.array([s.name for s in specs], dtype=object)
    planted_names = sorted(structure.choice(all_names, size=spec.n_informative, replace=False))

    # Correlated pairs are built from continuous noise columns so the
    # redundancy is informative-free by construction.
    noise_cont = [v for v in names_of(ColumnKind.CONTINUOUS) if v not in planted_names]
    if len(noise_cont) < 2 * spec.n_correlated_pairs:
        raise ValidationError(
            f"{spec.n_correlated_pairs} correlated pairs need "
            f"{2 * spec.n_correlated_pairs} continuous noise columns, "
            f"have {len(noise_cont)}"
        )
    pairs = [tuple(noise_cont[2 * p : 2 * p + 2]) for p in range(spec.n_correlated_pairs)]

    lo, hi = spec.beta_range
    planted = {
        name: float(structure.uniform(lo, hi)) * float(structure.choice([-1.0, 1.0]))
        for name in planted_names
    }

    # Records pass: every column's draws are taken or skipped, in schema
    # order, so the stream stays in step, but a column the table does not
    # hold and the outcome does not read is never built.
    stored = set(kept.names)
    needed = stored | set(planted) | {name for pair in pairs for name in pair}
    records = np.random.default_rng(np.random.SeedSequence([spec.seed, 1 + sample_index]))
    values: dict[str, np.ndarray] = {}
    for column, param in zip(specs, params):
        kind = column.kind
        if column.name not in needed:
            # A float64 uniform takes one 64-bit output of PCG64, so skipping
            # n outputs leaves the stream where n uniforms would; a normal
            # takes a varying number of outputs and has to be drawn.
            if kind is ColumnKind.CONTINUOUS:
                records.standard_normal(n)
            else:
                records.bit_generator.advance(n)
            continue
        draw = records.standard_normal(n) if kind is ColumnKind.CONTINUOUS else records.random(n)
        if kind is ColumnKind.BINARY:
            draw = (draw < param).astype(np.int8)
        elif kind is ColumnKind.CATEGORICAL:
            draw = _choice_codes(draw, param)
        elif kind is ColumnKind.LIKELIHOOD:
            draw = np.clip(np.floor(draw**param * 99.0) + 1.0, 1.0, 99.0).astype(np.int8)
        values[column.name] = draw

    r = spec.correlated_r
    for a, b in pairs:
        values[b] = r * values[a] + math.sqrt(1.0 - r * r) * records.standard_normal(n)

    # Latent score over standardized planted columns; a categorical enters
    # through its level codes.
    standardization: dict[str, tuple[float, float]] = {}
    latent = np.zeros(n)
    for name, beta in planted.items():
        planted_values = values[name].astype(float)
        mean, std = float(planted_values.mean()), float(planted_values.std())
        if std == 0.0:
            raise ComputationError(
                f"planted column {name!r} is constant; cannot standardize"
            )
        latent += beta * (planted_values - mean) / std
        standardization[name] = (mean, std)

    # Intercept calibration: y_i = 1 iff u_i < sigmoid(c + latent_i); the
    # responder count is monotone in c, so bisect c to the target count.
    u = records.random(n)
    want = spec.n_signal

    def count(c: float) -> int:
        return int(np.sum(u < _sigmoid(c + latent)))

    intercept = _calibrate_intercept(count, want)
    y = (u < _sigmoid(intercept + latent)).astype(np.int8)
    realized = float(y.mean())
    if abs(realized - spec.target_prevalence) > 0.01:
        raise ComputationError(
            f"calibrated prevalence {realized:.4f} misses target "
            f"{spec.target_prevalence:.4f} by more than one point"
        )

    if spec.missing_rate > 0.0:
        for kind, gap in ((ColumnKind.LIKELIHOOD, -1), (ColumnKind.CONTINUOUS, np.nan)):
            for name in names_of(kind):
                if name not in stored:
                    records.bit_generator.advance(n)
                    continue
                mask = records.random(n) < spec.missing_rate
                if mask.all():
                    mask[0] = False  # keep the column imputable
                values[name][mask] = gap

    values[TARGET_NAME] = y
    table = DataTable(kept, {name: _freeze(values[name]) for name in kept.names})
    truth = GroundTruth(
        planted=planted,
        intercept=intercept,
        prevalence=realized,
        standardization=standardization,
    )
    return table, truth


def oracle_metrics(truth: GroundTruth, table: DataTable) -> ScoreSet:
    """Score a table with the planted coefficients, bypassing any fitted model.

    Missing cells contribute zero to the latent score (the standardized
    mean), which keeps the oracle defined on tables with injected
    missingness.
    """
    for name in truth.planted:
        if name not in table.schema.names:
            raise ValidationError(f"planted variable {name!r} missing from table")
    latent = np.full(table.n_records, truth.intercept)
    for name, beta in truth.planted.items():
        mean, std = truth.standardization[name]
        z = (table.numeric_view(name) - mean) / std
        latent += beta * np.nan_to_num(z)
    return ScoreSet(p=_sigmoid(latent), y=table.target_values)
