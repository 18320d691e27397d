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


def generate(spec: SyntheticSpec, sample_index: int = 0) -> tuple[DataTable, GroundTruth]:
    """Draw a table plus its ground truth; deterministic given spec and index.

    sample_index 0 is the primary table; any other index yields a fresh,
    structurally identical sample (same column parameters, same planted
    variables and coefficients) suitable for out-of-sample testing.  The
    columns are built in their stored dtypes (``int8`` codes for every
    discrete kind, float64 for continuous), and the table shares them
    (read-only) instead of copying them, so they exist once in memory.
    """
    require_whole("sample_index", sample_index, 0)
    structure = np.random.default_rng(np.random.SeedSequence([spec.seed, 0]))
    records = np.random.default_rng(np.random.SeedSequence([spec.seed, 1 + sample_index]))
    n = spec.n_records
    total = spec.n_predictors
    counts = _largest_remainder({k: spec.kind_mix.get(k, 0.0) * total for k in KINDS}, total)

    specs: list[ColumnSpec] = []
    columns: dict[str, np.ndarray] = {}
    for kind in ColumnKind:
        for i in range(counts[kind.value]):
            name, levels = f"{kind.value[:3]}_{i:03d}", None
            if kind is ColumnKind.BINARY:
                occupancy = structure.uniform(0.05, 0.6)
                columns[name] = (records.random(n) < occupancy).astype(np.int8)
            elif kind is ColumnKind.CATEGORICAL:
                n_levels = int(structure.integers(3, len(CATEGORY_LABELS) + 1))
                levels = tuple(CATEGORY_LABELS[:n_levels])
                probs = structure.dirichlet(np.full(n_levels, 2.0))
                columns[name] = records.choice(n_levels, size=n, p=probs).astype(np.int8)
            elif kind is ColumnKind.LIKELIHOOD:
                skew = structure.uniform(0.5, 2.0)
                u = records.random(n)
                columns[name] = np.clip(np.floor(u**skew * 99.0) + 1.0, 1.0, 99.0).astype(np.int8)
            else:
                columns[name] = records.standard_normal(n)
            specs.append(ColumnSpec(name=name, kind=kind, levels=levels))

    def names_of(kind: ColumnKind) -> list[str]:
        return [s.name for s in specs if s.kind is kind]

    all_names = np.array(list(columns), dtype=object)
    planted_names = sorted(structure.choice(all_names, size=spec.n_informative, replace=False))

    # Correlated pairs are built from continuous noise columns so the
    # redundancy is informative-free by construction.
    if spec.n_correlated_pairs:
        noise_cont = [v for v in names_of(ColumnKind.CONTINUOUS) if v not in planted_names]
        if len(noise_cont) < 2 * spec.n_correlated_pairs:
            raise ValidationError(
                f"{spec.n_correlated_pairs} correlated pairs need "
                f"{2 * spec.n_correlated_pairs} continuous noise columns, "
                f"have {len(noise_cont)}"
            )
        r = spec.correlated_r
        for p in range(spec.n_correlated_pairs):
            a, b = noise_cont[2 * p], noise_cont[2 * p + 1]
            columns[b] = r * columns[a] + math.sqrt(1.0 - r * r) * records.standard_normal(n)

    # Latent score over standardized planted columns; a categorical enters
    # through its level codes.
    standardization: dict[str, tuple[float, float]] = {}
    latent = np.zeros(n)
    planted: dict[str, float] = {}
    lo, hi = spec.beta_range
    for name in planted_names:
        beta = float(structure.uniform(lo, hi)) * float(structure.choice([-1.0, 1.0]))
        values = columns[name].astype(float)
        mean, std = float(values.mean()), float(values.std())
        if std == 0.0:
            raise ComputationError(
                f"planted column {name!r} is constant; cannot standardize"
            )
        latent += beta * (values - mean) / std
        planted[name] = beta
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
                mask = records.random(n) < spec.missing_rate
                if mask.all():
                    mask[0] = False  # keep the column imputable
                columns[name][mask] = gap

    specs.append(ColumnSpec(name=TARGET_NAME, kind=ColumnKind.BINARY))
    columns[TARGET_NAME] = y
    schema = TableSchema(columns=tuple(specs), target=TARGET_NAME)
    table = DataTable(schema, {name: _freeze(col) for name, col in columns.items()})
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
