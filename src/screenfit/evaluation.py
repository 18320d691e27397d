"""Scoring, decile lift/gain analysis, and confusion-matrix metrics.

Records are sorted by predicted probability (descending, ties broken by
ascending record id) and cut into ten near-equal deciles; any remainder
goes to the earliest deciles.  Per decile the table reports the response
rate, lift (decile response rate over the overall rate), the captured
share of all responders, and its cumulative version -- the gain curve.
Both the rate-based lift and the captured share are emitted because both
readings of "lift" circulate; the column named lift is the rate ratio.

Classification metrics use a plain probability threshold: predict 1 when
p >= threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ComputationError, ValidationError
from .table import write_csv

N_DECILES = 10


@dataclass(frozen=True)
class ScoreSet:
    """Per-record id, predicted probability, and actual 0/1 outcome."""

    ids: np.ndarray
    p: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        if not (len(self.ids) == len(self.p) == len(self.y)):
            raise ValidationError("ids, p, y must have equal length")
        if len(np.unique(self.ids)) != len(self.ids):
            raise ValidationError("record ids must be unique")
        if len(self.p) and (np.min(self.p) < 0.0 or np.max(self.p) > 1.0):
            raise ValidationError("probabilities must lie in [0, 1]")
        if not np.isin(self.y, (0, 1)).all():
            raise ValidationError("outcomes must be 0 or 1")

    @property
    def n(self) -> int:
        return len(self.p)


@dataclass(frozen=True)
class DecileRow:
    decile: int
    n: int
    responders: int
    response_rate: float
    lift: float
    captured: float
    cum_captured: float


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ValidationError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class Metrics:
    """Accuracy, sensitivity, specificity; None where the denominator is zero."""

    accuracy: float | None
    sensitivity: float | None
    specificity: float | None


def score(model, table) -> ScoreSet:
    """Score every record of a table with a fitted model.

    Encoding reuses the model's stored training statistics; record ids
    are the row positions.
    """
    from .logit import encode_design

    design = encode_design(
        table, model.source_variables(), template=model.terms
    )
    p = model.predict_proba(design.X)
    return ScoreSet(ids=np.arange(table.n_records), p=p, y=design.y)


def decile_order(scores: ScoreSet) -> np.ndarray:
    """Row order for decile assignment: p descending, id ascending."""
    return np.lexsort((scores.ids, -scores.p))


def assign_deciles(scores: ScoreSet) -> np.ndarray:
    """Decile number (1..10) per record; the first n % 10 deciles get the extra records."""
    if scores.n < N_DECILES:
        raise ValidationError(f"need at least {N_DECILES} records, got {scores.n}")
    order = decile_order(scores)
    base, extra = divmod(scores.n, N_DECILES)
    sizes = [base + 1 if d < extra else base for d in range(N_DECILES)]
    out = np.empty(scores.n, dtype=int)
    start = 0
    for d, size in enumerate(sizes, start=1):
        out[order[start : start + size]] = d
        start += size
    return out

def decile_table(scores: ScoreSet) -> list[DecileRow]:
    """Lift and captured-response statistics per decile, best scores first."""
    total_resp = int(scores.y.sum())
    if total_resp == 0:
        raise ComputationError("no responders; lift is undefined")
    overall = total_resp / scores.n
    deciles = assign_deciles(scores)
    rows = []
    cum = 0.0
    for d in range(1, N_DECILES + 1):
        mask = deciles == d
        n_d = int(mask.sum())
        resp = int(scores.y[mask].sum())
        rate = resp / n_d
        captured = resp / total_resp
        cum += captured
        rows.append(
            DecileRow(
                decile=d,
                n=n_d,
                responders=resp,
                response_rate=rate,
                lift=rate / overall,
                captured=captured,
                cum_captured=cum,
            )
        )
    return rows


def confusion_matrix(scores: ScoreSet, threshold: float) -> ConfusionMatrix:
    """Tally predictions (1 when p >= threshold) against the actual outcomes."""
    if not (0.0 <= threshold <= 1.0):
        raise ValidationError(f"threshold must be in [0, 1], got {threshold}")
    pred = scores.p >= threshold
    actual = scores.y.astype(bool)
    return ConfusionMatrix(
        tp=int(np.sum(pred & actual)),
        fp=int(np.sum(pred & ~actual)),
        tn=int(np.sum(~pred & ~actual)),
        fn=int(np.sum(~pred & actual)),
    )


def metrics(cm: ConfusionMatrix) -> Metrics:
    """accuracy = (TP+TN)/total, sensitivity = TP/(TP+FN), specificity = TN/(FP+TN)."""

    def ratio(num: int, den: int) -> float | None:
        return num / den if den > 0 else None

    return Metrics(
        accuracy=ratio(cm.tp + cm.tn, cm.total),
        sensitivity=ratio(cm.tp, cm.tp + cm.fn),
        specificity=ratio(cm.tn, cm.fp + cm.tn),
    )


CHART_COLUMNS = [
    "decile",
    "n",
    "responders",
    "response_rate",
    "lift",
    "captured",
    "cum_captured",
    "baseline",
]


def chart_rows(deciles: list[DecileRow]) -> list[list]:
    """Decile rows as plottable lists; baseline d/10 is the random-model gain line."""
    return [
        [
            d.decile,
            d.n,
            d.responders,
            repr(d.response_rate),
            repr(d.lift),
            repr(d.captured),
            repr(d.cum_captured),
            repr(d.decile / N_DECILES),
        ]
        for d in deciles
    ]


def export_chart_data(deciles: list[DecileRow], out_path) -> None:
    """Write the decile table as CSV with a random-model baseline column."""
    write_csv(CHART_COLUMNS, chart_rows(deciles), out_path)
