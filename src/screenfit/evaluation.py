"""Scoring, decile lift/gain analysis, and confusion-matrix metrics.

Records are sorted by predicted probability (descending, ties kept in
row order) and cut into ten near-equal deciles; any remainder goes to
the earliest deciles.  Per decile the table reports the response rate,
lift (decile response rate over the overall rate), the captured share
of all responders, and its cumulative version -- the gain curve.  Both
the rate-based lift and the captured share are emitted because both
readings of "lift" circulate; the column named lift is the rate ratio.

Classification uses a plain probability threshold: predict 1 when
p >= threshold.  A confusion matrix carries its counts and the rates
read off them: accuracy, sensitivity and specificity.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ComputationError, ValidationError, require_number

N_DECILES = 10


@dataclass(frozen=True)
class ScoreSet:
    """Predicted probability and actual 0/1 outcome per record, in row order."""

    p: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        if len(self.p) != len(self.y):
            raise ValidationError("p and y must have equal length")
        if not ((self.p >= 0.0) & (self.p <= 1.0)).all():
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
    """Counts at a threshold and their rates: accuracy = (TP+TN)/total,
    sensitivity = TP/(TP+FN), specificity = TN/(FP+TN); a rate is None
    where its denominator is zero."""

    tp: int
    fp: int
    tn: int
    fn: int
    accuracy: float | None = field(init=False)
    sensitivity: float | None = field(init=False)
    specificity: float | None = field(init=False)

    def __post_init__(self):
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ValidationError("confusion counts must be non-negative")
        for name, num, den in (
            ("accuracy", self.tp + self.tn, self.total),
            ("sensitivity", self.tp, self.tp + self.fn),
            ("specificity", self.tn, self.fp + self.tn),
        ):
            object.__setattr__(self, name, num / den if den > 0 else None)

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def score(model, table) -> ScoreSet:
    """Score every record of a table with a fitted model.

    Encoding reuses the model's stored training statistics.
    """
    from .logit import encode_design

    design = encode_design(
        table, model.source_variables(), template=model.terms
    )
    return ScoreSet(p=model.predict_proba(design.X), y=design.y)


def _decile_rows(scores: ScoreSet) -> list[np.ndarray]:
    """Row positions of each decile, best first: p descending, ties in row
    order; the first n % 10 deciles get the extra records."""
    if scores.n < N_DECILES:
        raise ValidationError(f"need at least {N_DECILES} records, got {scores.n}")
    return np.array_split(np.argsort(-scores.p, kind="stable"), N_DECILES)


def assign_deciles(scores: ScoreSet) -> np.ndarray:
    """Decile number (1..10) per record."""
    out = np.empty(scores.n, dtype=int)
    for d, rows in enumerate(_decile_rows(scores), start=1):
        out[rows] = d
    return out


def decile_table(scores: ScoreSet) -> list[DecileRow]:
    """Lift and captured-response statistics per decile, best scores first."""
    total_resp = int(scores.y.sum())
    if total_resp == 0:
        raise ComputationError("no responders; lift is undefined")
    overall = total_resp / scores.n
    rows = []
    cum = 0.0
    for d, members in enumerate(_decile_rows(scores), start=1):
        n_d = len(members)
        resp = int(scores.y[members].sum())
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
    require_number("threshold", threshold, "[0, 1]")
    pred = scores.p >= threshold
    actual = scores.y.astype(bool)
    return ConfusionMatrix(
        tp=int(np.sum(pred & actual)),
        fp=int(np.sum(pred & ~actual)),
        tn=int(np.sum(~pred & ~actual)),
        fn=int(np.sum(~pred & actual)),
    )


CHART_COLUMNS = [f.name for f in fields(DecileRow)] + ["baseline"]


def chart_rows(deciles: list[DecileRow]) -> list[list]:
    """Decile rows as plottable lists; baseline d/10 is the random-model gain line."""
    return [[*vars(d).values(), d.decile / N_DECILES] for d in deciles]
