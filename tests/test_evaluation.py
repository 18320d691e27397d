import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from screenfit.errors import ComputationError, ValidationError
from screenfit.evaluation import (
    CHART_COLUMNS,
    ConfusionMatrix,
    ScoreSet,
    assign_deciles,
    chart_rows,
    confusion_matrix,
    decile_table,
    score,
)
from screenfit.logit import DesignMatrix, Term, fit_irls
from screenfit.table import ColumnKind, write_csv

from conftest import make_table


def score_set(p, y):
    return ScoreSet(p=np.asarray(p, dtype=float), y=np.asarray(y, dtype=int))


@st.composite
def random_scores(draw):
    n = draw(st.integers(10, 400))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    p = rng.random(n)
    y = (rng.random(n) < draw(st.floats(0.05, 0.9))).astype(int)
    if y.sum() == 0:
        y[0] = 1
    return score_set(p, y)


class TestScore:
    def fitted_model(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(200)
        y = (rng.random(200) < 1 / (1 + np.exp(-x))).astype(int)
        t = make_table(
            {"x": x, "y": y},
            {"x": ColumnKind.CONTINUOUS, "y": ColumnKind.BINARY},
        )
        from screenfit.logit import encode_design

        model = fit_irls(encode_design(t, ["x"]))
        return model, t

    def test_zero_coefficients_give_half(self):
        model, t = self.fitted_model()
        from dataclasses import replace

        zero = replace(model, beta=np.zeros_like(model.beta))
        ss = score(zero, t)
        np.testing.assert_allclose(ss.p, 0.5)

    def test_intercept_only_value(self):
        # a record with linear predictor -0.8057 scores 0.3088
        assert 1 / (1 + np.exp(0.8057)) == pytest.approx(0.3088, abs=5e-5)

    def test_monotone_in_positive_coefficient(self):
        model, t = self.fitted_model()
        assert model.beta[1] > 0
        ss = score(model, t)
        x = t.column("x")
        order = np.argsort(x)
        assert (np.diff(ss.p[order]) >= 0).all()

    def test_deterministic(self):
        model, t = self.fitted_model()
        a, b = score(model, t), score(model, t)
        np.testing.assert_array_equal(a.p, b.p)


class TestAssignDeciles:
    def test_needs_ten_records(self):
        with pytest.raises(ValidationError):
            assign_deciles(score_set([0.5] * 9, [1] * 9))

    def test_sizes_differ_by_at_most_one(self):
        ss = score_set(np.linspace(0, 1, 47), [1] * 47)
        d = assign_deciles(ss)
        sizes = [int((d == k).sum()) for k in range(1, 11)]
        assert max(sizes) - min(sizes) == 1
        assert sizes == [5, 5, 5, 5, 5, 5, 5, 4, 4, 4]

    def test_descending_probability_order(self):
        rng = np.random.default_rng(1)
        p = rng.random(100)
        ss = score_set(p, rng.integers(0, 2, 100))
        d = assign_deciles(ss)
        assert p[d == 1].min() >= p[d == 10].max()

    def test_tie_break_by_id(self):
        p = [0.5] * 20
        ss = score_set(p, [0, 1] * 10)
        d = assign_deciles(ss)
        # constant scores: deciles follow row order
        np.testing.assert_array_equal(d, np.repeat(np.arange(1, 11), 2))

    @given(
        st.integers(11, 400).filter(lambda n: n % 10),
        st.integers(0, 2),
        st.integers(0, 2**31 - 1),
    )
    def test_ties_keep_row_order(self, n, decimals, seed):
        # Rounded scores tie heavily; the reference sorts by p descending,
        # then by row position, and cuts the order into ten near-equal runs.
        p = np.round(np.random.default_rng(seed).random(n), decimals)
        reference = np.empty(n, dtype=int)
        for d, rows in enumerate(np.array_split(np.lexsort((np.arange(n), -p)), 10), start=1):
            reference[rows] = d
        np.testing.assert_array_equal(assign_deciles(score_set(p, [1] * n)), reference)


class TestDecileTable:
    def test_perfect_classifier(self):
        n, n_pos = 1000, 100
        p = np.concatenate([np.linspace(0.9, 1.0, n_pos), np.linspace(0.0, 0.5, n - n_pos)])
        y = np.concatenate([np.ones(n_pos, dtype=int), np.zeros(n - n_pos, dtype=int)])
        rows = decile_table(score_set(p, y))
        assert rows[0].response_rate == pytest.approx(1.0)
        assert rows[0].lift == pytest.approx(10.0)
        assert rows[0].cum_captured == pytest.approx(1.0)

    def test_captured_based_reading(self):
        # a first decile catching 24% of responders: captured 0.24 on a 10% slice
        rng = np.random.default_rng(2)
        n = 2000
        y = np.zeros(n, dtype=int)
        pos = rng.choice(n, 500, replace=False)
        y[pos] = 1
        # put exactly 120 of the 500 responders in the top 200 scores
        p = rng.random(n) * 0.5
        top = np.concatenate([pos[:120], np.setdiff1d(np.arange(n), pos)[:80]])
        p[top] = 0.5 + rng.random(200) * 0.5
        rows = decile_table(score_set(p, y))
        assert rows[0].captured == pytest.approx(120 / 500)
        assert rows[0].captured / 0.10 == pytest.approx(2.4)

    def test_uniform_scores_have_unit_lift(self):
        hits = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            n = 10_000
            p = rng.random(n)
            y = (rng.random(n) < 0.375).astype(int)
            rows = decile_table(score_set(p, y))
            if all(0.85 <= r.lift <= 1.15 for r in rows):
                hits += 1
        assert hits >= 9

    def test_zero_responders_rejected(self):
        with pytest.raises(ComputationError):
            decile_table(score_set(np.linspace(0, 1, 20), [0] * 20))

    @given(random_scores())
    def test_identities(self, ss):
        rows = decile_table(ss)
        sizes = [r.n for r in rows]
        assert sum(sizes) == ss.n
        assert max(sizes) - min(sizes) <= 1
        assert sum(r.responders for r in rows) == int(ss.y.sum())
        assert sum(r.lift * r.n for r in rows) / ss.n == pytest.approx(1.0, abs=1e-9)
        assert rows[-1].cum_captured == pytest.approx(1.0, abs=1e-12)
        cc = [r.cum_captured for r in rows]
        assert all(b >= a - 1e-12 for a, b in zip(cc, cc[1:]))
        # integer identity: response_rate * n recovers responder counts
        assert sum(round(r.response_rate * r.n) for r in rows) == int(ss.y.sum())

    @given(random_scores())
    def test_monotone_transform_invariance(self, ss):
        d1 = assign_deciles(ss)
        squared = score_set(ss.p**2, ss.y)
        d2 = assign_deciles(squared)
        np.testing.assert_array_equal(d1, d2)


class TestConfusionMatrix:
    def test_threshold_zero(self):
        ss = score_set([0.1, 0.9, 0.4], [0, 1, 0])
        cm = confusion_matrix(ss, 0.0)
        assert cm.fn == 0
        assert cm.fp == 2
        assert cm.tp == 1
        assert cm.tn == 0

    def test_threshold_one_with_subunit_scores(self):
        ss = score_set([0.1, 0.9, 0.4], [0, 1, 0])
        cm = confusion_matrix(ss, 1.0)
        assert cm.tp == 0 and cm.fp == 0
        assert cm.fn == 1 and cm.tn == 2

    def test_brute_force_recount(self):
        rng = np.random.default_rng(3)
        p = rng.random(500)
        y = rng.integers(0, 2, 500)
        cm = confusion_matrix(score_set(p, y), 0.5)
        tp = fp = tn = fn = 0
        for pi, yi in zip(p, y):
            pred = pi >= 0.5
            if pred and yi:
                tp += 1
            elif pred and not yi:
                fp += 1
            elif not pred and yi:
                fn += 1
            else:
                tn += 1
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == (tp, fp, tn, fn)

    def test_bad_threshold(self):
        ss = score_set([0.5], [1])
        with pytest.raises(ValidationError):
            confusion_matrix(ss, 1.5)

    def test_threshold_just_outside_names_its_interval(self):
        ss = score_set([0.5], [1])
        message = "threshold must be in [0, 1], got -0.01"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            confusion_matrix(ss, -0.01)


class TestMetrics:
    def test_reference_counts(self):
        m = ConfusionMatrix(tp=13819, tn=37140, fp=7264, fn=5323)
        assert m.sensitivity == pytest.approx(0.7219, abs=5e-5)
        assert m.accuracy == pytest.approx(0.8019, abs=5e-5)
        assert m.specificity == pytest.approx(0.8364, abs=5e-5)

    def test_perfect_classifier(self):
        m = ConfusionMatrix(tp=5, tn=7, fp=0, fn=0)
        assert m.accuracy == m.sensitivity == m.specificity == 1.0

    def test_zero_denominator_flagged(self):
        m = ConfusionMatrix(tp=0, tn=3, fp=2, fn=0)
        assert m.sensitivity is None
        assert m.accuracy == pytest.approx(0.6)

    @given(
        tp=st.integers(0, 500),
        fp=st.integers(0, 500),
        tn=st.integers(0, 500),
        fn=st.integers(0, 500),
    )
    def test_accuracy_identity(self, tp, fp, tn, fn):
        if tp + fp + tn + fn == 0 or tp + fn == 0 or tn + fp == 0:
            return
        m = ConfusionMatrix(tp=tp, fp=fp, tn=tn, fn=fn)
        P, N = tp + fn, tn + fp
        assert m.accuracy == pytest.approx(
            (m.sensitivity * P + m.specificity * N) / (P + N), abs=1e-12
        )

    def test_misclassification_consistency_via_per_record_loop(self):
        rng = np.random.default_rng(4)
        p = rng.random(300)
        y = rng.integers(0, 2, 300)
        while y.sum() in (0, len(y)):
            y = rng.integers(0, 2, 300)
        m = confusion_matrix(score_set(p, y), 0.5)
        wrong = sum(1 for pi, yi in zip(p, y) if (pi >= 0.5) != bool(yi))
        assert m.accuracy == pytest.approx(1.0 - wrong / 300)


class TestExportChartData:
    def test_structure_and_baseline(self, tmp_path):
        rng = np.random.default_rng(5)
        rows = decile_table(score_set(rng.random(100), rng.integers(0, 2, 100)))
        out = tmp_path / "chart.csv"
        write_csv(CHART_COLUMNS, chart_rows(rows), out)
        lines = out.read_text().splitlines()
        assert len(lines) == 11
        header = lines[0].split(",")
        assert header[-1] == "baseline"
        baselines = [float(line.split(",")[-1]) for line in lines[1:]]
        assert baselines == pytest.approx([d / 10 for d in range(1, 11)])

    def test_reexport_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(6)
        rows = decile_table(score_set(rng.random(73), rng.integers(0, 2, 73)))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(CHART_COLUMNS, chart_rows(rows), a)
        write_csv(CHART_COLUMNS, chart_rows(rows), b)
        assert a.read_bytes() == b.read_bytes()


class TestScoreSetValidation:
    def test_probability_range_enforced(self):
        with pytest.raises(ValidationError):
            score_set([0.1, 1.2], [0, 1])

    def test_nan_probability_rejected(self):
        with pytest.raises(ValidationError):
            score_set([0.1, np.nan], [0, 1])
