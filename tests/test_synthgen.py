from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, strategies as st

from screenfit import synthgen
from screenfit.errors import ValidationError
from screenfit.logit import _sigmoid
from screenfit.synthgen import SyntheticSpec
from screenfit.table import ColumnKind, ColumnSpec


def bisection_200_rounds(count, want):
    """The intercept search before it stopped early: always 200 rounds."""
    lo_c, hi_c = -synthgen.MAX_INTERCEPT, synthgen.MAX_INTERCEPT
    for _ in range(200):
        mid = 0.5 * (lo_c + hi_c)
        if count(mid) < want:
            lo_c = mid
        else:
            hi_c = mid
    return hi_c


SPECS = [
    SyntheticSpec(
        n_signal=900, n_background=1500, n_informative=8, n_noise=42,
        kind_mix={"binary": 0.5, "categorical": 0.1, "likelihood": 0.25, "continuous": 0.15},
        beta_range=(0.5, 1.5), seed=11,
    ),
    SyntheticSpec(
        n_signal=150, n_background=2850, n_informative=5, n_noise=20,
        kind_mix={"binary": 0.2, "categorical": 0.2, "likelihood": 0.2, "continuous": 0.4},
        beta_range=(0.3, 2.5), missing_rate=0.05, seed=3, n_correlated_pairs=2,
    ),
]


@pytest.mark.parametrize("spec", SPECS)
def test_intercept_matches_the_200_round_bisection(spec, monkeypatch):
    calibrate = synthgen._calibrate_intercept
    seen = []

    def checked(count, want):
        evaluated = []

        def counting(c):
            evaluated.append(c)
            return count(c)

        got = calibrate(counting, want)
        seen.append((got, bisection_200_rounds(count, want), len(evaluated)))
        return got

    monkeypatch.setattr(synthgen, "_calibrate_intercept", checked)
    _, truth = synthgen.generate(spec)
    [(got, reference, evaluations)] = seen
    assert got == reference == truth.intercept
    assert evaluations < 100  # 2 feasibility checks + the rounds until a fixed point



class TestStorage:
    def test_discrete_columns_are_the_int8_arrays_generate_built(self, monkeypatch):
        built = {}
        table_class = synthgen.DataTable

        def recording(schema, columns):
            built.update(columns)
            return table_class(schema, columns)

        monkeypatch.setattr(synthgen, "DataTable", recording)
        table, _ = synthgen.generate(SPECS[1])
        kinds = {spec.kind for spec in table.schema.columns}
        assert kinds == set(ColumnKind)
        for spec in table.schema.columns:
            if spec.kind is ColumnKind.CONTINUOUS:
                assert table.column(spec.name) is built[spec.name]
                continue
            codes = table.codes(spec.name)
            assert codes is built[spec.name]
            assert codes.dtype == np.int8
            assert codes.nbytes == table.n_records
        # gaps are injected as the code -1
        likelihood = [s.name for s in table.schema.columns if s.kind is ColumnKind.LIKELIHOOD]
        assert all((table.codes(name) == -1).any() for name in likelihood)


class TestOracleMetrics:
    SPEC = SyntheticSpec(
        n_signal=300, n_background=2700, n_informative=8, n_noise=4,
        kind_mix={"binary": 0.25, "categorical": 0.25, "likelihood": 0.25, "continuous": 0.25},
        seed=8,
    )

    def test_prevalence_matches_the_planted_intercept(self):
        table, truth = synthgen.generate(self.SPEC)
        scores = synthgen.oracle_metrics(truth, table)
        np.testing.assert_array_equal(scores.y, table.target_values)
        # The outcome was drawn from these probabilities, with the intercept
        # calibrated so the draw hits n_signal: their mean is the prevalence
        # up to the binomial noise of the draw.
        noise = np.sqrt(np.sum(scores.p * (1.0 - scores.p))) / table.n_records
        assert truth.prevalence == self.SPEC.target_prevalence
        assert abs(scores.p.mean() - truth.prevalence) < 4.0 * noise

    def test_a_gap_contributes_zero_to_the_latent_score(self):
        table, truth = synthgen.generate(self.SPEC)
        kinds = {v: table.schema.column(v).kind for v in truth.planted}
        assert ColumnKind.CATEGORICAL in kinds.values()
        numeric = [v for v, kind in kinds.items() if kind is not ColumnKind.CATEGORICAL]
        assert numeric

        # a gap scores as the planted column's standardization mean
        rng = np.random.default_rng(0)
        gappy, at_mean = {}, {}
        for name in numeric:
            gap = rng.random(table.n_records) < 0.3
            values = table.column(name)
            gappy[name] = np.where(gap, np.nan, values)
            at_mean[name] = np.where(gap, truth.standardization[name][0], values)
        p_gappy = synthgen.oracle_metrics(truth, table.replace_columns(gappy)).p
        assert not np.array_equal(p_gappy, synthgen.oracle_metrics(truth, table).p)
        # a mean is no binary or likelihood value: those columns read it as continuous
        as_continuous = tuple(ColumnSpec(name, ColumnKind.CONTINUOUS) for name in numeric)
        np.testing.assert_array_equal(
            p_gappy,
            synthgen.oracle_metrics(truth, table.replace_columns(at_mean, as_continuous)).p,
        )

        # with every planted cell a gap, each record scores the intercept alone
        n = table.n_records
        all_gaps = {
            v: np.full(n, -1) if kind is ColumnKind.CATEGORICAL else np.full(n, np.nan)
            for v, kind in kinds.items()
        }
        p = synthgen.oracle_metrics(truth, table.replace_columns(all_gaps)).p
        np.testing.assert_array_equal(p, np.full(n, _sigmoid(np.array([truth.intercept]))[0]))


KIND_MIX = {"binary": 0.5, "continuous": 0.5}


def spec_with(**fields):
    base = dict(n_signal=10, n_background=30, n_informative=1, n_noise=3, kind_mix=KIND_MIX)
    return SyntheticSpec(**(base | fields))


def accepted(**fields) -> bool:
    try:
        spec_with(**fields)
    except ValidationError:
        return False
    return True


class TestSpecBounds:
    @given(st.integers(-5, 5), st.integers(-5, 5))
    def test_record_counts_at_least_one(self, n_signal, n_background):
        assert accepted(n_signal=n_signal, n_background=n_background) == (
            n_signal >= 1 and n_background >= 1
        )

    @given(st.integers(-3, 3), st.integers(-3, 3))
    def test_predictor_counts_non_negative_with_one_in_all(self, n_informative, n_noise):
        assert accepted(n_informative=n_informative, n_noise=n_noise) == (
            n_informative >= 0 and n_noise >= 0 and n_informative + n_noise >= 1
        )

    @given(st.dictionaries(st.sampled_from(synthgen.KINDS + ("ordinal",)), st.floats(-1.0, 2.0)))
    def test_kind_mix_fractions(self, mix):
        valid = (
            set(mix) <= set(synthgen.KINDS)
            and all(v >= 0 for v in mix.values())
            and abs(sum(mix.values()) - 1.0) <= 1e-9
        )
        assert accepted(kind_mix=mix) == valid

    @given(st.floats(-1.0, 3.0, allow_nan=False), st.floats(-1.0, 3.0, allow_nan=False))
    def test_beta_range_positive_and_ordered(self, low, high):
        assert accepted(beta_range=(low, high)) == (0.0 < low <= high)

    @given(st.floats(-1.0, 1.5, allow_nan=False))
    def test_missing_rate_at_most_half(self, rate):
        assert accepted(missing_rate=rate) == (0.0 <= rate <= 0.5)

    @given(st.integers(-3, 3), st.floats(-1.5, 1.5, allow_nan=False))
    def test_correlated_pairs(self, pairs, r):
        assert accepted(n_correlated_pairs=pairs, correlated_r=r) == (pairs >= 0 and -1.0 < r < 1.0)

    @given(st.integers(1, 50), st.integers(1, 50), st.floats(0.0, 0.5), st.integers(0, 2**32))
    def test_valid_specs_round_trip(self, n_signal, n_background, rate, seed):
        spec = spec_with(n_signal=n_signal, n_background=n_background, missing_rate=rate, seed=seed)
        assert SyntheticSpec.from_dict(asdict(spec)) == spec
        assert spec.n_records == n_signal + n_background
