import re
from dataclasses import asdict, replace

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


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("n_levels", range(3, len(synthgen.CATEGORY_LABELS) + 1))
@pytest.mark.parametrize("n", [1, 17, 4000])
def test_choice_codes_are_the_codes_choice_draws(seed, n_levels, n):
    probs = np.random.default_rng([seed, n_levels]).dirichlet(np.full(n_levels, 2.0))
    chosen = np.random.default_rng(seed).choice(n_levels, size=n, p=probs)
    codes = synthgen._choice_codes(np.random.default_rng(seed).random(n), probs)
    assert codes.dtype == np.int8
    np.testing.assert_array_equal(codes, chosen)


@pytest.fixture
def no_records(monkeypatch):
    """The records stream fails on its first draw; the structure stream,
    seeded ``[seed, 0]``, draws as usual."""
    default_rng = np.random.default_rng

    class Undrawable:
        def __getattr__(self, name):
            raise AssertionError(f"a record was drawn: {name}")

    def rng(seed):
        return default_rng(seed) if seed.entropy[1] == 0 else Undrawable()

    monkeypatch.setattr(np.random, "default_rng", rng)


def test_too_few_noise_columns_for_the_pairs_fail_before_any_record(no_records):
    spec = spec_with(n_informative=1, n_noise=2, n_correlated_pairs=2, kind_mix={"continuous": 1.0})
    message = "2 correlated pairs need 4 continuous noise columns, have 2"
    with pytest.raises(ValidationError, match=f"^{message}$"):
        synthgen.generate(spec)


# Every kind, gaps and correlated pairs: 4 of the 8 continuous columns
# are noise whatever is planted, enough for two pairs.
PAIRED_SPEC = SyntheticSpec(
    n_signal=60, n_background=340, n_informative=4, n_noise=16,
    kind_mix={"binary": 0.2, "categorical": 0.2, "likelihood": 0.2, "continuous": 0.4},
    missing_rate=0.05, n_correlated_pairs=2,
)


def assert_same_table(a, b):
    assert a.schema == b.schema
    for name in a.schema.names:
        x, y = a._columns[name], b._columns[name]
        assert (x.dtype, x.tobytes()) == (y.dtype, y.tobytes())


class TestScreenedColumns:
    @given(st.integers(0, 2**16), st.sampled_from([0, 1]), st.floats(0.01, 0.5), st.data())
    def test_a_screened_draw_is_the_full_draw_cut(self, seed, index, rate, data):
        spec = replace(PAIRED_SPEC, seed=seed, missing_rate=rate)
        full, truth = synthgen.generate(spec, index)
        names = data.draw(st.lists(st.sampled_from(full.schema.names), unique=True))
        cut, cut_truth = synthgen.generate(spec, index, columns=names)
        assert_same_table(cut, full.select_columns(names))
        assert cut_truth == truth

    @pytest.mark.parametrize("index", [0, 1])
    def test_no_columns_leave_the_target(self, index):
        full, truth = synthgen.generate(SPECS[1], index)
        cut, cut_truth = synthgen.generate(SPECS[1], index, columns=[])
        assert cut.schema.names == [synthgen.TARGET_NAME]
        assert_same_table(cut, full.select_columns([]))
        assert cut_truth == truth

    def test_an_unknown_name_fails_before_any_record(self, no_records):
        with pytest.raises(ValidationError, match="^no column named 'bin_999' in schema$"):
            synthgen.generate(SPECS[1], 1, columns=["bin_000", "bin_999"])

    @pytest.mark.parametrize("n", [1, 7, 400, 10_000])
    @pytest.mark.parametrize("seed", [0, 69000])
    def test_skipping_uniforms_leaves_the_stream_where_drawing_them_does(self, seed, n):
        """A column left out skips its uniforms with ``advance``: that holds
        only while each float64 uniform takes one output of the generator."""
        drawn, skipped = (
            np.random.default_rng(np.random.SeedSequence([seed, 2])) for _ in range(2)
        )
        drawn.standard_normal(3)
        skipped.standard_normal(3)
        drawn.random(n)
        skipped.bit_generator.advance(n)
        assert drawn.bit_generator.state == skipped.bit_generator.state
        assert drawn.random() == skipped.random()


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


@pytest.mark.parametrize("index", [-1, 1.5, True, "1"])
def test_sample_index_must_be_a_whole_number(index):
    message = f"sample_index must be a whole number >= 0, got {index!r}"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        synthgen.generate(SPECS[1], index)


def test_whole_sample_indices_draw_their_own_samples():
    first, second, again = (synthgen.generate(SPECS[1], i)[0] for i in (0, 1, np.int64(1)))
    assert first.schema == second.schema == again.schema

    def same(a, b):
        return all(
            np.array_equal(a.numeric_view(v), b.numeric_view(v), equal_nan=True)
            for v in a.schema.names
        )

    assert same(second, again) and not same(first, second)


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
