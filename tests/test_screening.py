import re

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from screenfit.errors import ComputationError, ValidationError
from screenfit.logit import chi2_sf
from screenfit import screening
from screenfit.screening import (
    StagePlan,
    _T_BLOCK,
    _pearson_2x2,
    apply_level_mapping,
    chi_square_binary,
    discrete_levels,
    merge_levels,
    occupancy_filter,
    run_screening,
    t_test_multivalued,
    woe_iv,
)
from screenfit.synthgen import SyntheticSpec, generate
from screenfit.table import ColumnKind

from conftest import COLUMN_OF_KIND, make_table


def binary_table(x, y):
    return make_table(
        {"x": x, "y": y},
        {"x": ColumnKind.BINARY, "y": ColumnKind.BINARY},
    )


def from_contingency(n00, n01, n10, n11):
    """x=0/y=0 count, x=0/y=1, x=1/y=0, x=1/y=1."""
    x = [0] * (n00 + n01) + [1] * (n10 + n11)
    y = [0] * n00 + [1] * n01 + [0] * n10 + [1] * n11
    return binary_table(x, y)


class TestChiSquare:
    def test_perfect_independence(self):
        t = from_contingency(15, 15, 15, 15)
        res = chi_square_binary(t, "x")
        assert res.statistic == pytest.approx(0.0, abs=1e-12)
        assert res.p_value == pytest.approx(1.0)
        assert res.df == 1

    def test_hand_computed_case(self):
        # expected counts are all 15; sum of (O-E)^2/E = 4 * 25/15
        t = from_contingency(10, 20, 20, 10)
        res = chi_square_binary(t, "x")
        assert res.statistic == pytest.approx(100.0 / 15.0, rel=1e-12)
        assert res.df == 1

    def test_matches_scipy_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.integers(0, 2, 60)
            y = rng.integers(0, 2, 60)
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            t = binary_table(x, y)
            res = chi_square_binary(t, "x")
            obs = np.array([[np.sum((x == i) & (y == j)) for j in (0, 1)] for i in (0, 1)])
            ref = stats.chi2_contingency(obs, correction=False)
            assert res.statistic == pytest.approx(ref.statistic, rel=1e-10)
            assert res.p_value == pytest.approx(ref.pvalue, rel=1e-10)

    def test_constant_variable_degenerate(self):
        """A one-level flag has an empty margin: it scores 0, with p 1."""
        res = chi_square_binary(binary_table([0, 0, 0, 0], [0, 1, 0, 1]), "x")
        assert (res.statistic, res.df, res.p_value) == (0.0, 1, 1.0)

    def test_constant_target_errors(self):
        with pytest.raises(ComputationError, match="^target is constant"):
            chi_square_binary(binary_table([0, 1, 0, 1], [1, 1, 1, 1]), "x")

    def test_symmetry_under_label_swaps(self):
        t = from_contingency(5, 9, 12, 4)
        base = chi_square_binary(t, "x").statistic
        flipped_x = binary_table(1 - t.column("x").astype(int), t.column("y").astype(int))
        flipped_y = binary_table(t.column("x").astype(int), 1 - t.column("y").astype(int))
        assert chi_square_binary(flipped_x, "x").statistic == pytest.approx(base)
        assert chi_square_binary(flipped_y, "x").statistic == pytest.approx(base)


def numeric_table(g0, g1, kind=ColumnKind.CONTINUOUS):
    return make_table(
        {"x": list(g0) + list(g1), "y": [0] * len(g0) + [1] * len(g1)},
        {"x": kind, "y": ColumnKind.BINARY},
    )


class TestTTest:
    def test_identical_groups(self):
        res = t_test_multivalued(numeric_table([1, 2, 3], [1, 2, 3]), "x")
        assert res.t_statistic == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_case(self):
        res = t_test_multivalued(numeric_table([1, 2, 3], [4, 5, 6]), "x")
        assert res.t_statistic == pytest.approx(3.0 / np.sqrt(2.0 / 3.0), rel=1e-12)
        assert res.df == 4

    def test_single_value_group(self):
        with pytest.raises(ValidationError):
            t_test_multivalued(numeric_table([1, 2, 3], [4]), "x")

    def test_zero_variance_unequal_means(self):
        with pytest.raises(ComputationError, match="infinite"):
            t_test_multivalued(numeric_table([2, 2, 2], [5, 5, 5]), "x")

    def test_constant_column_has_zero_t(self):
        res = t_test_multivalued(numeric_table([4, 4, 4], [4, 4]), "x")
        assert (res.t_statistic, res.df) == (0.0, 3)

    def test_sign_flips_with_target(self):
        t = numeric_table([1, 2, 3], [4, 5, 7])
        res = t_test_multivalued(t, "x")
        swapped = numeric_table([4, 5, 7], [1, 2, 3])
        res2 = t_test_multivalued(swapped, "x")
        assert res2.t_statistic == pytest.approx(-res.t_statistic)
        assert abs(res2.t_statistic) == pytest.approx(abs(res.t_statistic))

    def test_matches_scipy_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            g0 = rng.normal(0, 1, rng.integers(3, 30))
            g1 = rng.normal(0.4, 1.3, rng.integers(3, 30))
            res = t_test_multivalued(numeric_table(g0, g1), "x")
            ref = stats.ttest_ind(g1, g0, equal_var=True)
            assert res.t_statistic == pytest.approx(ref.statistic, rel=1e-10)
            assert res.df == len(g0) + len(g1) - 2


class TestWoeIv:
    def test_independent_variable_iv_zero(self):
        t = make_table(
            {"c": ["a", "b"] * 10, "y": [0, 0, 1, 1] * 5},
            {"c": ColumnKind.CATEGORICAL, "y": ColumnKind.BINARY},
        )
        res = woe_iv(t, "c", smoothing=0.0)
        assert res.total_iv == pytest.approx(0.0, abs=1e-12)
        assert all(r.woe == pytest.approx(0.0, abs=1e-12) for r in res.levels)

    def test_hand_computed_contribution(self):
        # level "a": 2 of 10 signal (share .2), 1 of 10 background (share .1)
        c = ["a"] * 2 + ["b"] * 8 + ["a"] * 1 + ["b"] * 9
        y = [1] * 10 + [0] * 10
        t = make_table(
            {"c": c, "y": y},
            {"c": ColumnKind.CATEGORICAL, "y": ColumnKind.BINARY},
        )
        res = woe_iv(t, "c", smoothing=0.0)
        row_a = next(r for r in res.levels if r.level == "a")
        assert row_a.signal_share == pytest.approx(0.2)
        assert row_a.background_share == pytest.approx(0.1)
        assert row_a.woe == pytest.approx(np.log(2.0))
        assert row_a.iv_contribution == pytest.approx(0.1 * np.log(2.0))

    def test_shares_sum_to_one_with_smoothing(self):
        rng = np.random.default_rng(2)
        c = rng.choice(list("abcd"), 200).tolist()
        y = rng.integers(0, 2, 200).tolist()
        t = make_table(
            {"c": c, "y": y},
            {"c": ColumnKind.CATEGORICAL, "y": ColumnKind.BINARY},
        )
        res = woe_iv(t, "c", smoothing=0.5)
        assert sum(r.signal_share for r in res.levels) == pytest.approx(1.0)
        assert sum(r.background_share for r in res.levels) == pytest.approx(1.0)
        assert res.total_iv >= 0.0

    def test_relabel_invariance(self):
        rng = np.random.default_rng(3)
        c = rng.choice(list("abc"), 120).tolist()
        y = (rng.random(120) < 0.4).astype(int).tolist()
        relabel = {"a": "z", "b": "q", "c": "m"}
        t1 = make_table({"c": c, "y": y}, {"c": ColumnKind.CATEGORICAL, "y": ColumnKind.BINARY})
        t2 = make_table(
            {"c": [relabel[v] for v in c], "y": y},
            {"c": ColumnKind.CATEGORICAL, "y": ColumnKind.BINARY},
        )
        assert woe_iv(t1, "c").total_iv == pytest.approx(woe_iv(t2, "c").total_iv)

    def test_single_level_iv_zero(self):
        t = make_table(
            {"c": ["a"] * 10, "y": [0, 1] * 5},
            {"c": ColumnKind.CATEGORICAL, "y": ColumnKind.BINARY},
            levels={"c": ("a", "b")},
        )
        assert woe_iv(t, "c").total_iv == pytest.approx(0.0)

    def test_constant_target_errors(self):
        t = make_table(
            {"c": ["a", "b"], "y": [1, 1]},
            {"c": ColumnKind.CATEGORICAL, "y": ColumnKind.BINARY},
        )
        with pytest.raises(ComputationError):
            woe_iv(t, "c")

    def test_empty_cell_without_smoothing_errors(self):
        t = from_contingency(5, 5, 0, 5)
        with pytest.raises(
            ComputationError, match="^'x': empty level with smoothing off; WoE is undefined$"
        ):
            woe_iv(t, "x", smoothing=0.0)

    def test_likelihood_binned_to_seven(self):
        rng = np.random.default_rng(4)
        vals = rng.integers(1, 100, 500).astype(float).tolist()
        y = rng.integers(0, 2, 500).tolist()
        t = make_table(
            {"x": vals, "y": y},
            {"x": ColumnKind.LIKELIHOOD, "y": ColumnKind.BINARY},
        )
        res = woe_iv(t, "x")
        assert len(res.levels) <= 7


class TestOccupancy:
    def table(self, ones, zeros):
        n = ones + zeros
        return make_table(
            {"x": [1] * ones + [0] * zeros, "y": [0, 1] * (n // 2) + [0] * (n % 2)},
            {"x": ColumnKind.BINARY, "y": ColumnKind.BINARY},
        )

    def test_low_occupancy_dropped(self):
        assert occupancy_filter(self.table(5, 95), ["x"], 0.10) == []

    def test_boundary_retained(self):
        assert occupancy_filter(self.table(10, 90), ["x"], 0.10) == ["x"]

    def test_all_ones_retained(self):
        assert occupancy_filter(self.table(10, 0), ["x"], 0.10) == ["x"]

    def test_non_binary_rejected(self):
        t = make_table(
            {"x": [1.5, 2.5], "y": [0, 1]},
            {"x": ColumnKind.CONTINUOUS, "y": ColumnKind.BINARY},
        )
        with pytest.raises(ValidationError):
            occupancy_filter(t, ["x"], 0.10)


def categorical_table(level_counts: dict[str, tuple[int, int]]):
    """level -> (positives, negatives)."""
    c, y = [], []
    for level, (pos, neg) in level_counts.items():
        c += [level] * (pos + neg)
        y += [1] * pos + [0] * neg
    return make_table(
        {"c": c, "y": y},
        {"c": ColumnKind.CATEGORICAL, "y": ColumnKind.BINARY},
        levels={"c": tuple(sorted(level_counts))},
    )


class TestMergeLevels:
    def test_identical_rates_merge(self):
        t = categorical_table({"a": (10, 90), "b": (10, 90)})
        mapping = merge_levels(t, "c", alpha=0.05)
        assert len(set(mapping.values())) == 1
        assert mapping == {"a": "a", "b": "a"}

    def test_three_level_case_with_chi2_oracle(self):
        t = categorical_table({"a": (100, 900), "b": (110, 890), "c": (500, 500)})
        # independent oracle: pairwise 2x2 chi-square on the counts
        pair_ab = np.array([[900, 100], [890, 110]])
        assert stats.chi2_contingency(pair_ab, correction=False).pvalue > 0.05
        merged_ab_vs_c = np.array([[1790, 210], [500, 500]])
        assert stats.chi2_contingency(merged_ab_vs_c, correction=False).pvalue < 0.05
        mapping = merge_levels(t, "c", alpha=0.05)
        assert mapping == {"a": "a", "b": "a", "c": "c"}

    def test_single_level_identity(self):
        t = make_table(
            {"c": ["a"] * 6, "y": [0, 1] * 3},
            {"c": ColumnKind.CATEGORICAL, "y": ColumnKind.BINARY},
            levels={"c": ("a", "b")},
        )
        mapping = merge_levels(t, "c", alpha=0.05)
        assert mapping == {"a": "a", "b": "b"}

    def test_alpha_zero_is_noop(self):
        t = categorical_table({"a": (10, 90), "b": (10, 90), "c": (11, 89)})
        mapping = merge_levels(t, "c", alpha=0.0)
        assert mapping == {lvl: lvl for lvl in "abc"}

    @given(
        counts=st.dictionaries(
            st.sampled_from(list("abcde")),
            st.tuples(st.integers(1, 30), st.integers(1, 30)),
            min_size=2,
            max_size=5,
        ),
        alpha=st.sampled_from([0.0, 0.01, 0.05, 0.2]),
    )
    def test_never_increases_levels(self, counts, alpha):
        t = categorical_table(counts)
        mapping = merge_levels(t, "c", alpha=alpha)
        assert len(set(mapping.values())) <= len(counts)
        assert set(mapping) == set(counts)

    def test_apply_mapping_rewrites_column(self):
        t = categorical_table({"a": (10, 90), "b": (10, 90), "c": (500, 500)})
        mapping = merge_levels(t, "c", alpha=0.05)
        out = apply_level_mapping(t, {"c": mapping})
        assert set(out.schema.column("c").levels) == {"a", "c"}
        assert "b" not in set(out.column("c"))

    def test_declared_level_without_an_entry_is_kept(self):
        t = categorical_table({"a": (10, 90), "b": (10, 90), "c": (500, 500)})
        out = apply_level_mapping(t, {"c": {"a": "a", "b": "a"}})
        assert out.schema.column("c").levels == ("a", "c")
        assert out.column("c").tolist() == ["a"] * 200 + ["c"] * 1000

    def test_mapping_onto_one_level_errors(self):
        # A model file can carry such a mapping; merge_levels never makes one.
        t = categorical_table({"a": (10, 90), "b": (50, 50)})
        with pytest.raises(
            ComputationError, match="^'c': merging collapsed the column to a single level$"
        ):
            apply_level_mapping(t, {"c": {"a": "a", "b": "a"}})

    def test_applying_a_merge_twice_changes_nothing(self):
        t = categorical_table({"a": (10, 90), "b": (10, 90), "c": (500, 500)})
        mappings = {"c": merge_levels(t, "c", alpha=0.05)}
        once = apply_level_mapping(t, mappings)
        twice = apply_level_mapping(once, mappings)
        assert twice.schema == once.schema
        np.testing.assert_array_equal(twice.codes("c"), once.codes("c"))


def collapsing_table():
    """x and w carry the signal; c's two levels have near-equal target
    rates, so it passes the IV band and then merges to a single level."""
    rng = np.random.default_rng(0)
    n = 400
    y = (np.arange(n) % 4 == 0).astype(int)
    x = y + rng.normal(0, 1, n)
    c = np.full(n, "b", dtype=object)
    c[np.flatnonzero(y == 1)[:52]] = "a"
    c[np.flatnonzero(y == 0)[:148]] = "a"
    columns = {
        "x": x,
        "w": x + rng.normal(0, 0.3, n),
        "z": rng.normal(0, 1, n),
        "c": c,
        "b1": np.where(rng.random(n) < 0.1, 1 - y, y),
        "b2": (rng.random(n) < 0.5).astype(int),
        "y": y,
    }
    kinds = dict.fromkeys(("x", "w", "z"), ColumnKind.CONTINUOUS)
    kinds |= {"c": ColumnKind.CATEGORICAL} | dict.fromkeys(("b1", "b2", "y"), ColumnKind.BINARY)
    return make_table(columns, kinds)


class TestCollapsedCategorical:
    def test_dropped_variable_keeps_no_mapping(self):
        table = collapsing_table()
        plan = StagePlan(retain_after_chi2=5, retain_after_t=4, retain_after_iv=3,
                         final_retain=2, iv_min=1e-6)
        report = run_screening(table, plan)
        assert "c" in report.stages[-2][1]
        assert "c" not in report.final_variables
        assert any(w.startswith("c: level merging collapsed") for w in report.warnings)
        assert "c" not in report.level_mappings
        out = apply_level_mapping(table, report.level_mappings)
        assert out.schema == table.schema


def twin_pairs_table():
    """Two exact pairs, a = a2 and b = -b2, that carry the signal, plus a
    noise continuous and two noise binaries: the four pair members are
    all that reach the cluster stage, and they split into two clusters."""
    rng = np.random.default_rng(0)
    n = 400
    a = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    b = np.where(np.arange(n) // 2 % 2 == 0, 1.0, -1.0)
    columns = {
        "a": a,
        "a2": a,
        "b": b,
        "b2": -b,
        "c": rng.normal(0, 1, n),
        "f": rng.integers(0, 2, n),
        "g": rng.integers(0, 2, n),
        "y": (rng.random(n) < 1 / (1 + np.exp(-(a + b)))).astype(int),
    }
    kinds = dict.fromkeys(("a", "a2", "b", "b2", "c"), ColumnKind.CONTINUOUS)
    kinds |= dict.fromkeys(("f", "g", "y"), ColumnKind.BINARY)
    return make_table(columns, kinds)


class TestFewerClustersThanPlanned:
    def test_warns_with_both_counts(self):
        plan = StagePlan(retain_after_chi2=6, retain_after_t=5, retain_after_iv=4,
                         final_retain=3)
        report = run_screening(twin_pairs_table(), plan)
        assert report.stages[-2][1] == ["a", "a2", "b", "b2"]
        assert len(report.cluster_selection.clusters) == 2
        assert report.final_variables == ["a", "b"]
        assert report.warnings == [
            "clustering stage: plan wants 3 clusters but the variables split into only 2"
        ]


def stop_table(n_flags, n_continuous=0, n_likelihood=0, sparse=False):
    """400 rows, half of them signal: flags that track the target (or,
    sparse, ones in 30 % of signal rows and 10 % of the rest), noise
    likelihood columns, and continuous columns shifted by the target."""
    rng = np.random.default_rng(0)
    n = 400
    y = np.arange(n) % 2
    columns, kinds = {}, {}
    for i in range(n_flags):
        if sparse:
            flag = rng.random(n) < np.where(y == 1, 0.3, 0.1)
        else:
            flag = np.where(rng.random(n) < 0.2 + 0.05 * i, 1 - y, y)
        columns[f"f{i}"], kinds[f"f{i}"] = flag.astype(int), ColumnKind.BINARY
    for i in range(n_likelihood):
        columns[f"l{i}"], kinds[f"l{i}"] = rng.integers(1, 100, n), ColumnKind.LIKELIHOOD
    for i in range(n_continuous):
        columns[f"x{i}"], kinds[f"x{i}"] = y + rng.normal(0, 1, n), ColumnKind.CONTINUOUS
    columns["y"], kinds["y"] = y, ColumnKind.BINARY
    return make_table(columns, kinds)


class TestScreeningStops:
    """Each plan that leaves a stage nothing to keep or too little to cut
    stops the cascade with its own message."""

    @pytest.mark.parametrize(
        "table_args, counts, options, error, message",
        [
            pytest.param(
                (2, 6), (5, 4, 3, 2), {}, ValidationError,
                "chi-square stage: plan needs 3 variables dropped but only 2 are eligible",
                id="too_few_eligible",
            ),
            pytest.param(
                (6, 0, 1), (6, 5, 2, 1), {"iv_min": 5, "iv_max": 10}, ComputationError,
                "IV stage retained no variables",
                id="iv_band_empty",
            ),
            pytest.param(
                (6, 1, 1), (7, 6, 3, 2), {"iv_min": 5, "iv_max": 10}, ValidationError,
                "clustering stage: plan wants 2 clusters but only 1 variables remain",
                id="fewer_variables_than_clusters",
            ),
            pytest.param(
                (5, 1, 0, True), (5, 4, 3, 1), {"occupancy_min": 0.5}, ComputationError,
                "final screening stage retained no variables",
                id="occupancy_drops_every_representative",
            ),
        ],
    )
    def test_plan_stops(self, table_args, counts, options, error, message):
        plan = StagePlan(*counts, **options)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            run_screening(stop_table(*table_args), plan)


class TestStagePlan:
    def test_counts_must_strictly_decrease(self):
        with pytest.raises(ValidationError, match="decrease"):
            StagePlan(retain_after_chi2=10, retain_after_t=10, retain_after_iv=5, final_retain=2)

    def test_iv_bounds_ordering(self):
        with pytest.raises(ValidationError, match="iv"):
            StagePlan(retain_after_chi2=10, retain_after_t=8, retain_after_iv=5,
                      final_retain=2, iv_min=0.5, iv_max=0.3)

    def test_desk_scale_plan_is_valid(self):
        StagePlan(retain_after_chi2=100, retain_after_t=60, retain_after_iv=30, final_retain=10)

    def test_paper_scale_plan_is_valid(self):
        StagePlan(retain_after_chi2=500, retain_after_t=300, retain_after_iv=150, final_retain=50)


SCREENED_SPEC = SyntheticSpec(
    n_signal=900, n_background=1500, n_informative=8, n_noise=42,
    kind_mix={"binary": 0.5, "categorical": 0.1, "likelihood": 0.25, "continuous": 0.15},
    beta_range=(0.5, 1.5), missing_rate=0.0, seed=11,
)
SCREENED_PLAN = StagePlan(retain_after_chi2=40, retain_after_t=30, retain_after_iv=20,
                          final_retain=12, iv_min=1e-4, iv_max=10.0)


@pytest.fixture(scope="module")
def screened():
    table, truth = generate(SCREENED_SPEC)
    return run_screening(table, SCREENED_PLAN), table


class TestRunScreening:
    def test_stage_sets_nested(self, screened):
        report, _ = screened
        stages = report.stages
        for (_, prev), (_, cur) in zip(stages, stages[1:]):
            assert set(cur) <= set(prev)

    def test_stage_counts_follow_plan(self, screened):
        report, _ = screened
        counts = [len(vs) for _, vs in report.stages]
        assert counts[0] == 50
        assert counts[1] == 40
        assert counts[2] == 30
        assert counts[3] <= 20
        assert counts[4] <= 12
        assert all(a > b for a, b in zip(counts, counts[1:]))

    def test_cluster_stage_makes_final_retain_clusters(self, screened):
        report, _ = screened
        selection = report.cluster_selection
        assert len(selection.clusters) == 12
        assert len(selection.representatives()) == 12

    def test_report_is_ordered_by_schema(self, screened):
        report, table = screened
        order = {n: i for i, n in enumerate(table.schema.names)}
        for _, vs in report.stages:
            assert vs == sorted(vs, key=order.__getitem__)

    def test_plan_larger_than_input_errors(self, screened):
        _, table = screened
        plan = StagePlan(retain_after_chi2=500, retain_after_t=300,
                         retain_after_iv=150, final_retain=50)
        with pytest.raises(ValidationError):
            run_screening(table, plan)


# Each screening step that takes only some column kinds, with the kinds
# it takes as its refusal prints them.
KIND_GUARDS = {
    "discrete_levels": (discrete_levels, "categorical, binary or likelihood"),
    "woe_iv": (woe_iv, "categorical, binary or likelihood"),
    "chi_square_binary": (chi_square_binary, "binary"),
    "t_test_multivalued": (t_test_multivalued, "continuous or likelihood"),
    "occupancy_filter": (lambda table, v: occupancy_filter(table, [v], 0.1), "binary"),
    "merge_levels": (merge_levels, "categorical"),
    "apply_level_mapping": (
        lambda table, v: apply_level_mapping(table, {v: {}}), "categorical"
    ),
}


@pytest.mark.parametrize(
    "guard, kind",
    [
        (guard, kind)
        for guard, (_, wanted) in KIND_GUARDS.items()
        for kind in ColumnKind
        if kind.value not in wanted.replace(" or ", ", ").split(", ")
    ],
)
def test_step_refuses_a_column_of_another_kind(binary_target_table, guard, kind):
    step, wanted = KIND_GUARDS[guard]
    name = COLUMN_OF_KIND[kind]
    message = f"column {name!r} is {kind.value}, not {wanted}"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        step(binary_target_table, name)


# A predictor of each kind, in schema order the reverse of the stage that
# first reads it: the categorical in the IV stage, the multivalued columns
# in the t stage and the flag in the chi-square stage.
GAP_COLUMNS = {
    "group": (ColumnKind.CATEGORICAL, ["a", "b", "a", "b", "a", "b", "a", "b"]),
    "amount": (ColumnKind.CONTINUOUS, [1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5, 8.5]),
    "level": (ColumnKind.LIKELIHOOD, [10, 20, 30, 40, 50, 60, 70, 80]),
    "flag": (ColumnKind.BINARY, [0, 1, 1, 0, 1, 0, 1, 1]),
}


def run_screening_of(table, _variable):
    """The whole cascade, under a plan that cuts no column before it is read."""
    return run_screening(table, StagePlan(4, 3, 2, 1))


@pytest.mark.parametrize("gap_rows", [{3}, set(range(8))], ids=["one_gap", "all_missing"])
@pytest.mark.parametrize(
    "step, gappy, first",
    [
        pytest.param(chi_square_binary, ("flag",), "flag", id="chi_square_binary"),
        pytest.param(woe_iv, ("flag",), "flag", id="woe_iv_binary"),
        pytest.param(woe_iv, ("level",), "level", id="woe_iv_likelihood"),
        pytest.param(woe_iv, ("group",), "group", id="woe_iv_categorical"),
        pytest.param(
            lambda table, v: occupancy_filter(table, [v], 0.1), ("flag",), "flag",
            id="occupancy_filter",
        ),
        pytest.param(merge_levels, ("group",), "group", id="merge_levels"),
        pytest.param(t_test_multivalued, ("level",), "level", id="t_test_likelihood"),
        pytest.param(t_test_multivalued, ("amount",), "amount", id="t_test_continuous"),
        pytest.param(
            run_screening_of, ("group", "amount", "level", "flag"), "flag",
            id="run_screening_flag_first",
        ),
        pytest.param(
            run_screening_of, ("group", "amount", "level"), "amount",
            id="run_screening_t_stage_in_schema_order",
        ),
        pytest.param(
            run_screening_of, ("group", "level"), "level", id="run_screening_likelihood"
        ),
        pytest.param(
            run_screening_of, ("group",), "group", id="run_screening_categorical_last"
        ),
    ],
)
def test_screening_refuses_a_gap(step, gappy, first, gap_rows):
    """Screening takes an imputed table: every entry refuses a gap in a
    column it reads, and the cascade names the first gappy predictor in
    stage order, not in schema order."""
    columns = {
        name: [None if name in gappy and i in gap_rows else v for i, v in enumerate(values)]
        for name, (_, values) in GAP_COLUMNS.items()
    }
    kinds = {name: kind for name, (kind, _) in GAP_COLUMNS.items()}
    table = make_table(
        columns | {"y": [0, 1] * 4}, kinds | {"y": ColumnKind.BINARY},
        levels={"group": ("a", "b")},
    )
    message = f"variable {first!r} has missing values; impute first"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        step(table, first)


# ---------------------------------------------------------------------------
# The loop versions of chi-square and level merging, kept as reference
# oracles: the count table must give the same floats and the same merges.


def pearson_2x2_loop(obs):
    col, row = obs.sum(axis=0), obs.sum(axis=1)
    if (col == 0).any() or (row == 0).any():
        return 0.0
    expected = np.outer(row, col) / obs.sum()
    return float(((obs - expected) ** 2 / expected).sum())


def chi_square_binary_loop(table, variable):
    """The 2x2 table of a binary column's codes by one bincount of 2x + y."""
    cell = 2 * table.codes(variable) + table.target_values
    statistic = pearson_2x2_loop(np.bincount(cell, minlength=4).reshape(2, 2).astype(float))
    return statistic, chi2_sf(statistic, 1)


LIKELIHOOD_BIN_LABELS = ["[1,15)", "[15,29)", "[29,43)", "[43,57)", "[57,71)", "[71,85)", "[85,99]"]


def discrete_levels_loop(table, variable):
    """Labels and row index through per-kind lookups, the occupied labels
    found by a bincount of the non-missing rows and every row remapped."""
    spec = table.schema.column(variable)
    if spec.kind is ColumnKind.CATEGORICAL:
        labels = sorted(spec.levels)
        label_of_code = np.array([labels.index(lvl) for lvl in spec.levels] + [-1])
    elif spec.kind is ColumnKind.BINARY:
        labels, label_of_code = ["0", "1"], np.array([0, 1, -1])
    else:
        labels = LIKELIHOOD_BIN_LABELS
        label_of_code = np.array([min(max(c - 1, 0) // 14, 6) for c in range(100)] + [-1])
    raw = label_of_code[table.codes(variable)]
    labels = np.array(labels, dtype=object)
    occupied = np.flatnonzero(np.bincount(raw[raw >= 0], minlength=len(labels)))
    remap = np.full(len(labels) + 1, -1)
    remap[occupied] = np.arange(len(occupied))
    return labels[occupied], remap[raw]


def merge_levels_loop(table, variable, alpha):
    """Greedy merging over parallel lists of groups and per-class counts,
    the counts from two masked bincounts."""
    labels, idx = discrete_levels_loop(table, variable)
    y = table.target_values
    keep = idx >= 0
    n1 = np.bincount(idx[keep & (y == 1)], minlength=len(labels)).astype(float)
    n0 = np.bincount(idx[keep & (y == 0)], minlength=len(labels)).astype(float)
    groups = [[str(v)] for v in labels]
    counts1, counts0 = list(n1), list(n0)
    while alpha > 0.0 and len(groups) > 1:
        rates = [c1 / (c1 + c0) if (c1 + c0) > 0 else 0.0 for c1, c0 in zip(counts1, counts0)]
        best = None
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                key = (abs(rates[i] - rates[j]), min(groups[i]), min(groups[j]))
                if best is None or key < best[0]:
                    best = (key, i, j)
        _, i, j = best
        pair = np.array([[counts0[i], counts1[i]], [counts0[j], counts1[j]]], dtype=float)
        if chi2_sf(pearson_2x2_loop(pair), 1) <= alpha:
            break
        groups[i] = groups[i] + groups[j]
        counts1[i] += counts1[j]
        counts0[i] += counts0[j]
        del groups[j], counts1[j], counts0[j]
    mapping = {}
    for members in groups:
        for lvl in members:
            mapping[lvl] = min(members)
    for lvl in table.schema.column(variable).levels:
        mapping.setdefault(lvl, lvl)
    return mapping


class TestAgainstTheLoopVersions:
    @given(
        kind=st.sampled_from([ColumnKind.BINARY, ColumnKind.CATEGORICAL, ColumnKind.LIKELIHOOD]),
        picks=st.lists(st.one_of(st.none(), st.integers(0, 99)), max_size=30),
    )
    def test_discrete_levels(self, kind, picks):
        """Gaps, and declared levels or bins that no row has, included."""
        declared = {"c": ("d", "b", "a", "c")}
        if kind is ColumnKind.CATEGORICAL:
            values = [None if v is None else declared["c"][v % 4] for v in picks]
        elif kind is ColumnKind.BINARY:
            values = [None if v is None else v % 2 for v in picks]
        else:
            values = [None if v is None else 1 + v % 99 for v in picks]
        t = make_table(
            {"c": values, "y": [i % 2 for i in range(len(values))]},
            {"c": kind, "y": ColumnKind.BINARY},
            levels=declared,
        )
        labels, idx = discrete_levels(t, "c")
        expected_labels, expected_idx = discrete_levels_loop(t, "c")
        assert labels.tolist() == expected_labels.tolist()
        assert idx.tolist() == expected_idx.tolist() and idx.dtype == expected_idx.dtype

    @given(
        # small counts make zero margins and equal cells common
        counts=st.lists(
            st.one_of(st.integers(0, 3), st.integers(0, 10_000_000)), min_size=4, max_size=4
        )
    )
    def test_pearson_2x2_bytes(self, counts):
        """The scalar statistic equals the numpy formula's, bit for bit."""
        floats = [float(c) for c in counts]
        assert _pearson_2x2(*floats) == pearson_2x2_loop(np.array(floats).reshape(2, 2))

    @given(cells=st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), max_size=40))
    def test_chi_square(self, cells):
        """One-level flags, which have an empty margin, included."""
        t = binary_table([x for x, _ in cells], [y for _, y in cells])
        if len({y for _, y in cells}) < 2:
            with pytest.raises(ComputationError, match="target is constant"):
                chi_square_binary(t, "x")
            return
        res = chi_square_binary(t, "x")
        assert (res.statistic, res.p_value, res.df) == (*chi_square_binary_loop(t, "x"), 1)

    @given(
        # (positives, negatives) per level; small counts make tied rates
        # and groups with an empty target margin common, and (0, 0) is a
        # declared level absent from the data
        counts=st.lists(
            st.tuples(st.integers(0, 8), st.integers(0, 8)), min_size=2, max_size=7
        ),
        alpha=st.sampled_from([0.0, 0.05, 0.5]),
    )
    def test_merge_levels(self, counts, alpha):
        level_counts = {f"l{i}": pair for i, pair in enumerate(counts)}
        c, y = [], []
        for level, (pos, neg) in level_counts.items():
            c += [level] * (pos + neg)
            y += [1] * pos + [0] * neg
        t = make_table(
            {"c": c, "y": y},
            {"c": ColumnKind.CATEGORICAL, "y": ColumnKind.BINARY},
            levels={"c": tuple(level_counts)},
        )
        if len(set(y)) < 2:
            with pytest.raises(ComputationError, match="target is constant"):
                merge_levels(t, "c", alpha=alpha)
            return
        mapping = merge_levels(t, "c", alpha=alpha)
        expected = merge_levels_loop(t, "c", alpha)
        assert mapping == expected
        assert list(mapping.items()) == list(expected.items())


# ---------------------------------------------------------------------------
# The screening stages against the one-variable functions: the t screen
# takes its columns in blocks and every discrete column's count table is
# taken once per run, with the same numbers as a column at a time.


def t_test_loop(table, variable):
    """The t statistic as numpy's one-column mean and ddof=1 variance give it."""
    x = table.numeric_view(variable)
    y = table.target_values
    keep = ~np.isnan(x)
    g0, g1 = x[keep & (y == 0)], x[keep & (y == 1)]
    if len(g0) < 2 or len(g1) < 2:
        raise ValidationError(
            f"{variable!r}: each target group needs >= 2 non-missing values "
            f"(got {len(g0)} and {len(g1)})"
        )
    diff = float(g1.mean() - g0.mean())
    df = len(g0) + len(g1) - 2
    pooled_var = float(((len(g0) - 1) * g0.var(ddof=1) + (len(g1) - 1) * g1.var(ddof=1)) / df)
    if pooled_var == 0.0:
        if diff == 0.0:
            return 0.0, df
        raise ComputationError(
            f"{variable!r}: zero pooled variance with unequal group means (infinite t)"
        )
    return diff / np.sqrt(pooled_var * (1.0 / len(g0) + 1.0 / len(g1))), df


def t_screen_table(seed, n_numeric, n_rows):
    """Continuous and likelihood columns x0, x1, ..., a continuous column z
    that the target shifts far, and two categoricals that track the
    target.  Rows 0-1 are target 0 and rows 2-3 target 1.

    Under ``t_plan`` every multivalued column is t-tested, z has the
    largest |t|, and z and the categoricals take the later stages, so no
    drawn column reaches the clustering stage.
    """
    rng = np.random.default_rng(seed)
    y = (rng.random(n_rows) < rng.uniform(0.2, 0.8)).astype(int)
    y[:4] = [0, 0, 1, 1]
    columns, kinds = {}, {}
    for i in range(n_numeric):
        if rng.random() < 0.5:
            x = rng.integers(1, 100, n_rows).astype(float)
            kinds[f"x{i}"] = ColumnKind.LIKELIHOOD
        else:
            # magnitudes from 1e-3 to 1e6 make rounding differences show
            x = 10.0 ** rng.uniform(-3, 6) * (rng.standard_normal(n_rows) + rng.uniform(-50, 50))
            kinds[f"x{i}"] = ColumnKind.CONTINUOUS
        columns[f"x{i}"] = x
    columns["z"], kinds["z"] = 1e3 * y + rng.standard_normal(n_rows), ColumnKind.CONTINUOUS
    for name in ("c0", "c1"):
        flip = rng.random(n_rows) < 0.1
        flip[:4] = False
        columns[name] = np.where(y ^ flip, "hi", "lo").tolist()
        kinds[name] = ColumnKind.CATEGORICAL
    columns["y"], kinds["y"] = y, ColumnKind.BINARY
    return make_table(columns, kinds)


def t_plan(table):
    n = len(table.schema.predictors)
    return StagePlan(n, 3, 2, 1, iv_min=1e-300, iv_max=1e300, level_merge_alpha=0.0)


class TestBlockedStages:
    @given(
        seed=st.integers(0, 2**32 - 1),
        blocks=st.integers(1, 3),
        tail=st.integers(0, _T_BLOCK - 1),
        n_rows=st.integers(6, 300),
    )
    def test_t_screen_is_the_one_column_t(self, seed, blocks, tail, n_rows):
        n_numeric = blocks * _T_BLOCK + tail
        table = t_screen_table(seed, n_numeric, n_rows)
        report = run_screening(table, t_plan(table))
        assert list(report.t_test) == [f"x{i}" for i in range(n_numeric)] + ["z"]
        for v, result in report.t_test.items():
            expected = t_test_multivalued(table, v)
            assert (result.t_statistic, result.df) == (expected.t_statistic, expected.df)
            assert (result.t_statistic, result.df) == t_test_loop(table, v)

    def test_class_groups_longer_than_a_reduction_buffer(self):
        """Class groups longer than numpy's 8192-element buffer."""
        table = t_screen_table(7, _T_BLOCK + 3, 20_000)
        assert min(table.class_counts()) > 8192
        for v, result in run_screening(table, t_plan(table)).t_test.items():
            assert (result.t_statistic, result.df) == t_test_loop(table, v)

    @pytest.mark.parametrize(
        "responders, separating, first",
        [
            pytest.param(1, (), "x0", id="one_responder"),
            pytest.param(None, (20,), "x20", id="separating_column_in_a_later_block"),
        ],
    )
    def test_stage_raises_the_first_column_error(self, responders, separating, first):
        """A separating column is 1 + target."""
        table = t_screen_table(3, 2 * _T_BLOCK, 60)
        y = table.target_values.copy()
        if responders is not None:
            y[:] = 0
            y[:responders] = 1
        columns = {f"x{i}": 1.0 + y for i in separating}
        table = table.replace_columns(columns | {"y": y})
        variables = [f"x{i}" for i in range(2 * _T_BLOCK)] + ["z"]
        with pytest.raises((ValidationError, ComputationError)) as loop_error:
            for v in variables:
                t_test_loop(table, v)
        assert f"'{first}'" in str(loop_error.value)
        with pytest.raises(loop_error.type, match=f"^{re.escape(str(loop_error.value))}$"):
            run_screening(table, t_plan(table))

    def test_each_discrete_column_is_levelled_once(self, monkeypatch):
        table = generate(SCREENED_SPEC)[0]
        calls = []

        def counted(table, variable):
            calls.append(variable)
            return discrete_levels(table, variable)

        monkeypatch.setattr(screening, "discrete_levels", counted)
        report = run_screening(table, SCREENED_PLAN)
        assert sorted(calls) == sorted(set(report.chi_square) | set(report.iv))
        assert len(calls) == len(set(calls))

    def test_level_statistics_are_the_one_variable_results(self, screened):
        report, table = screened
        plan = SCREENED_PLAN
        assert report.chi_square == {v: chi_square_binary(table, v) for v in report.chi_square}
        assert report.iv == {v: woe_iv(table, v, plan.iv_smoothing) for v in report.iv}
        representatives = [v for v in dict(report.stages)["information_value"]
                           if v in report.cluster_selection.representatives()]
        kinds = {v: table.schema.column(v).kind for v in representatives}
        flags = [v for v in representatives if kinds[v] is ColumnKind.BINARY]
        final = report.final_variables
        assert [v for v in final if kinds[v] is ColumnKind.BINARY] == occupancy_filter(
            table, flags, plan.occupancy_min
        )
        categoricals = [v for v in representatives if kinds[v] is ColumnKind.CATEGORICAL]
        merges = {v: merge_levels(table, v, plan.level_merge_alpha) for v in categoricals}
        assert report.level_mappings == {
            v: m for v, m in merges.items() if len(set(m.values())) > 1
        }
        assert report.level_mappings and len(report.level_mappings) < len(merges)
