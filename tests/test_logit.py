import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from screenfit import logit
from screenfit.errors import ComputationError, ValidationError
from screenfit.logit import (
    DesignMatrix,
    LogisticModel,
    Term,
    chi2_sf,
    encode_design,
    fit_irls,
    global_null_lr,
    log_likelihood,
    model_from_dict,
    model_to_dict,
    prune_collinear,
    sbc,
    stepwise_select,
)
from screenfit.table import ColumnKind

from conftest import make_table


def design_from_arrays(X_cols: list[np.ndarray], y: np.ndarray) -> DesignMatrix:
    terms = tuple(
        Term(source=f"x{i}", encoding="standardized", mean=0.0, std=1.0)
        for i in range(len(X_cols))
    )
    X = np.column_stack([np.ones(len(y))] + X_cols)
    return DesignMatrix(terms=terms, X=X, y=np.asarray(y, dtype=int))


def random_design(rng, n, k):
    X_cols = [rng.standard_normal(n) for _ in range(k)]
    y = (rng.random(n) < 0.5).astype(int)
    if y.min() == y.max():
        y[0] = 1 - y[0]
    return design_from_arrays(X_cols, y)


class TestEncodeDesign:
    def test_z_score_with_training_stats(self):
        t = make_table(
            {"x": [8.0, 12.0], "y": [0, 1]},
            {"x": ColumnKind.CONTINUOUS, "y": ColumnKind.BINARY},
        )
        design = encode_design(t, ["x"])
        assert design.terms[0].mean == pytest.approx(10.0)
        assert design.terms[0].std == pytest.approx(2.0)
        np.testing.assert_allclose(design.X[:, 1], [-1.0, 1.0])

    def test_scoring_reuses_template_stats(self):
        train = make_table(
            {"x": [8.0, 12.0], "y": [0, 1]},
            {"x": ColumnKind.CONTINUOUS, "y": ColumnKind.BINARY},
        )
        template = encode_design(train, ["x"]).terms
        new = make_table(
            {"x": [12.0, 12.0], "y": [0, 1]},
            {"x": ColumnKind.CONTINUOUS, "y": ColumnKind.BINARY},
        )
        design = encode_design(new, ["x"], template=template)
        np.testing.assert_allclose(design.X[:, 1], [1.0, 1.0])  # (12 - 10) / 2

    def test_most_frequent_reference(self):
        c = ["a"] * 5 + ["b"] * 3 + ["c"] * 2
        t = make_table(
            {"c": c, "y": [0, 1] * 5},
            {"c": ColumnKind.CATEGORICAL, "y": ColumnKind.BINARY},
        )
        design = encode_design(t, ["c"])
        assert [term.level for term in design.terms] == ["b", "c"]
        assert all(term.reference == "a" for term in design.terms)

    def test_constant_column_dropped_with_warning(self):
        t = make_table(
            {"x": [3.0, 3.0, 3.0, 3.0], "z": [1.0, 2.0, 3.0, 4.0], "y": [0, 1, 0, 1]},
            {"x": ColumnKind.CONTINUOUS, "z": ColumnKind.CONTINUOUS, "y": ColumnKind.BINARY},
        )
        design = encode_design(t, ["x", "z"])
        assert len(design.terms) == 1
        assert design.terms[0].source == "z"
        assert any("constant" in w for w in design.warnings)

    def test_unseen_level_maps_to_reference_with_warning(self):
        train = make_table(
            {"c": ["a", "a", "b", "b"], "y": [0, 1, 0, 1]},
            {"c": ColumnKind.CATEGORICAL, "y": ColumnKind.BINARY},
        )
        template = encode_design(train, ["c"]).terms
        scoring = make_table(
            {"c": ["a", "zz", "b"], "y": [0, 1, 0]},
            {"c": ColumnKind.CATEGORICAL, "y": ColumnKind.BINARY},
            levels={"c": ("a", "b", "zz")},
        )
        design = encode_design(scoring, ["c"], template=template)
        assert design.X[1, 1] == 0.0
        assert any("zz" in w for w in design.warnings)

    def test_missing_values_rejected(self):
        t = make_table(
            {"x": [1.0, np.nan], "y": [0, 1]},
            {"x": ColumnKind.CONTINUOUS, "y": ColumnKind.BINARY},
        )
        with pytest.raises(ValidationError, match="impute"):
            encode_design(t, ["x"])

    def test_binary_kept_as_flag(self):
        t = make_table(
            {"f": [0, 1, 1, 0], "y": [0, 1, 0, 1]},
            {"f": ColumnKind.BINARY, "y": ColumnKind.BINARY},
        )
        design = encode_design(t, ["f"])
        assert design.terms[0].encoding == "flag"
        np.testing.assert_array_equal(design.X[:, 1], [0, 1, 1, 0])

    @pytest.mark.parametrize(
        "term, kind",
        [
            (Term(source="v", encoding="dummy", level="1", reference="0"), ColumnKind.BINARY),
            (Term(source="v", encoding="flag"), ColumnKind.CATEGORICAL),
            (Term(source="v", encoding="flag"), ColumnKind.LIKELIHOOD),
            (Term(source="v", encoding="standardized", mean=1.5, std=0.5), ColumnKind.CATEGORICAL),
            (Term(source="v", encoding="standardized", mean=0.5, std=0.5), ColumnKind.BINARY),
        ],
    )
    def test_template_term_on_a_column_of_another_kind_is_rejected(self, term, kind):
        values = ["1", "2"] if kind is ColumnKind.CATEGORICAL else [1.0, 1.0]
        t = make_table({"v": values, "y": [0, 1]}, {"v": kind, "y": ColumnKind.BINARY})
        message = f"column 'v' is {kind.value}, but the model encodes it as a {term.encoding} term"
        with pytest.raises(ValidationError, match=f"^{message}$"):
            encode_design(t, ["v"], template=(term,))


LEVELS = ("a", "b", "c", "d")
KINDS = {
    "x": ColumnKind.CONTINUOUS,
    "lik": ColumnKind.LIKELIHOOD,
    "f": ColumnKind.BINARY,
    "c": ColumnKind.CATEGORICAL,
    "y": ColumnKind.BINARY,
}
CELLS = {
    "x": st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False),
    "lik": st.integers(1, 99).map(float),
    "f": st.sampled_from([0.0, 1.0]),
    # "d" is never drawn and "c" only at times: declared levels with no rows
    "c": st.sampled_from(LEVELS[:2]) | st.sampled_from(LEVELS[:3]),
    "y": st.sampled_from([0.0, 1.0]),
}


@given(data=st.data(), n=st.integers(1, 25))
def test_template_rebuilds_the_training_design_bit_for_bit(data, n):
    columns = {
        name: data.draw(st.lists(cell, min_size=n, max_size=n) | cell.map(lambda v: [v] * n))
        for name, cell in CELLS.items()
    }
    table = make_table(columns, KINDS, levels={"c": LEVELS})
    variables = ["x", "lik", "f", "c"]
    train = encode_design(table, variables)
    scored = encode_design(table, variables, template=train.terms)
    assert scored.terms == train.terms
    assert scored.X.shape == train.X.shape
    assert scored.X.tobytes() == train.X.tobytes()
    assert scored.warnings == ()


class TestLogLikelihood:
    def test_zero_beta_gives_n_log_half(self):
        rng = np.random.default_rng(0)
        design = random_design(rng, 40, 2)
        logL, _, _ = log_likelihood(design, np.zeros(3))
        assert logL == pytest.approx(40 * math.log(0.5))

    def test_gradient_at_zero(self):
        rng = np.random.default_rng(1)
        design = random_design(rng, 30, 2)
        _, gradient, _ = log_likelihood(design, np.zeros(3))
        np.testing.assert_allclose(gradient, design.X.T @ (design.y - 0.5), atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(20, 200))
            k = int(rng.integers(1, 6))
            design = random_design(rng, n, k)
            beta = rng.normal(0, 0.5, k + 1)
            logL, gradient, _ = log_likelihood(design, beta)
            h = 1e-6
            fd = np.empty_like(beta)
            for j in range(len(beta)):
                e = np.zeros_like(beta)
                e[j] = h
                up, _, _ = log_likelihood(design, beta + e)
                dn, _, _ = log_likelihood(design, beta - e)
                fd[j] = (up - dn) / (2 * h)
            np.testing.assert_allclose(gradient, fd, rtol=1e-6, atol=1e-8)

    def test_hessian_matches_finite_differences_of_gradient(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            design = random_design(rng, 80, 3)
            beta = rng.normal(0, 0.5, 4)
            _, _, hessian = log_likelihood(design, beta)
            h = 1e-5
            fd = np.empty_like(hessian)
            for j in range(len(beta)):
                e = np.zeros_like(beta)
                e[j] = h
                _, g_up, _ = log_likelihood(design, beta + e)
                _, g_dn, _ = log_likelihood(design, beta - e)
                fd[:, j] = (g_up - g_dn) / (2 * h)
            np.testing.assert_allclose(hessian, fd, rtol=1e-4, atol=1e-6)


class TestFitIrls:
    def test_intercept_only_matches_prevalence_logit(self):
        y = np.array([1] * 3 + [0] * 5)
        design = DesignMatrix(terms=(), X=np.ones((8, 1)), y=y)
        model = fit_irls(design)
        assert model.converged
        assert model.beta[0] == pytest.approx(math.log(0.375 / 0.625), abs=1e-9)

    def test_deviance_non_increasing(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            design = random_design(rng, 120, 3)
            model = fit_irls(design)
            path = np.array(model.deviance_path)
            assert (np.diff(path) <= 1e-9).all()

    def test_independent_predictor_rarely_significant(self):
        hits = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            n = 600
            x = rng.standard_normal(n)
            y = (rng.random(n) < 0.4).astype(int)
            design = design_from_arrays([x], y)
            model = fit_irls(design)
            if model.p_values[1] > 0.05:
                hits += 1
        assert hits >= 9

    def test_separation_warning(self):
        x = np.linspace(-2, 2, 30)
        y = (x > 0).astype(int)
        design = design_from_arrays([x], y)
        model = fit_irls(design)
        assert any("separation" in w for w in model.warnings)

    def test_affine_invariance_of_standardized_fit(self):
        rng = np.random.default_rng(5)
        x = rng.normal(3.0, 2.0, 400)
        y = (rng.random(400) < 1 / (1 + np.exp(-(0.8 * (x - 3) / 2)))).astype(int)
        t1 = make_table(
            {"x": x, "y": y},
            {"x": ColumnKind.CONTINUOUS, "y": ColumnKind.BINARY},
        )
        t2 = make_table(
            {"x": 100.0 * x - 7.0, "y": y},
            {"x": ColumnKind.CONTINUOUS, "y": ColumnKind.BINARY},
        )
        m1 = fit_irls(encode_design(t1, ["x"]))
        m2 = fit_irls(encode_design(t2, ["x"]))
        np.testing.assert_allclose(m1.beta, m2.beta, atol=1e-8)
        np.testing.assert_allclose(m1.wald, m2.wald, rtol=1e-6)

    def test_non_finite_design_rejected(self):
        x = np.linspace(-1.0, 1.0, 20)
        y = (np.arange(20) % 2).astype(int)
        for bad in (np.nan, np.inf, -np.inf):
            x_bad = x.copy()
            x_bad[3] = bad
            with pytest.raises(ValidationError, match="non-finite"):
                design_from_arrays([x_bad], y)

    def test_exhausted_step_halving_reports_unconverged(self, monkeypatch):
        rng = np.random.default_rng(7)
        design = random_design(rng, 100, 2)
        real = logit.log_likelihood
        calls = []

        def never_improves(d, beta):
            logL, gradient, hessian = real(d, beta)
            calls.append(beta)
            return (logL if len(calls) == 1 else logL - 1.0), gradient, hessian

        monkeypatch.setattr(logit, "log_likelihood", never_improves)
        model = fit_irls(design)
        assert not model.converged
        assert any("step halving" in w for w in model.warnings)
        np.testing.assert_array_equal(model.beta, np.zeros(3))
        assert len(calls) == 1 + 40
        assert model.deviance_path == (-2.0 * real(design, np.zeros(3))[0],)

    @pytest.mark.parametrize("op", ["solve", "inv"])
    def test_singular_information_matrix_raises(self, monkeypatch, op):
        # solve runs at every Newton step, inv once for the standard errors
        design = random_design(np.random.default_rng(8), 100, 2)
        calls = []

        def singular(*args):
            calls.append(args)
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, op, singular)
        message = "^singular information matrix: Singular matrix$"
        with pytest.raises(ComputationError, match=message) as info:
            fit_irls(design)
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)
        assert len(calls) == 1 and calls[0][0].shape == (3, 3)

    def test_needs_more_rows_than_columns(self):
        design = design_from_arrays([np.array([1.0, 2.0])], np.array([0, 1]))
        with pytest.raises(ValidationError):
            fit_irls(design)

    def test_grid_search_oracle_small(self):
        rng = np.random.default_rng(6)
        design = random_design(rng, 60, 1)
        model = fit_irls(design)
        grid = np.arange(-3.0, 3.0 + 1e-9, 0.05)
        best = -np.inf
        for b0 in grid:
            for b1 in grid:
                logL, _, _ = log_likelihood(design, np.array([b0, b1]))
                best = max(best, logL)
        assert model.log_likelihood >= best - 1e-6


class TestWaldAndDerived:
    def model_with(self, beta, se):
        k = len(beta)
        return _bare_model(
            terms=tuple(
                Term(source=f"v{i}", encoding="standardized", mean=0.0, std=1.0)
                for i in range(k - 1)
            ),
            beta=np.array(beta),
            se=np.array(se),
        )

    def test_printed_table_style_case(self):
        model = self.model_with([-0.8057, -1.1382], [0.0321, 0.0199])
        assert model.wald[1] == pytest.approx((1.1382 / 0.0199) ** 2, rel=1e-12)
        assert model.wald[1] == pytest.approx(3260.12, rel=0.01)
        assert model.exp_est[1] == pytest.approx(0.32, abs=2e-3)

    def test_zero_estimate(self):
        model = self.model_with([0.5, 0.0], [0.1, 0.2])
        assert model.wald[2 - 1] == pytest.approx(0.0)
        assert model.exp_est[1] == pytest.approx(1.0)
        assert model.p_values[1] == pytest.approx(1.0)

    def test_standardized_estimate_only_for_standardized_terms(self):
        terms = (
            Term(source="s", encoding="standardized", mean=0.0, std=1.0),
            Term(source="f", encoding="flag"),
            Term(source="c", encoding="dummy", level="b", reference="a"),
        )
        model = _bare_model(terms=terms, beta=np.array([0.1, 0.4, -0.2, 0.3]), se=np.ones(4))
        assert model.standardized_estimate[0] is None  # intercept
        assert model.standardized_estimate[1] == pytest.approx(0.4)
        assert model.standardized_estimate[2] is None  # flag
        assert model.standardized_estimate[3] is None  # dummy

    def test_zero_standard_error_gives_infinite_wald(self):
        model = self.model_with([0.5, 1.0], [0.1, 0.0])
        assert model.wald[1] == np.inf
        assert model.p_values[1] == 0.0

    def test_sbc_follows_log_likelihood_and_size(self):
        model = self.model_with([0.5, 1.0], [0.1, 0.2])
        assert model.sbc == sbc(-1.0, 2, 100)


def _bare_model(terms, beta, se):
    return LogisticModel(
        terms=terms,
        beta=beta,
        se=se,
        log_likelihood=-1.0,
        n=100,
        converged=True,
        iterations=1,
    )


class TestSbc:
    def test_hand_case(self):
        assert sbc(-60.0, 1, 100) == pytest.approx(120.0 + math.log(100.0), rel=1e-12)

    def test_extra_parameter_costs_log_n(self):
        assert sbc(-10.0, 3, 50) - sbc(-10.0, 2, 50) == pytest.approx(math.log(50.0))

    def test_n_one_has_no_penalty(self):
        assert sbc(-5.0, 0, 1) == pytest.approx(10.0)

    @given(
        logL=st.floats(-1e5, -1e-3),
        k=st.integers(0, 30),
        n=st.integers(2, 10_000),
    )
    def test_strictly_increasing_in_k(self, logL, k, n):
        assert sbc(logL, k + 1, n) > sbc(logL, k, n)


# x from 0 to 1e4: a log grid, a linear grid over the range where the df-1
# tail falls from 1e-280 to below the smallest normal double, and the edges
CHI2_X = sorted(
    {0.0, 5e-324, 1e-300, 1e300}
    | set(np.geomspace(1e-8, 1e4, 60).tolist())
    | set(np.linspace(1280.0, 1480.0, 11).tolist())
)


class TestChi2Sf:
    def test_matches_mpmath_at_40_digits(self):
        import mpmath

        with mpmath.workdps(40):
            for df in range(1, 61):
                for x in CHI2_X:
                    half_df, half_x = mpmath.mpf(df) / 2, mpmath.mpf(x) / 2
                    want = mpmath.gammainc(half_df, half_x, mpmath.inf, regularized=True)
                    got = chi2_sf(x, df)
                    if want >= mpmath.mpf("1e-300"):
                        assert abs(got - want) <= 1e-12 * want, (df, x, got)
                    else:
                        assert 0.0 <= got <= 1e-300, (df, x, got)

    def test_matches_scipy_chi2_sf(self):
        from scipy import stats as sps

        x = np.array(CHI2_X)
        for df in (1, 2, 3, 10, 25, 60):
            got = np.array([chi2_sf(v, df) for v in CHI2_X])
            np.testing.assert_allclose(got, sps.chi2.sf(x, df=df), rtol=1e-12, atol=1e-300)

    @pytest.mark.parametrize("df", [1, 2, 7, 24])
    def test_edge_values(self, df):
        assert math.isnan(chi2_sf(-1.0, df))
        assert math.isnan(chi2_sf(-5e-324, df))
        assert math.isnan(chi2_sf(math.nan, df))
        assert chi2_sf(0.0, df) == chi2_sf(-0.0, df) == 1.0
        assert chi2_sf(5e-324, df) == 1.0
        assert chi2_sf(1e300, df) == chi2_sf(math.inf, df) == 0.0

    @pytest.mark.parametrize("df", [0, -1, 1.5, True])
    def test_df_must_be_a_whole_number_from_one(self, df):
        with pytest.raises(ValidationError, match="chi-square df"):
            chi2_sf(1.0, df)

    def test_df_one_never_increases(self):
        # stepwise entry ranks candidates by this p-value, so ranking by p
        # must agree with ranking by the likelihood-ratio statistic
        x = np.concatenate([
            [0.0, 5e-324],
            np.geomspace(1e-300, 1.0, 20_000),
            np.linspace(0.0, 1600.0, 200_001),
            np.linspace(1405.0, 1480.0, 100_001),
        ])
        x.sort()
        p = np.array([chi2_sf(v, 1) for v in x.tolist()])
        assert (np.diff(p) <= 0.0).all()
        assert p[0] == 1.0 and p[-1] == 0.0


def planted_design(rng, n, n_noise, beta=1.5):
    noise = [rng.standard_normal(n) for _ in range(n_noise)]
    signal = rng.standard_normal(n)
    p = 1 / (1 + np.exp(-(0.3 + beta * signal)))
    y = (rng.random(n) < p).astype(int)
    cols = [signal] + noise
    return design_from_arrays(cols, y)  # x0 is the planted column


class TestStepwise:
    def test_planted_predictor_enters_first(self):
        hits = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            design = planted_design(rng, 4000, 20)
            model, trace = stepwise_select(design)
            if trace.steps and trace.steps[0].term == "x0":
                hits += 1
        assert hits >= 9

    def test_all_noise_yields_intercept_only(self):
        hits = 0
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            design = random_design(rng, 4000, 20)
            model, trace = stepwise_select(design, p_enter=0.01, p_stay=0.01)
            if len(model.terms) == 0:
                hits += 1
        assert hits >= 8

    def test_duplicate_column_enters_at_most_once(self):
        rng = np.random.default_rng(200)
        x = rng.standard_normal(1000)
        p = 1 / (1 + np.exp(-1.2 * x))
        y = (rng.random(1000) < p).astype(int)
        X = np.column_stack([np.ones(1000), x, x])
        terms = (
            Term(source="a", encoding="standardized", mean=0.0, std=1.0),
            Term(source="a_copy", encoding="standardized", mean=0.0, std=1.0),
        )
        design = DesignMatrix(terms=terms, X=X, y=y)
        model, _ = stepwise_select(design)
        assert len(model.terms) == 1

    def test_final_model_satisfies_stay_and_entry_conditions(self):
        rng = np.random.default_rng(300)
        design = planted_design(rng, 800, 6, beta=1.0)
        model, trace = stepwise_select(design, p_enter=0.01, p_stay=0.01)
        assert (model.p_values[1:] < 0.01).all()
        # no excluded candidate would enter with p < p_enter and a lower SBC
        names = [t.name for t in design.terms]
        in_model = [names.index(t.name) for t in model.terms]
        from scipy import stats as sps

        for j in range(len(design.terms)):
            if j in in_model:
                continue
            refit = fit_irls(design.select(in_model + [j]))
            lr = max(2 * (refit.log_likelihood - model.log_likelihood), 0.0)
            p = sps.chi2.sf(lr, df=1)
            assert not (p < 0.01 and refit.sbc < model.sbc)

    def test_trace_matches_final_terms(self):
        rng = np.random.default_rng(400)
        design = planted_design(rng, 900, 5, beta=0.8)
        model, trace = stepwise_select(design)
        current = []
        for step in trace.steps:
            if step.action == "enter":
                current.append(step.term)
            else:
                current.remove(step.term)
        assert sorted(current) == sorted(t.name for t in model.terms)

    def test_max_terms_cap(self):
        rng = np.random.default_rng(500)
        cols = [rng.standard_normal(2000) for _ in range(5)]
        latent = 1.2 * cols[0] + 1.0 * cols[1] + 0.8 * cols[2]
        y = (rng.random(2000) < 1 / (1 + np.exp(-latent))).astype(int)
        design = design_from_arrays(cols, y)
        model, _ = stepwise_select(design, max_terms=2)
        assert len(model.terms) <= 2

    def test_pass_cap_is_reported(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(400)
        x = (x - x.mean()) / x.std()
        y = (rng.random(400) < 1 / (1 + np.exp(-0.35 * x))).astype(int)
        design = design_from_arrays([x], y)
        # the term enters at p < 0.05 and leaves at Wald p > 1e-9, every pass
        model, trace = stepwise_select(design, p_enter=0.05, p_stay=1e-9)
        assert [s.action for s in trace.steps] == ["enter", "remove"] * 2
        assert model.warnings == (
            "stepwise stopped at its cap of 2 passes while the model was still changing",
        )
        model, trace = stepwise_select(design, p_enter=0.05, p_stay=0.05)
        assert [s.action for s in trace.steps] == ["enter"]
        assert model.warnings == ()

    def test_argmax_wald_stable_under_column_reorder(self):
        rng = np.random.default_rng(600)
        cols = [rng.standard_normal(1500) for _ in range(4)]
        latent = 1.5 * cols[2] + 0.5 * cols[0]
        y = (rng.random(1500) < 1 / (1 + np.exp(-latent))).astype(int)
        d1 = design_from_arrays(cols, y)
        m1 = fit_irls(d1)
        perm = [3, 2, 0, 1]
        d2 = design_from_arrays([cols[i] for i in perm], y)
        # renaming: term xj in d2 is cols[perm[j]]
        m2 = fit_irls(d2)
        best1 = int(np.argmax(m1.wald[1:]))
        best2 = perm[int(np.argmax(m2.wald[1:]))]
        assert best1 == best2


class TestPruneCollinear:
    def duplicated_design(self, seed=0, n=1200):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n)
        z = rng.standard_normal(n)
        y = (rng.random(n) < 1 / (1 + np.exp(-(1.0 * x + 0.5 * z)))).astype(int)
        X = np.column_stack([np.ones(n), x, x, z])
        terms = (
            Term(source="a", encoding="standardized", mean=0.0, std=1.0),
            Term(source="a_twin", encoding="standardized", mean=0.0, std=1.0),
            Term(source="z", encoding="standardized", mean=0.0, std=1.0),
        )
        return DesignMatrix(terms=terms, X=X, y=y)

    def test_duplicate_dropped_deviance_unchanged(self):
        design = self.duplicated_design()
        model = fit_irls(design)
        pruned = prune_collinear(model, design, design, cutoff=0.40)
        assert len(pruned.terms) == 2
        assert abs(-2 * pruned.log_likelihood - (-2 * model.log_likelihood)) < 1e-6

    def test_refit_carries_the_incoming_warnings(self, monkeypatch):
        design = self.duplicated_design()
        cap = "stepwise stopped at its cap of 6 passes while the model was still changing"
        model = replace(fit_irls(design), warnings=(cap, "shared"))

        def fit_with_warnings(sub):
            fitted = fit_irls(sub)
            return replace(fitted, warnings=fitted.warnings + ("shared", "refit"))

        monkeypatch.setattr(logit, "fit_irls", fit_with_warnings)
        pruned = prune_collinear(model, design, design, cutoff=0.40)
        assert len(pruned.terms) == 2
        assert pruned.warnings == (cap, "shared", "refit")

    def test_uncorrelated_model_unchanged(self):
        rng = np.random.default_rng(1)
        design = random_design(rng, 500, 3)
        model = fit_irls(design)
        pruned = prune_collinear(model, design, design, cutoff=0.40)
        assert pruned.term_names() == model.term_names()
        assert pruned.log_likelihood == model.log_likelihood

    def test_true_driver_survives(self):
        hits = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            n = 3000
            driver = rng.standard_normal(n)
            shadow = 0.9 * driver + math.sqrt(1 - 0.81) * rng.standard_normal(n)
            y = (rng.random(n) < 1 / (1 + np.exp(-1.5 * driver))).astype(int)
            X = np.column_stack([np.ones(n), driver, shadow])
            terms = (
                Term(source="driver", encoding="standardized", mean=0.0, std=1.0),
                Term(source="shadow", encoding="standardized", mean=0.0, std=1.0),
            )
            design = DesignMatrix(terms=terms, X=X, y=y)
            model = fit_irls(design)
            pruned = prune_collinear(model, design, design, cutoff=0.40)
            if [t.source for t in pruned.terms] == ["driver"]:
                hits += 1
        assert hits >= 8


class TestGlobalNull:
    def test_df_zero_rejected(self):
        y = np.array([0, 1, 0, 1, 1, 0])
        design = DesignMatrix(terms=(), X=np.ones((6, 1)), y=y)
        model = fit_irls(design)
        with pytest.raises(ValidationError):
            global_null_lr(model, design)

    def test_null_effect_statistic_near_zero(self):
        rng = np.random.default_rng(2)
        design = random_design(rng, 2000, 1)
        model = fit_irls(design)
        res = global_null_lr(model, design)
        assert res["df"] == 1
        assert 0.0 <= res["statistic"] < 10.0

    def test_planted_signal_is_overwhelming(self):
        from scipy import stats as sps

        rng = np.random.default_rng(3)
        cols = [rng.standard_normal(4000) for _ in range(3)]
        latent = 1.2 * cols[0] + 1.0 * cols[1] + 0.9 * cols[2]
        y = (rng.random(4000) < 1 / (1 + np.exp(-latent))).astype(int)
        design = design_from_arrays(cols, y)
        model = fit_irls(design)
        res = global_null_lr(model, design)
        assert res["statistic"] > sps.chi2.ppf(0.999, df=3)
        assert res["p_value"] < 0.001

    def test_statistic_definition(self):
        rng = np.random.default_rng(4)
        design = planted_design(rng, 500, 1)
        model = fit_irls(design)
        pbar = design.y.mean()
        logL0 = len(design.y) * (pbar * math.log(pbar) + (1 - pbar) * math.log(1 - pbar))
        res = global_null_lr(model, design)
        assert res["statistic"] == pytest.approx(2 * (model.log_likelihood - logL0), rel=1e-12)


    def test_p_value_is_one_below_zero(self):
        # chi2_sf is NaN at a negative statistic, where the chi-square tail is 1
        from scipy import stats as sps

        design = random_design(np.random.default_rng(6), 50, 1)
        pbar = design.y.mean()
        logL0 = design.n * (pbar * math.log(pbar) + (1 - pbar) * math.log(1 - pbar))
        model = LogisticModel(
            terms=design.terms, beta=np.zeros(2), se=np.ones(2),
            log_likelihood=logL0 - 1e-9, n=design.n, converged=True, iterations=1,
        )
        res = global_null_lr(model, design)
        assert res["statistic"] < 0.0
        assert res["p_value"] == sps.chi2.sf(res["statistic"], df=1) == 1.0


class TestModelSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(5)
        design = planted_design(rng, 300, 2)
        model = fit_irls(design)
        doc = model_to_dict(model)
        back = model_from_dict(doc)
        np.testing.assert_allclose(back.beta, model.beta)
        np.testing.assert_allclose(back.se, model.se)
        assert back.term_names() == model.term_names()
        assert back.sbc == model.sbc
        assert back.standardized_estimate == model.standardized_estimate


def masked_sigmoid(z):
    """The two-pass formula _sigmoid replaced."""
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class TestKernels:
    """Bitwise checks of the kernels against the formulas they replaced."""

    def test_chdtrc_is_chi2_sf(self):
        # chi2_sf replaced scipy.special.chdtrc: the same tail within 1e-12,
        # on the same points and degrees of freedom chdtrc was checked at
        from scipy import special

        rng = np.random.default_rng(7)
        x = np.concatenate([
            [0.0, -0.0, 5e-324, 1e-300, 1e-12, 1e300, np.inf],
            rng.exponential(3.0, 20_000),
            rng.uniform(0.0, 200.0, 20_000),
        ])
        for df in (1, 3, 7, 24):
            got = np.array([chi2_sf(v, df) for v in x.tolist()])
            np.testing.assert_allclose(got, special.chdtrc(df, x), rtol=1e-12, atol=0.0)

    def test_sigmoid_matches_masked_formula(self):
        rng = np.random.default_rng(8)
        z = np.concatenate([
            [0.0, -0.0, 745.0, -745.0, 1e308, -1e308, 37.0, -37.0],
            rng.normal(0.0, 10.0, 20_000),
            rng.standard_cauchy(2_000),
        ])
        out = logit._sigmoid(z)
        np.testing.assert_array_equal(out, masked_sigmoid(z))
        assert not np.signbit(out).any()

    def test_log_likelihood_matches_two_log_sum(self):
        rng = np.random.default_rng(9)
        for scale in (0.1, 1.0, 40.0):  # the last saturates p and hits the clamp
            design = random_design(rng, 500, 4)
            for y in (design.y, design.y.astype(float)):
                d = DesignMatrix(terms=design.terms, X=design.X, y=y)
                beta = rng.normal(0.0, scale, 5)
                pc = np.clip(masked_sigmoid(d.X @ beta), logit.PROB_CLAMP, 1 - logit.PROB_CLAMP)
                old = float(np.sum(y * np.log(pc) + (1 - y) * np.log(1.0 - pc)))
                assert log_likelihood(d, beta)[0] == old


def exhaustive_stepwise(design, p_enter=0.01, p_stay=0.01, max_terms=None):
    """Stepwise selection that fits every out-of-model candidate at every
    entry step: the reference the bounded entry must match bit for bit."""
    steps = []
    current = []
    cur_model = fit_irls(design.select(current))
    for _ in range(2 * len(design.terms)):
        changed = False
        if max_terms is None or len(current) < max_terms:
            best = None
            warm = np.append(cur_model.beta, 0.0)
            for j in range(len(design.terms)):
                if j in current:
                    continue
                model_j = fit_irls(design.select(current + [j]), beta0=warm)
                lr = max(2.0 * (model_j.log_likelihood - cur_model.log_likelihood), 0.0)
                p = chi2_sf(lr, 1)
                key = (p, model_j.sbc, design.terms[j].name)
                if best is None or key < best[0]:
                    best = (key, j, model_j, p)
            if best is not None:
                _, j, model_j, p = best
                if p < p_enter and model_j.sbc < cur_model.sbc:
                    current.append(j)
                    cur_model = model_j
                    steps.append(logit.StepwiseStep("enter", design.terms[j].name, p, model_j.sbc))
                    changed = True
        while current:
            p_in = cur_model.p_values[1:]
            worst = int(np.argmax(p_in))
            if p_in[worst] <= p_stay:
                break
            removed = current.pop(worst)
            cur_model = fit_irls(design.select(current))
            steps.append(
                logit.StepwiseStep("remove", design.terms[removed].name, float(p_in[worst]),
                                   cur_model.sbc)
            )
            changed = True
        if not changed:
            break
    else:
        cur_model = replace(
            cur_model,
            warnings=cur_model.warnings
            + (f"stepwise stopped at its cap of {2 * len(design.terms)} passes "
               "while the model was still changing",),
        )
    return cur_model, logit.StepwiseTrace(steps=tuple(steps))


def assert_same_selection(got, want):
    (model, trace), (ref, ref_trace) = got, want
    assert model.terms == ref.terms
    assert model.beta.tobytes() == ref.beta.tobytes()
    assert model.se.tobytes() == ref.se.tobytes()
    assert model.log_likelihood == ref.log_likelihood
    assert (model.converged, model.iterations) == (ref.converged, ref.iterations)
    assert model.deviance_path == ref.deviance_path
    assert model.warnings == ref.warnings
    assert trace == ref_trace


def saturated_design(n=300):
    # y follows the sign of x0 on all but the two rows nearest zero, so the
    # fitted probabilities run into PROB_CLAMP on their own rows' side
    rng = np.random.default_rng(11)
    x = rng.standard_normal(n)
    y = (x > 0).astype(int)
    y[np.argsort(np.abs(x))[:2]] ^= 1
    return design_from_arrays([x] + [rng.standard_normal(n) for _ in range(4)], y)


def duplicated_design(n=800):
    rng = np.random.default_rng(12)
    x, z = rng.standard_normal(n), rng.standard_normal(n)
    y = (rng.random(n) < 1 / (1 + np.exp(-(1.2 * x + 0.6 * z)))).astype(int)
    return design_from_arrays([x, rng.standard_normal(n), x.copy(), z], y)


def tied_design(n=20000):
    # "b" and "a" are the same weak column, so their fits tie bit for bit
    # and the name decides: the later column must win
    rng = np.random.default_rng(14)
    x = rng.standard_normal(n)
    y = (rng.random(n) < 1 / (1 + np.exp(-(0.3 + 0.05 * x)))).astype(int)
    terms = tuple(
        Term(source=name, encoding="standardized", mean=0.0, std=1.0) for name in "bca"
    )
    X = np.column_stack([np.ones(n), x, rng.standard_normal(n), x])
    return DesignMatrix(terms=terms, X=X, y=y)


def cycling_design():
    # x0 enters at p < 0.05 and leaves at Wald p > 1e-9 on every pass
    rng = np.random.default_rng(0)
    x = rng.standard_normal(400)
    x = (x - x.mean()) / x.std()
    y = (rng.random(400) < 1 / (1 + np.exp(-0.35 * x))).astype(int)
    return design_from_arrays([x, rng.standard_normal(400)], y)


def correlated_design(seed, n=1500, k=12):
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((n, k))
    X = base + 0.8 * base[:, [0]] * (np.arange(k) % 3 == 1)  # every third column leans on x0
    latent = -1.5 + X[:, :4] @ np.array([0.9, -0.5, 0.4, 0.25])
    y = (rng.random(n) < 1 / (1 + np.exp(-latent))).astype(int)
    return design_from_arrays(list(X.T), y)


class TestBoundedEntry:
    CASES = {
        "planted": (lambda: planted_design(np.random.default_rng(20), 2000, 12), {}),
        "planted_capped": (
            lambda: correlated_design(21), {"max_terms": 2, "p_enter": 0.2, "p_stay": 0.2}
        ),
        "correlated": (lambda: correlated_design(22), {"p_enter": 0.05, "p_stay": 0.05}),
        "stops_early": (lambda: correlated_design(23), {"p_enter": 1e-8, "p_stay": 1e-8}),
        "saturated": (saturated_design, {"p_enter": 0.5, "p_stay": 1.0}),
        "duplicated": (duplicated_design, {"p_enter": 0.5, "p_stay": 0.5}),
        "cycling": (cycling_design, {"p_enter": 0.05, "p_stay": 1e-9}),
        "tied": (tied_design, {"p_enter": 0.5, "p_stay": 0.5}),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_exhaustive_entry_bit_for_bit(self, case):
        make, kwargs = self.CASES[case]
        design = make()
        got = stepwise_select(design, **kwargs)
        assert_same_selection(got, exhaustive_stepwise(design, **kwargs))
        model, trace = got
        if case == "stops_early":  # three of the four planted terms clear p_enter
            assert [step.action for step in trace.steps] == ["enter"] * 3
        if case == "cycling":
            assert model.warnings[-1].startswith("stepwise stopped at its cap")
        if case == "tied":
            assert trace.steps[0].term == "a"
        if case == "saturated":
            p = model.predict_proba(design.select([0]).X)
            assert model.terms == design.terms[:1]
            assert ((p < logit.PROB_CLAMP) | (p > 1 - logit.PROB_CLAMP)).sum() > 250

    def test_fits_fewer_candidates_than_exhaustive_entry(self, monkeypatch):
        design = planted_design(np.random.default_rng(24), 3000, 15)
        calls = []
        fit = logit.fit_irls
        monkeypatch.setattr(logit, "fit_irls", lambda *a, **k: calls.append(1) or fit(*a, **k))
        _model, trace = stepwise_select(design)
        entries = sum(s.action == "enter" for s in trace.steps)
        # one intercept fit, then at most two candidate fits per entry step
        assert entries >= 1 and len(calls) <= 1 + 2 * (entries + 1)

    def test_duplicate_of_an_entered_column_is_always_fitted(self):
        design = duplicated_design()
        model = fit_irls(design.select([0]))
        bounds = logit._entry_bounds(design, [0], model.beta, [1, 2, 3])
        assert bounds[1] == np.inf  # x2 copies the entered x0
        assert np.isfinite(bounds[0])

    def test_wrong_side_clamp_in_the_current_model_fits_everything(self):
        # one row far out on x0 keeps its class against the fit, so its
        # clamped log-likelihood is above the true one on every candidate
        rng = np.random.default_rng(13)
        X = rng.standard_normal((5000, 4))
        y = (rng.random(5000) < 1 / (1 + np.exp(-(2.0 * X[:, 0] + 0.3 * X[:, 1])))).astype(int)
        X[0, 0], y[0] = -200.0, 1
        design = design_from_arrays(list(X.T), y)
        model = fit_irls(design.select([0]))
        assert model.predict_proba(design.X[:1, :2])[0] < logit.PROB_CLAMP
        bounds = logit._entry_bounds(design, [0], model.beta, [1, 2, 3])
        assert (bounds == np.inf).all()
        assert_same_selection(stepwise_select(design), exhaustive_stepwise(design))

    def test_a_fit_above_its_bound_makes_the_step_fit_everything(self, monkeypatch):
        X = correlated_design(25).X
        # the planted columns last, so the first candidate fitted is noise
        design = design_from_arrays(list(X[:, :0:-1].T), correlated_design(25).y)
        want = exhaustive_stepwise(design)
        # bounds far below any log-likelihood break the proof's assumption
        monkeypatch.setattr(
            logit, "_entry_bounds", lambda d, cur, beta, cands: np.full(len(cands), -1e9)
        )
        assert_same_selection(stepwise_select(design), want)

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(30, 400),
        k=st.integers(1, 6),
        n_current=st.integers(0, 3),
        scale=st.sampled_from([0.3, 1.0, 4.0]),
    )
    def test_no_fit_passes_its_bound(self, seed, n, k, n_current, scale):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, k + n_current))
        X[:, -1] += rng.choice([0.0, 0.9]) * X[:, 0]  # at times a correlated pair
        latent = X[:, : min(3, X.shape[1])] @ rng.normal(0.0, scale, min(3, X.shape[1]))
        y = (rng.random(n) < 1 / (1 + np.exp(-latent))).astype(int)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        design = design_from_arrays(list(X.T), y)
        current = list(range(n_current))
        candidates = list(range(n_current, n_current + k))
        model = fit_irls(design.select(current))
        bounds = logit._entry_bounds(design, current, model.beta, candidates)
        warm = np.append(model.beta, 0.0)
        for j, bound in zip(candidates, bounds):
            logL = fit_irls(design.select(current + [j]), beta0=warm).log_likelihood
            assert logL <= bound + 1e-9 * max(1.0, abs(logL))
