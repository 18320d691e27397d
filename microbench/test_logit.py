"""Micro-benchmarks of the logistic layer: likelihood, IRLS fit, stepwise.

The first design has the shape of the training split of the ``tall``
benchmark workload: 6000 rows and 24 standardized candidate terms, 6 of
them planted.  The second has the shape of the ``wide`` workload's
split: 2400 rows and 48 terms, half of them 0/1 flags, 8 planted.  The
directory is outside the tier-1 ``testpaths``; run it with

    PYTHONPATH=src python -m pytest microbench --benchmark-only
"""

import numpy as np
import pytest

from screenfit.logit import DesignMatrix, Term, fit_irls, log_likelihood, stepwise_select

N_ROWS, N_TERMS, N_PLANTED = 6000, 24, 6
WIDE_ROWS, WIDE_TERMS, WIDE_PLANTED = 2400, 48, 8


@pytest.fixture(scope="module")
def design():
    rng = np.random.default_rng(20210903)
    X = rng.standard_normal((N_ROWS, N_TERMS))
    latent = -1.0 + X[:, :N_PLANTED] @ rng.uniform(0.2, 0.8, N_PLANTED)
    y = (rng.random(N_ROWS) < 1.0 / (1.0 + np.exp(-latent))).astype(int)
    terms = tuple(
        Term(source=f"x{i}", encoding="standardized", mean=0.0, std=1.0)
        for i in range(N_TERMS)
    )
    return DesignMatrix(terms=terms, X=np.column_stack([np.ones(N_ROWS), X]), y=y)


@pytest.fixture(scope="module")
def wide_design():
    rng = np.random.default_rng(20210904)
    X = rng.standard_normal((WIDE_ROWS, WIDE_TERMS))
    X[:, 1::2] = X[:, 1::2] > 0.5  # every other term a 0/1 flag
    latent = -2.0 + X[:, :WIDE_PLANTED] @ rng.uniform(0.4, 0.9, WIDE_PLANTED)
    y = (rng.random(WIDE_ROWS) < 1.0 / (1.0 + np.exp(-latent))).astype(int)
    terms = tuple(
        Term(source=f"w{i}", encoding="flag")
        if i % 2
        else Term(source=f"w{i}", encoding="standardized", mean=0.0, std=1.0)
        for i in range(WIDE_TERMS)
    )
    return DesignMatrix(terms=terms, X=np.column_stack([np.ones(WIDE_ROWS), X]), y=y)


def test_log_likelihood(benchmark, design):
    beta = np.full(N_TERMS + 1, 0.05)
    logL, _, _ = benchmark(log_likelihood, design, beta)
    assert np.isfinite(logL)


def test_fit_irls(benchmark, design):
    model = benchmark(fit_irls, design)
    assert model.converged


def test_stepwise_select(benchmark, design):
    model, _ = benchmark(stepwise_select, design, 0.01, 0.01, 10)
    assert {t.name for t in model.terms} >= {f"x{i}" for i in range(N_PLANTED)}


def test_stepwise_select_wide(benchmark, wide_design):
    model, _ = benchmark(stepwise_select, wide_design, 0.01, 0.01, 10)
    assert {t.name for t in model.terms} >= {f"w{i}" for i in range(4)}
