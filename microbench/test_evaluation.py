"""Micro-benchmarks of the evaluation layer: decile assignment, the decile
table and the chart rows.

The scores are 10,000 records with 10 % responders, the size of the
``score`` benchmark workload's scored table; some probabilities repeat,
so the row-order tie-break is exercised.  The directory is outside the
tier-1 ``testpaths``; run it with

    PYTHONPATH=src python -m pytest microbench --benchmark-only
"""

import numpy as np
import pytest

from screenfit.evaluation import N_DECILES, ScoreSet, assign_deciles, chart_rows, decile_table

N_RECORDS = 10_000


@pytest.fixture(scope="module")
def scores():
    rng = np.random.default_rng(20210903)
    p = np.round(rng.beta(1.0, 9.0, N_RECORDS), 4)
    y = (rng.random(N_RECORDS) < p).astype(np.int8)
    return ScoreSet(p=p, y=y)


def test_assign_deciles(benchmark, scores):
    deciles = benchmark(assign_deciles, scores)
    assert np.bincount(deciles).tolist() == [0] + [N_RECORDS // N_DECILES] * N_DECILES


def test_decile_table(benchmark, scores):
    rows = benchmark(decile_table, scores)
    assert rows[-1].cum_captured == pytest.approx(1.0)


def test_chart_rows(benchmark, scores):
    rows = decile_table(scores)
    chart = benchmark(chart_rows, rows)
    assert len(chart) == N_DECILES
