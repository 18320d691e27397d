"""Micro-benchmarks of the screening layers on the ``wide`` benchmark table.

The table is the ``wide`` workload's dataset at op seed 11000: 4000 rows,
1500 predictors (375 binary, 450 categorical, 300 likelihood, 375
continuous), no gaps, median-imputed as ``run_pipeline`` hands it to
screening.  ``run_screening`` runs the whole cascade under the ``wide``
plan.  The per-statistic benchmarks run one statistic over every column
it applies to: the chi-square over every binary predictor, the t
statistic over every likelihood and continuous one, WoE/IV over every
discrete predictor, and level merging over every categorical one.  Each
of these calls the one-variable function once per column, so it times
the per-column path, not the blocks and shared count tables of
``run_screening``.
Representative selection scores the clusters of the IV survivors, the
input of the cascade's last stage.  The directory is outside the tier-1
``testpaths`` and needs the ``bench`` extra (``pytest-benchmark``); run
it with

    PYTHONPATH=src python -m pytest microbench/test_screening.py --benchmark-only
"""

import numpy as np
import pytest

from screenfit import screening, varclus
from screenfit.synthgen import SyntheticSpec, generate
from screenfit.table import ColumnKind, impute_numeric_columns

WIDE_SPEC = SyntheticSpec(
    n_signal=400,
    n_background=3600,
    n_informative=20,
    n_noise=1480,
    kind_mix={"binary": 0.25, "categorical": 0.3, "likelihood": 0.2, "continuous": 0.25},
    seed=11000,
)
WIDE_PLAN = screening.StagePlan(
    retain_after_chi2=1300, retain_after_t=700, retain_after_iv=300, final_retain=40
)


@pytest.fixture(scope="module")
def table():
    return impute_numeric_columns(generate(WIDE_SPEC)[0])


def of_kind(table, *kinds):
    return [name for name in table.schema.predictors if table.schema.column(name).kind in kinds]


def test_run_screening(benchmark, table):
    report = benchmark(screening.run_screening, table, WIDE_PLAN)
    assert len(report.stages) == 5


def test_chi_square_binary(benchmark, table):
    names = of_kind(table, ColumnKind.BINARY)
    results = benchmark(lambda: [screening.chi_square_binary(table, name) for name in names])
    assert len(results) == 375


def test_t_test_multivalued(benchmark, table):
    names = of_kind(table, ColumnKind.LIKELIHOOD, ColumnKind.CONTINUOUS)
    results = benchmark(lambda: [screening.t_test_multivalued(table, name) for name in names])
    assert len(results) == 675


def test_woe_iv(benchmark, table):
    names = of_kind(table, ColumnKind.BINARY, ColumnKind.CATEGORICAL, ColumnKind.LIKELIHOOD)
    results = benchmark(lambda: [screening.woe_iv(table, name) for name in names])
    assert len(results) == 1125


def test_merge_levels(benchmark, table):
    names = of_kind(table, ColumnKind.CATEGORICAL)
    results = benchmark(lambda: [screening.merge_levels(table, name) for name in names])
    assert len(results) == 450


def test_select_representatives(benchmark, table):
    report = screening.run_screening(table, WIDE_PLAN)
    names = dict(report.stages)["information_value"]
    values = np.column_stack([table.numeric_view(name) for name in names])
    corr = varclus.correlation_matrix_from_array(values, names)
    clusters = list(report.cluster_selection.clusters)
    selection = benchmark(varclus.select_representatives, clusters, corr)
    assert len(selection.representatives()) == WIDE_PLAN.final_retain
