"""Micro-benchmarks of the table layers: generation, CSV parse and write,
JSON write, imputation, level extraction, split, varclus.

The table is a generated sample of 4000 rows and 150 predictors of all
four kinds with 5 % gaps, the shape of the ``tall`` benchmark workload at
less than half its rows.  The CSV is parsed whole, and with 10 named
predictors, the most a ``tall`` model scores with, and written whole.
The paper-width parse reads a generated CSV of 2000 rows and 1000
predictors of all four kinds with 5 % gaps, the width of the paper's
vendor file, whole and with 10 named predictors: whole, every cell
becomes a token; cut, most of the file is scanned and never tokenized.
The quoted parse reads the same table with one categorical level renamed
to hold a comma: the first row has that level, so :mod:`csv` reads every
data line.
The JSON write is the screening report of a ``wide``-shaped run (4000
rows, 1500 predictors, the ``wide`` plan, op seed 11000), about 1 MB of
indented JSON.  Level extraction
runs ``discrete_levels`` once over every discrete predictor (105 of
them), as the IV stage of screening does.  Clustering runs on
the correlations of every other predictor (60 of them, all four kinds)
down to 20 clusters, the size of the ``tall`` workload's clustering
stage.  The pairwise-complete correlations run on the numeric views of
all 150 predictors with 5 % gaps in every column, discrete kinds
included, as a loaded CSV can have them.  The directory is outside the
tier-1 ``testpaths`` and needs the ``bench`` extra (``pytest-benchmark``);
run it with

    PYTHONPATH=src python -m pytest microbench --benchmark-only
"""

from dataclasses import replace

import numpy as np
import pytest

from screenfit import screening, varclus
from screenfit.synthgen import SyntheticSpec, generate
from screenfit.table import (
    IMPUTED_KINDS,
    ColumnKind,
    impute_numeric_columns,
    load_table,
    save_table,
    split_train_validation,
    write_json,
)

SPEC = SyntheticSpec(
    n_signal=400,
    n_background=3600,
    n_informative=20,
    n_noise=130,
    kind_mix={"binary": 0.3, "categorical": 0.2, "likelihood": 0.2, "continuous": 0.3},
    missing_rate=0.05,
    seed=20210903,
)
PAPER_WIDTH_SPEC = replace(SPEC, n_signal=200, n_background=1800, n_noise=980)
N_CLUSTERED, N_CLUSTERS = 60, 20
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
    return generate(SPEC)[0]


@pytest.fixture(scope="module")
def csv_path(table, tmp_path_factory):
    path = tmp_path_factory.mktemp("table") / "data.csv"
    save_table(table, path)
    return path


def test_generate(benchmark):
    table, _ = benchmark(generate, SPEC)
    assert table.n_records == SPEC.n_records


def test_load_table(benchmark, table, csv_path):
    loaded = benchmark(load_table, csv_path, table.schema)
    assert loaded.n_records == table.n_records


def test_load_table_model_columns(benchmark, table, csv_path):
    names = table.schema.predictors[::15]
    loaded = benchmark(load_table, csv_path, table.schema, names)
    assert loaded.n_records == table.n_records
    assert loaded.schema.names == names + [table.schema.target]


@pytest.fixture(scope="module")
def paper_width(tmp_path_factory):
    """The paper-width table's schema and the path of its CSV."""
    table = generate(PAPER_WIDTH_SPEC)[0]
    path = tmp_path_factory.mktemp("paper_width") / "data.csv"
    save_table(table, path)
    return table.schema, path


def test_load_table_paper_width(benchmark, paper_width):
    schema, path = paper_width
    loaded = benchmark(load_table, path, schema)
    assert (loaded.n_records, len(loaded.schema.columns)) == (2000, 1001)


def test_load_table_paper_width_model_columns(benchmark, paper_width):
    schema, path = paper_width
    names = schema.predictors[::100]
    loaded = benchmark(load_table, path, schema, names)
    assert loaded.n_records == 2000
    assert loaded.schema.names == names + [schema.target]


def test_load_table_quoted(benchmark, table, tmp_path):
    spec = next(
        spec for spec in table.schema.columns
        if spec.kind is ColumnKind.CATEGORICAL and table.codes(spec.name)[0] >= 0
    )
    code = table.codes(spec.name)[0]
    levels = list(spec.levels)
    levels[code] += ",1"
    quoted = table.replace_columns(
        {spec.name: table.codes(spec.name)}, (replace(spec, levels=tuple(levels)),)
    )
    path = tmp_path / "quoted.csv"
    save_table(quoted, path)
    loaded = benchmark(load_table, path, quoted.schema)
    assert loaded.column(spec.name)[0] == levels[code]


def test_save_table(benchmark, table, tmp_path):
    path = tmp_path / "data.csv"
    benchmark(save_table, table, path)
    assert load_table(path, table.schema).n_records == table.n_records


def test_write_json(benchmark, tmp_path):
    wide, _ = generate(WIDE_SPEC)
    report = screening.run_screening(impute_numeric_columns(wide), WIDE_PLAN).to_dict()
    del wide
    path = tmp_path / "screening_report.json"
    benchmark(write_json, report, path)
    assert path.stat().st_size > 500_000


def test_impute_numeric_columns(benchmark, table):
    imputed = benchmark(impute_numeric_columns, table)
    assert not any(
        imputed.missing_mask(c.name).any()
        for c in table.schema.columns
        if c.kind in IMPUTED_KINDS
    )


def test_discrete_levels(benchmark, table):
    names = [
        name
        for name in table.schema.predictors
        if table.schema.column(name).kind is not ColumnKind.CONTINUOUS
    ]

    def levels_of_every_discrete_column():
        return [screening.discrete_levels(table, name) for name in names]

    levels = benchmark(levels_of_every_discrete_column)
    assert len(levels) == len(names) == 105


def test_split_train_validation(benchmark, table):
    split = benchmark(split_train_validation, table, 0.6, 1)
    assert split.train.n_records + split.validation.n_records == table.n_records


def test_cluster_variables(benchmark, table):
    imputed = impute_numeric_columns(table)
    names = imputed.schema.predictors[::2][:N_CLUSTERED]
    values = np.column_stack([imputed.numeric_view(name) for name in names])
    corr = varclus.correlation_matrix_from_array(values, names)
    clusters = benchmark(varclus.cluster_variables, corr, n_clusters=N_CLUSTERS)
    assert len(clusters) == N_CLUSTERS


def test_correlation_matrix_with_gaps(benchmark, table):
    imputed = impute_numeric_columns(table)
    names = imputed.schema.predictors
    values = np.column_stack([imputed.numeric_view(name) for name in names])
    rng = np.random.default_rng(SPEC.seed)
    values[rng.random(values.shape) < SPEC.missing_rate] = np.nan
    corr = benchmark(varclus.correlation_matrix_from_array, values, names)
    assert corr.values.shape == (len(names), len(names))
