"""The benchmark's workloads: pipeline configs built from a workload seed.

``tall`` and ``wide`` run ``run_pipeline`` on a synthetic config.  A run
cycles through ``DATASETS[workload]`` datasets, dataset j drawn with
``op_seed(seed, j)``, and reports the median over its datasets of the
fastest repetition on each.  ``tall`` takes five datasets because its
stepwise and screening work varies from one dataset to the next; on
``wide`` most of the time is screening, whose work is fixed by the
table's shape, so two datasets leave more repetitions of each.

``score`` runs ``score_table_file`` on one prepared CSV and model per
run: the model is the ``model.json`` of the ``tall`` config at
``op_seed(seed, 0)``, and the CSV is sample index 2 of the same
generator.

Both configs cap stepwise selection at ten terms.  Without the cap the
number of entered terms, and with it the number of IRLS fits, follows
the seed (9 to 24 terms on the seeds tried), and that spread swamps
every timing change a later commit could show.
"""

from __future__ import annotations

TALL_ROWS = 10_000
WIDE_ROWS = 4_000
MAX_TERMS = 10
SCORE_SAMPLE_INDEX = 2


DATASETS = {"tall": 5, "wide": 2, "score": 1}


def op_seed(seed: int, j: int) -> int:
    """Generator seed of dataset j in a run started with the given seed."""
    return seed * 1000 + j


def _config(rows: int, predictors: int, informative: int, kind_mix: dict,
            missing_rate: float, correlated_pairs: int, plan: tuple) -> dict:
    n_signal = rows // 10  # 10 % prevalence
    return {
        "plan": dict(
            zip(("retain_after_chi2", "retain_after_t", "retain_after_iv", "final_retain"), plan)
        ),
        "split": {"frac": 0.6, "seed": 1},
        "stepwise": {"p_enter": 0.01, "p_stay": 0.01, "max_terms": MAX_TERMS},
        "synthetic": {
            "n_signal": n_signal,
            "n_background": rows - n_signal,
            "n_informative": informative,
            "n_noise": predictors - informative,
            "kind_mix": kind_mix,
            "missing_rate": missing_rate,
            "seed": 0,
            "n_correlated_pairs": correlated_pairs,
        },
    }


def tall_config() -> dict:
    """Many rows, 5 % gaps, 8 correlated pairs: imputation and stepwise."""
    return _config(
        rows=TALL_ROWS,
        predictors=150,
        informative=20,
        kind_mix={"binary": 0.3, "categorical": 0.2, "likelihood": 0.2, "continuous": 0.3},
        missing_rate=0.05,
        correlated_pairs=8,
        plan=(130, 100, 60, 20),
    )


def wide_config() -> dict:
    """1500 predictors, mostly binary and categorical, no gaps: screening.

    The t stage must drop 600 multivalued columns (1300 -> 700), so at
    least 45 % of the predictors are likelihood or continuous.

    Open defect in the program, left to show: on about one dataset in a
    hundred, level merging collapses a noise categorical to one level;
    screening drops the variable but keeps its mapping, and run_pipeline
    then raises ComputationError in apply_level_mapping (op seeds 31004
    and 32004, for example).  A run counts such an operation as failed.
    """
    return _config(
        rows=WIDE_ROWS,
        predictors=1500,
        informative=20,
        kind_mix={"binary": 0.25, "categorical": 0.3, "likelihood": 0.2, "continuous": 0.25},
        missing_rate=0.0,
        correlated_pairs=0,
        plan=(1300, 700, 300, 40),
    )


CONFIGS = {"tall": tall_config, "wide": wide_config, "score": tall_config}
