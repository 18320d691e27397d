from dataclasses import asdict

import pytest

from screenfit.config import PipelineConfig
from screenfit.errors import ValidationError

PLAN = {"retain_after_chi2": 40, "retain_after_t": 30, "retain_after_iv": 20, "final_retain": 8}

SYNTHETIC = {
    "n_signal": 100,
    "n_background": 900,
    "n_informative": 5,
    "n_noise": 45,
    "kind_mix": {"binary": 0.5, "categorical": 0.5},
    "beta_range": [0.2, 0.9],
    "missing_rate": 0.05,
    "seed": 3,
}


def test_synthetic_config_round_trips():
    config = PipelineConfig.from_dict({"plan": PLAN, "synthetic": SYNTHETIC, "threshold": 0.3})
    assert PipelineConfig.from_dict(asdict(config)) == config


def test_input_config_round_trips():
    config = PipelineConfig.from_dict(
        {
            "plan": PLAN | {"iv_min": 0.01},
            "split": {"frac": 0.7, "seed": 4},
            "stepwise": {"p_enter": 0.05, "p_stay": 0.02, "max_terms": 6},
            "input": {"csv": "train.csv", "schema": "schema.json"},
            "out_of_sample": {"csv": "test.csv", "schema": "schema.json"},
        }
    )
    assert PipelineConfig.from_dict(asdict(config)) == config


def test_with_seed_drives_generator_and_split():
    config = PipelineConfig.from_dict({"plan": PLAN, "synthetic": SYNTHETIC}).with_seed(40)
    assert config.synthetic.seed == 40
    assert config.split.seed == 41


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"split": {"seed": -3}}, "split.seed"),
        ({"split": {"seed": 1.5}}, "split.seed"),
        ({"split": {"seed": "4"}}, "split.seed"),
        ({"synthetic": SYNTHETIC | {"seed": -1}}, "synthetic.seed"),
        ({"synthetic": SYNTHETIC | {"seed": 3.0}}, "synthetic.seed"),
        ({"stepwise": {"max_terms": 2.5}}, "stepwise.max_terms"),
        ({"stepwise": {"max_terms": 0}}, "stepwise.max_terms"),
        ({"stepwise": {"max_terms": True}}, "stepwise.max_terms"),
    ],
)
def test_seeds_and_max_terms_must_be_whole_numbers(doc, field):
    with pytest.raises(ValidationError, match=field):
        PipelineConfig.from_dict({"plan": PLAN, "synthetic": SYNTHETIC} | doc)


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"plan": PLAN | {"retain_after_chi2": 40.5}}, "plan.retain_after_chi2"),
        ({"plan": PLAN | {"retain_after_t": 30.0}}, "plan.retain_after_t"),
        ({"plan": PLAN | {"retain_after_iv": "20"}}, "plan.retain_after_iv"),
        ({"plan": PLAN | {"final_retain": 8.5}}, "plan.final_retain"),
        ({"plan": PLAN | {"final_retain": 0}}, "plan.final_retain"),
        ({"synthetic": SYNTHETIC | {"n_signal": 100.5}}, "synthetic.n_signal"),
        ({"synthetic": SYNTHETIC | {"n_background": 0}}, "synthetic.n_background"),
        ({"synthetic": SYNTHETIC | {"n_informative": True}}, "synthetic.n_informative"),
        ({"synthetic": SYNTHETIC | {"n_noise": 45.5}}, "synthetic.n_noise"),
        ({"synthetic": SYNTHETIC | {"n_noise": -1}}, "synthetic.n_noise"),
        ({"synthetic": SYNTHETIC | {"n_correlated_pairs": 1.5}}, "synthetic.n_correlated_pairs"),
    ],
)
def test_counts_must_be_whole_numbers(doc, field):
    with pytest.raises(ValidationError, match=field):
        PipelineConfig.from_dict({"plan": PLAN, "synthetic": SYNTHETIC} | doc)


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"threshold": True}, "threshold"),
        ({"prune_cutoff": False}, "prune_cutoff"),
        ({"split": {"frac": "0.6"}}, "split.frac"),
        ({"stepwise": {"p_enter": True}}, "stepwise.p_enter"),
        ({"stepwise": {"p_stay": "0.01"}}, "stepwise.p_stay"),
        ({"plan": PLAN | {"iv_min": False}}, "plan.iv_min"),
        ({"plan": PLAN | {"iv_max": True}}, "plan.iv_max"),
        ({"plan": PLAN | {"occupancy_min": False}}, "plan.occupancy_min"),
        ({"plan": PLAN | {"level_merge_alpha": False}}, "plan.level_merge_alpha"),
        ({"plan": PLAN | {"iv_smoothing": "0.5"}}, "plan.iv_smoothing"),
        ({"synthetic": SYNTHETIC | {"missing_rate": False}}, "synthetic.missing_rate"),
        ({"synthetic": SYNTHETIC | {"correlated_r": "0.8"}}, "synthetic.correlated_r"),
        ({"synthetic": SYNTHETIC | {"beta_range": [True, 0.9]}}, r"synthetic.beta_range\[0\]"),
        ({"synthetic": SYNTHETIC | {"beta_range": [0.2, "0.9"]}}, r"synthetic.beta_range\[1\]"),
        ({"synthetic": SYNTHETIC | {"kind_mix": {"binary": True}}}, "synthetic.kind_mix.binary"),
    ],
)
def test_real_valued_fields_must_be_numbers(doc, field):
    with pytest.raises(ValidationError, match=f"{field} must be a finite number"):
        PipelineConfig.from_dict({"plan": PLAN, "synthetic": SYNTHETIC} | doc)


@pytest.mark.parametrize("synthetic", [SYNTHETIC | {"beta_range": [0.5]}, [SYNTHETIC]])
def test_malformed_synthetic_spec(synthetic):
    with pytest.raises(ValidationError, match="malformed synthetic spec"):
        PipelineConfig.from_dict({"plan": PLAN, "synthetic": synthetic})


INPUT = {"csv": "train.csv", "schema": "schema.json"}


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"synthetic": SYNTHETIC, "out_dir": 5}, "out_dir"),
        ({"input": INPUT | {"csv": 0}}, "input.csv"),
        ({"input": INPUT | {"schema": 0}}, "input.schema"),
        ({"input": INPUT, "out_of_sample": INPUT | {"csv": ["a.csv"]}}, "out_of_sample.csv"),
        ({"input": INPUT, "out_of_sample": INPUT | {"schema": 1.5}}, "out_of_sample.schema"),
    ],
)
def test_paths_must_be_strings(doc, field):
    with pytest.raises(ValidationError, match=f"{field} must be a string"):
        PipelineConfig.from_dict({"plan": PLAN} | doc)


def test_with_seed_rejects_a_negative_seed():
    config = PipelineConfig.from_dict({"plan": PLAN, "synthetic": SYNTHETIC})
    with pytest.raises(ValidationError, match="synthetic.seed"):
        config.with_seed(-5)
    # with an input file the split seed, seed + 1, is the first to go negative
    config = PipelineConfig.from_dict({"plan": PLAN, "input": {"csv": "a.csv", "schema": "s.json"}})
    assert config.with_seed(-1).split.seed == 0
    with pytest.raises(ValidationError, match="split.seed"):
        config.with_seed(-2)
