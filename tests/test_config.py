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
    assert PipelineConfig.from_dict(config.to_dict()) == config


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
    assert PipelineConfig.from_dict(config.to_dict()) == config


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


def test_with_seed_rejects_a_negative_seed():
    config = PipelineConfig.from_dict({"plan": PLAN, "synthetic": SYNTHETIC})
    with pytest.raises(ValidationError, match="synthetic.seed"):
        config.with_seed(-5)
    # with an input file the split seed, seed + 1, is the first to go negative
    config = PipelineConfig.from_dict({"plan": PLAN, "input": {"csv": "a.csv", "schema": "s.json"}})
    assert config.with_seed(-1).split.seed == 0
    with pytest.raises(ValidationError, match="split.seed"):
        config.with_seed(-2)
