from screenfit.config import PipelineConfig

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
