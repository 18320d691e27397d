import screenfit.pipeline as pipeline
from screenfit.config import PipelineConfig
from screenfit.synthgen import generate
from screenfit.table import save_schema, save_table

CONFIG = {
    "plan": {"retain_after_chi2": 10, "retain_after_t": 8, "retain_after_iv": 6, "final_retain": 4},
    "synthetic": {
        "n_signal": 150,
        "n_background": 650,
        "n_informative": 4,
        "n_noise": 8,
        "kind_mix": {"binary": 0.5, "continuous": 0.5},
        "missing_rate": 0.05,
        "seed": 4,
    },
}


def test_out_of_sample_file_replaces_the_generated_sibling(tmp_path, monkeypatch):
    spec = PipelineConfig.from_dict(CONFIG).synthetic
    oos, _ = generate(spec, sample_index=2)
    save_table(oos, tmp_path / "oos.csv")
    save_schema(oos.schema, tmp_path / "oos_schema.json")
    out_of_sample = {"csv": str(tmp_path / "oos.csv"), "schema": str(tmp_path / "oos_schema.json")}
    config = PipelineConfig.from_dict(CONFIG | {"out_of_sample": out_of_sample})

    sample_indices = []

    def recording_generate(spec, sample_index=0):
        sample_indices.append(sample_index)
        return generate(spec, sample_index)

    monkeypatch.setattr(pipeline, "generate", recording_generate)
    result = pipeline.run_pipeline(config, tmp_path / "run")
    assert sample_indices == [0]
    assert result.score_sets["out_of_sample"].n == oos.n_records
    timings = result.manifest["timings"]
    assert {"out_of_sample_load", "out_of_sample_impute"} <= timings.keys()
    assert "out_of_sample_generate" not in timings


def test_generated_sibling_is_timed(tmp_path):
    result = pipeline.run_pipeline(PipelineConfig.from_dict(CONFIG), tmp_path / "run")
    assert {"out_of_sample_generate", "out_of_sample_impute"} <= result.manifest["timings"].keys()
