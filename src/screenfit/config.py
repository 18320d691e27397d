"""Run configuration: one JSON file drives the whole pipeline.

Every tunable the pipeline honors -- stage retention counts, IV band,
occupancy floor, level-merge alpha, split fraction and seed, stepwise
entry/stay p-values, the collinearity cutoff, and the classification
threshold -- lives here under a name describing its role, with defaults
matching the conventional values (p < 0.01 entry/stay, 40% correlation
cutoff, IV in [0.03, 0.5], 10% occupancy, 60/40 split, threshold 0.5).

Exactly one of `input` (csv + schema paths) or `synthetic` (generator
spec) must be present.  An optional `out_of_sample` block names a second
dataset to score; synthetic runs otherwise score a sibling table drawn
from the same generator structure with sample index 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

from .errors import ValidationError, require_number, require_string, require_whole
from .screening import StagePlan
from .synthgen import SyntheticSpec
from .table import read_json


@dataclass(frozen=True)
class InputConfig:
    csv: str
    schema: str


@dataclass(frozen=True)
class SplitConfig:
    frac: float = 0.6
    seed: int = 17

    def __post_init__(self):
        require_number("split.frac", self.frac, "(0, 1)")
        require_whole("split.seed", self.seed, 0)


@dataclass(frozen=True)
class StepwiseConfig:
    p_enter: float = 0.01
    p_stay: float = 0.01
    max_terms: int | None = None

    def __post_init__(self):
        require_number("stepwise.p_enter", self.p_enter, "(0, 1)")
        require_number("stepwise.p_stay", self.p_stay, "(0, 1)")
        if self.max_terms is not None:
            require_whole("stepwise.max_terms", self.max_terms, 1)


@dataclass(frozen=True)
class PipelineConfig:
    plan: StagePlan
    split: SplitConfig = field(default_factory=SplitConfig)
    stepwise: StepwiseConfig = field(default_factory=StepwiseConfig)
    prune_cutoff: float = 0.40
    threshold: float = 0.5
    out_dir: str = "out"
    input: InputConfig | None = None
    synthetic: SyntheticSpec | None = None
    out_of_sample: InputConfig | None = None

    def __post_init__(self):
        if (self.input is None) == (self.synthetic is None):
            raise ValidationError(
                "exactly one of 'input' and 'synthetic' must be present"
            )
        require_number("prune_cutoff", self.prune_cutoff, "[0, 1]")
        require_number("threshold", self.threshold, "[0, 1]")
        require_string("out_dir", self.out_dir)
        for section, paths in (("input", self.input), ("out_of_sample", self.out_of_sample)):
            if paths is not None:
                require_string(f"{section}.csv", paths.csv)
                require_string(f"{section}.schema", paths.schema)

    def with_seed(self, seed: int) -> "PipelineConfig":
        """Override every seed from one master value: the generator takes
        the seed itself, the split takes seed + 1."""
        cfg = self
        if cfg.synthetic is not None:
            cfg = replace(cfg, synthetic=replace(cfg.synthetic, seed=seed))
        return replace(cfg, split=replace(cfg.split, seed=seed + 1))

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        """Build a config from its dict form; absent or null keys take their defaults."""
        fields = {k: v for k, v in d.items() if v is not None}
        for name, build in _SECTIONS.items():
            if name in fields:
                try:
                    fields[name] = build(fields[name])
                except (KeyError, TypeError) as exc:
                    raise ValidationError(f"config section {name!r}: {exc}") from exc
        try:
            return cls(**fields)
        except TypeError as exc:
            raise ValidationError(f"malformed config: {exc}") from exc


_SECTIONS = {
    "plan": lambda d: StagePlan(**d),
    "split": lambda d: SplitConfig(**d),
    "stepwise": lambda d: StepwiseConfig(**d),
    "input": lambda d: InputConfig(**d),
    "synthetic": SyntheticSpec.from_dict,
    "out_of_sample": lambda d: InputConfig(**d),
}


def load_config(path: str | Path) -> PipelineConfig:
    return read_json(path, "config file", PipelineConfig.from_dict)
