import pytest

from screenfit import synthgen
from screenfit.synthgen import SyntheticSpec


def bisection_200_rounds(count, want):
    """The intercept search before it stopped early: always 200 rounds."""
    lo_c, hi_c = -synthgen.MAX_INTERCEPT, synthgen.MAX_INTERCEPT
    for _ in range(200):
        mid = 0.5 * (lo_c + hi_c)
        if count(mid) < want:
            lo_c = mid
        else:
            hi_c = mid
    return hi_c


SPECS = [
    SyntheticSpec(
        n_signal=900, n_background=1500, n_informative=8, n_noise=42,
        kind_mix={"binary": 0.5, "categorical": 0.1, "likelihood": 0.25, "continuous": 0.15},
        beta_range=(0.5, 1.5), seed=11,
    ),
    SyntheticSpec(
        n_signal=150, n_background=2850, n_informative=5, n_noise=20,
        kind_mix={"binary": 0.2, "categorical": 0.2, "likelihood": 0.2, "continuous": 0.4},
        beta_range=(0.3, 2.5), missing_rate=0.05, seed=3, n_correlated_pairs=2,
    ),
]


@pytest.mark.parametrize("spec", SPECS)
def test_intercept_matches_the_200_round_bisection(spec, monkeypatch):
    calibrate = synthgen._calibrate_intercept
    seen = []

    def checked(count, want):
        evaluated = []

        def counting(c):
            evaluated.append(c)
            return count(c)

        got = calibrate(counting, want)
        seen.append((got, bisection_200_rounds(count, want), len(evaluated)))
        return got

    monkeypatch.setattr(synthgen, "_calibrate_intercept", checked)
    _, truth = synthgen.generate(spec)
    [(got, reference, evaluations)] = seen
    assert got == reference == truth.intercept
    assert evaluations < 100  # 2 feasibility checks + the rounds until a fixed point
