"""The gate's Monte Carlo verdicts on synthetic runs: a check fails when
an estimate sits more than validation.SIGMA_BOUND standard errors off,
passes inside it, and records the z-value its verdict tests.  The
generator check fails on a mutated potential or generator."""
import math

import numpy as np
import pytest

from ringrelay import closed_form, exact, validation
from ringrelay.estimators import N_BATCHES, RunReport, speed_estimate

SE = 1e-3


def synthetic(speed=0.0, cost=0.0, clockwise=0.5, se=SE) -> RunReport:
    """A report whose speed, cost and clockwise-occupation estimates are
    the given points, each with batch-means standard error se."""
    # batch means point +- h in turn: sd h sqrt(n / (n - 1)), SE h / sqrt(n - 1)
    wiggle = se * math.sqrt(N_BATCHES - 1) * (-1.0) ** np.arange(N_BATCHES)
    return RunReport(
        params={"model": "discrete", "N": 5},
        total_time=float(N_BATCHES),
        burn_in=0.0,
        displacement_sum=speed * N_BATCHES,
        jump_count=cost * N_BATCHES,
        clockwise_time=clockwise * N_BATCHES,
        lap_length=5.0,
        batch_duration=1.0,
        batch_displacement=speed + wiggle,
        batch_jumps=cost + wiggle,
        batch_clockwise=clockwise + wiggle,
    )


class StubContext:
    """What the Monte Carlo checks read of an AcceptanceContext: the
    master seed and the named runs, here synthetic."""

    master_seed = validation.DEFAULT_SEED

    def __init__(self, **runs):
        self.runs = runs

    def run(self, name: str) -> list:
        return self.runs[name]


OFFSETS = [pytest.param(2.5, True, id="2.5SE-passes"),
           pytest.param(3.5, False, id="3.5SE-fails")]


def test_offsets_straddle_the_bound():
    assert 2.5 < validation.SIGMA_BOUND < 3.5


@pytest.mark.parametrize("offset,passes", OFFSETS)
@pytest.mark.parametrize("off", ["speed", "cost"])
def test_discrete_mc(offset, passes, off):
    shift = {"speed": 0.0, "cost": 0.0, off: offset * SE}
    report = synthetic(closed_form.speed_discrete(11, 0.1) + shift["speed"],
                       closed_form.cost_discrete(11, 0.1) + shift["cost"])
    result = validation.check_discrete_mc(StubContext(discrete_reference=[report]))
    assert result.passed is passes
    for key in ("speed", "cost"):
        assert result.measured[f"{key}_sigmas"] == pytest.approx(
            shift[key] / SE, abs=1e-9)


@pytest.mark.parametrize("offset,passes", OFFSETS)
@pytest.mark.parametrize("off", ["discrete", "continuous"])
def test_direction(offset, passes, off):
    shift = {"discrete": 0.0, "continuous": 0.0, off: offset * SE}
    d = synthetic(clockwise=closed_form.direction_prob_discrete(5, 0.3)
                  + shift["discrete"])
    c = synthetic(clockwise=closed_form.direction_prob_continuous(2.0, 1.0, 1.0)
                  + shift["continuous"])
    result = validation.check_direction(
        StubContext(discrete_regen=[d], continuous_reference=[c]))
    assert result.passed is passes
    for key in ("discrete", "continuous"):
        assert result.measured[f"{key}_sigmas"] == pytest.approx(
            shift[key] / SE, abs=1e-9)


@pytest.mark.parametrize("offset,passes", OFFSETS)
def test_initial_independence(offset, passes):
    # a pair's combined SE is hypot(SE, SE) = sqrt(2) SE
    speeds = [0.2, 0.2, 0.2 + offset * math.sqrt(2) * SE, 0.2, 0.2]
    runs = [synthetic(s) for s in speeds]
    result = validation.check_initial_independence(StubContext(independence=runs))
    assert result.passed is passes
    assert result.measured["max_pairwise_sigmas"] == pytest.approx(offset)


def test_zero_stderr_pair_fails_and_shows_nan():
    # two starts with equal constant batches (0.25 sums exactly, so their
    # SE is exactly 0): 0 / 0 standard errors apart
    runs = [synthetic(0.25, se=0.0), synthetic(0.25, se=0.0),
            *(synthetic(0.25) for _ in range(3))]
    assert [speed_estimate(r).stderr for r in runs[:2]] == [0.0, 0.0]
    result = validation.check_initial_independence(StubContext(independence=runs))
    assert result.passed is False
    assert math.isnan(result.measured["max_pairwise_sigmas"])
    assert result.line().endswith("max_pairwise_sigmas=nan")


H_FIELD, V_FIELD = exact.h_field, exact.v_field  # unpatched, for the mutants


def scaled_h(config):
    """H with its r gap (N - gap) / (2 v^2) term scaled by 1.01, in value
    and slope alike."""
    h = H_FIELD(config)
    n, v, r = config.circumference, config.speed, config.switch_rate

    def potential(gap, d0, d1, carrier):
        value, slope = h(gap, d0, d1, carrier)
        return (value + 0.01 * r * gap * (n - gap) / (2 * v * v),
                slope + 0.01 * r * (n - 2 * gap) / (2 * v * v))

    return potential


def v_slope_flipped(config):
    """V with the wrong sign on its slope when walker 1 carries."""
    v = V_FIELD(config)

    def potential(gap, d0, d1, carrier):
        value, slope = v(gap, d0, d1, carrier)
        return value, -slope if carrier == 1 else slope

    return potential


def transport_only(potential, gap, directions, carrier, config):
    """The generator without its switching sum."""
    d0, d1 = map(int, directions)
    return config.speed * (d0 - d1) * potential(gap, d0, d1, carrier)[1]


def test_generator_check_fails_on_mutants(monkeypatch):
    with validation.AcceptanceContext() as ctx:
        assert validation.check_generator(ctx).passed
        for name, mutant in [("h_field", scaled_h), ("v_field", v_slope_flipped),
                             ("apply_generator", transport_only)]:
            with monkeypatch.context() as patch:
                patch.setattr(exact, name, mutant)
                result = validation.check_generator(ctx)
            assert not result.passed, name
            assert max(result.measured["max_LH_dev"],
                       result.measured["max_LV_dev"]) > 1e-9, name
