"""The model's exact symmetries, held bit for bit by both engines.

Each relation maps one run to another whose report follows from it
exactly, at any walker count and horizon, so it needs no target value
and cannot fail by chance.  Powers of two scale floats exactly, and the
continuum tolerance is relative to the circumference.
- space: (L, v) -> (2L, 2v) leaves every count as it is and doubles
  every displacement;
- time: (v, r, horizon) -> (2v, 2r, horizon / 2) leaves every count and
  every displacement as they are and halves every duration;
- rotation: shifting an explicit start by whole sites on the lattice,
  or by a dyadic amount on the continuum, leaves the whole report as it
  is, since both engines measure every walker from walker 0's start;
- horizon: a run's trace up to a horizon is the first part of the trace
  of the same seed's run up to twice that horizon.
"""
import numpy as np
import pytest

from ringrelay.continuous import simulate_continuous
from ringrelay.discrete import simulate_discrete
from ringrelay.model import ContinuousConfig, DiscreteConfig, State

SEED = 7
WALKERS = [2, 3, 5, 10]
L, V, R = 3.0, 1.5, 0.7
HORIZON = 2000.0


def counts(report) -> dict:
    """The handoffs of a report, in all and per batch and cycle."""
    cycles = report.cycles
    return {
        "jumps": report.jump_count,
        "batch_jumps": report.batch_jumps.tolist(),
        "cycles": None if cycles is None else (
            cycles.lengths.count, cycles.handoffs, cycles.wraps),
    }


def lengths(report) -> dict:
    """The displacements and durations of a report."""
    return {
        "displacement": report.displacement_sum,
        "batch_displacement": report.batch_displacement.tolist(),
        "clockwise_time": report.clockwise_time,
        "batch_clockwise": report.batch_clockwise.tolist(),
        "total_time": report.total_time,
    }


def scaled(values: dict, displacement: float, duration: float) -> dict:
    """values with each displacement times displacement and each duration
    times duration."""
    scale = {"displacement": displacement, "batch_displacement": displacement,
             "clockwise_time": duration, "batch_clockwise": duration,
             "total_time": duration}
    return {key: np.multiply(value, scale[key]).tolist() for key, value in values.items()}


@pytest.mark.parametrize("m", WALKERS)
def test_space_scaling(m):
    base = simulate_continuous(ContinuousConfig(L, V, R, m), HORIZON, SEED)
    wide = simulate_continuous(ContinuousConfig(2 * L, 2 * V, R, m), HORIZON, SEED)
    assert counts(wide) == counts(base)
    assert lengths(wide) == scaled(lengths(base), 2.0, 1.0)


@pytest.mark.parametrize("m", WALKERS)
def test_time_scaling(m):
    base = simulate_continuous(ContinuousConfig(L, V, R, m), HORIZON, SEED)
    fast = simulate_continuous(ContinuousConfig(L, 2 * V, 2 * R, m), HORIZON / 2, SEED)
    assert counts(fast) == counts(base)
    assert lengths(fast) == scaled(lengths(base), 1.0, 0.5)


# explicit starts: walker positions, directions and the carrier
STARTS = {
    2: ([0, 4], [1, -1], 1),
    3: ([0, 4, 9], [1, -1, -1], 2),
    5: ([0, 4, 9, 13, 17], [1, -1, -1, 1, -1], 3),
    10: ([0, 2, 4, 6, 9, 11, 13, 15, 17, 19],
         [1, -1, -1, 1, -1, 1, 1, -1, -1, 1], 6),
}


def shifted(m: int, shift, size, scale=1) -> State:
    """STARTS[m] with positions times scale, shifted by shift mod size."""
    positions, directions, carrier = STARTS[m]
    return State((np.array(positions) * scale + shift) % size, np.array(directions),
                 carrier)


def fields(report) -> dict:
    """The counts and lengths of a report."""
    return {**counts(report), **lengths(report)}


@pytest.mark.parametrize("m", WALKERS)
def test_lattice_rotation(m):
    config = DiscreteConfig(21, 0.1, m)
    runs = [fields(simulate_discrete(config, 20_000, SEED, shifted(m, k, 21)))
            for k in (0, 5, 10, 15, 20)]
    assert all(run == runs[0] for run in runs)


@pytest.mark.parametrize("m", WALKERS)
def test_continuum_rotation(m):
    # positions in eighths, so each dyadic shift is exact
    config = ContinuousConfig(L, V, R, m)
    runs = [fields(simulate_continuous(config, HORIZON, SEED,
                                      shifted(m, shift, L, scale=0.125)))
            for shift in (0.0, 0.5, 1.0, 1.25)]
    assert all(run == runs[0] for run in runs)


def trace(report, count=None) -> dict:
    """The first count points of a report's trace, all if count is None."""
    return {key: getattr(report, key)[:count].tolist()
            for key in ("trace_times", "trace_speed", "trace_cost")}


@pytest.mark.parametrize("m", WALKERS)
def test_lattice_horizon_prefix(m):
    config = DiscreteConfig(21, 0.1, m)
    short = simulate_discrete(config, 10_000, SEED, trace_every=100)
    long = simulate_discrete(config, 20_000, SEED, trace_every=100)
    assert trace(long, 100) == trace(short)


@pytest.mark.parametrize("m", WALKERS)
def test_continuum_horizon_prefix(m):
    config = ContinuousConfig(L, V, R, m)
    short = simulate_continuous(config, HORIZON, SEED, trace_every=10.0)
    long = simulate_continuous(config, 2 * HORIZON, SEED, trace_every=10.0)
    assert trace(long, 200) == trace(short)
