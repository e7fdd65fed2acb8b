"""The engines' position reader `at` against the start and the meetings.

Both engines' _paths measure every walker's unwrapped position from
walker 0's start, each walker by a running sum of its own, and hand
model.relay the reader at(w, t, i=None) over them.  At time 0 the reader
gives the start relative to walker 0, mod the ring.  At every meeting
the clockwise member is the counter-clockwise one plus the meeting's
level in whole laps: exactly on the lattice, whose sites are integers,
and on the continuum to within GAP_BOUND of a lap.  There the positions
and the pair gaps that find the meetings are two running sums of the
same moves, and they part by roundoff only: at most 5e-12 at horizon
2e4 and 1.5e-10 at horizon 1e6 on the cases below, far from any lap.
"""
import numpy as np
import pytest

from ringrelay import continuous, discrete
from ringrelay.model import ContinuousConfig, DiscreteConfig, WalkerStreams, as_seed

SEED = 11
GAP_BOUND = 1e-9  # laps

# engine, config, horizon
CASES = [
    *[pytest.param(discrete, DiscreteConfig(21, 0.1, m), 20_000, id=f"lattice-m{m}")
      for m in (2, 3, 5)],
    *[pytest.param(continuous, ContinuousConfig(3.0, 1.5, 0.7, m), 2e4,
                   id=f"continuum-m{m}") for m in (2, 3, 5)],
    pytest.param(continuous, ContinuousConfig(2.0, 1.5, 0.7, 2), 1e6,
                 id="continuum-long"),
]


def size(config) -> float:
    """The ring's circumference: sites on the lattice."""
    if isinstance(config, DiscreteConfig):
        return config.n_sites
    return config.circumference


def blocks(engine, config, horizon):
    """The start of a uniform-random run and the blocks its _paths yields."""
    streams = WalkerStreams(as_seed(SEED), config.n_walkers)
    state, _ = engine._start(config, streams, "uniform-random")
    if engine is discrete:
        return state, discrete._paths(config, streams, state, horizon)
    return state, continuous._paths(config, streams, state, horizon,
                                    continuous.default_tol(config))


@pytest.mark.parametrize("engine, config, horizon", CASES)
def test_reader_starts_relative_to_walker_0(engine, config, horizon):
    state, paths = blocks(engine, config, horizon)
    _, _, _, _, _, at = next(paths)
    start = at(np.arange(config.n_walkers), 0)
    ring = size(config)
    assert np.array_equal(start % ring, (state.positions - state.positions[0]) % ring)


@pytest.mark.parametrize("engine, config, horizon", CASES)
def test_reader_meets_at_whole_laps(engine, config, horizon):
    _, paths = blocks(engine, config, horizon)
    ring, gaps = size(config), []
    for _, when, cw, ccw, level, at in paths:
        hit = np.arange(len(when))
        gaps.append(at(cw, when, hit) - at(ccw, when, hit) - ring * level)
    gaps = np.concatenate(gaps)
    assert len(gaps) > 100
    if engine is discrete:
        assert not gaps.any()
    else:
        assert np.abs(gaps).max() <= GAP_BOUND * ring
