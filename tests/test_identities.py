"""The carrier-direction identity, checked on the engines for m >= 3.

In one round (or instant) the carrier's direction D changes by
2 * (handoff) - 2 * D * (carrier flip), so on every path the handoff
count is J = F+ - F- + (D_T - D_0) / 2, where F+ and F- count the
carrier's own flips while it moves clockwise and counter-clockwise.
The carrier flips with probability epsilon per round on the lattice and
at rate r on the continuum, and its displacement is the clockwise minus
the counter-clockwise moving time (times v), so J - k * displacement has
mean zero with k = epsilon on the lattice and k = r / v on the
continuum: cost = k * speed, for every number of walkers.  No oracle is
replayed here; the walker paths and the relay come from the engines.
"""
import numpy as np
import pytest

from ringrelay import merge, simulate_continuous, simulate_discrete
from ringrelay.model import ContinuousConfig, DiscreteConfig, SeedSpec

CASES = {
    "lattice": (lambda m, seed: simulate_discrete(
        DiscreteConfig(21, 0.1, m), 200_000, seed), 0.1),
    # r / v = 0.7 / 1.5, not 1, so a swapped ratio would show
    "continuum": (lambda m, seed: simulate_continuous(
        ContinuousConfig(3.0, 1.5, 0.7, m), 4000.0, seed), 0.7 / 1.5),
}


@pytest.mark.parametrize("m", [3, 5])
@pytest.mark.parametrize("model", sorted(CASES))
def test_handoffs_are_k_times_displacement(model, m):
    run, k = CASES[model]
    report = merge([run(m, SeedSpec(m, replica)) for replica in range(2)])
    assert report.jump_count > 500
    excess = report.batch_jumps - k * report.batch_displacement
    stderr = excess.std(ddof=1) / np.sqrt(len(excess))
    assert abs(excess.mean()) <= 4 * stderr
