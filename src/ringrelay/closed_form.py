"""Closed-form long-run performance of the two-walker relay.

Each quantity here is an explicit rational (or rational-in-parameters)
expression: the long-run clockwise speed of the message, the long-run
rate of handoffs (the communication cost), and the long-run fraction of
time the carrier moves clockwise.  The simulators and the exact
finite-state solver must reproduce these numbers by entirely different
routes, which is the package's central consistency check.
"""
from __future__ import annotations

import math

from . import errors
from .model import ContinuousConfig, DiscreteConfig, is_real


def speed_discrete(n_sites: int, flip_prob: float) -> float:
    """Long-run sites-per-round speed of the message, lattice variant."""
    DiscreteConfig(n_sites, flip_prob)  # checks them
    n, eps = int(n_sites), float(flip_prob)
    return (1.0 - eps) / (2.0 * (1.0 + eps * (n - 2)))


def cost_discrete(n_sites: int, flip_prob: float) -> float:
    """Long-run handoffs per round, lattice variant."""
    return speed_discrete(n_sites, flip_prob) * float(flip_prob)


def direction_prob_discrete(n_sites: int, flip_prob: float) -> float:
    """Long-run fraction of rounds the carrier moves clockwise."""
    DiscreteConfig(n_sites, flip_prob)  # checks them
    n, eps = int(n_sites), float(flip_prob)
    return (3.0 + eps * (2 * n - 5)) / (4.0 * (1.0 + eps * (n - 2)))


def speed_continuous(circumference: float, speed: float, switch_rate: float) -> float:
    """Long-run message speed (length per unit time), continuum variant."""
    ContinuousConfig(circumference, speed, switch_rate)  # checks them
    return speed * speed / (2.0 * speed + switch_rate * circumference)


def cost_continuous(circumference: float, speed: float, switch_rate: float) -> float:
    """Long-run handoffs per unit time, continuum variant."""
    ContinuousConfig(circumference, speed, switch_rate)  # checks them
    return switch_rate * speed / (2.0 * speed + switch_rate * circumference)


def direction_prob_continuous(
    circumference: float, speed: float, switch_rate: float
) -> float:
    """Long-run fraction of time the carrier moves clockwise."""
    ContinuousConfig(circumference, speed, switch_rate)  # checks them
    rn = switch_rate * circumference
    return (3.0 * speed + rn) / (2.0 * (2.0 * speed + rn))


def dimensionless(alpha: float) -> float:
    """1 / (2 + alpha), onto which both normalised quantities collapse:
    the message speed divided by the walker speed, and the handoff rate
    divided by the switch rate (cost = (r / v) speed on the continuum).

    alpha = r N / v is the expected number of direction reversals a
    walker makes while covering one full circle.
    """
    if not (is_real(alpha) and 0.0 < alpha < math.inf):
        raise errors.RelayError(f"alpha must be > 0 and finite, got {alpha!r}")
    return 1.0 / (2.0 + alpha)


def scaling_limit_error(
    n_sites: int, switch_rate: float, circumference: float, speed: float = 1.0
) -> float:
    """Relative gap between the lattice speed and its continuum limit.

    The lattice model with 2 * n_sites * speed * flip_prob equal to
    switch_rate * circumference discretises the continuum model; as
    n_sites grows the lattice speed converges to the continuum speed (in
    circle units).  Returns the relative error at finite n_sites.  The
    rate-normalised cost, (switch_rate / flip_prob) cost_discrete against
    cost_continuous, has the same relative error, since cost = flip_prob
    speed on the lattice and (switch_rate / speed) speed on the
    continuum.  For the canonical comparison (speed 1, rate 1,
    circumference 1) the error is 1 / (6 * n_sites - 4).
    """
    n = int(DiscreteConfig(n_sites, 0.5).n_sites)  # checks the site count alone
    ContinuousConfig(circumference, speed, switch_rate)  # checks them
    eps = circumference * switch_rate / (2.0 * n * speed)
    target = speed_continuous(circumference, speed, switch_rate) / speed
    return abs(speed_discrete(n, eps) - target) / target  # speed_discrete checks eps
