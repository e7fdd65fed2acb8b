"""Message relay on a ring: simulators, exact solvers, closed forms.

Two models of m walkers carrying a message around a circle: a
synchronous lattice walk with per-round direction flips, and its
continuous-time scaling limit with Poisson direction switching.  The
package computes the long-run message speed, transmission cost, and
direction occupation three independent ways (Monte Carlo, stationary
linear solve, closed form) and ships the acceptance checklist that pits
them against each other.
"""
from .closed_form import (
    cost_continuous,
    cost_discrete,
    dimensionless,
    direction_prob_continuous,
    direction_prob_discrete,
    scaling_limit_error,
    speed_continuous,
    speed_discrete,
)
from .continuous import sample_walker_states, simulate_continuous
from .discrete import simulate_discrete
from .errors import RelayError
from .estimators import (
    RunReport,
    cost_estimate,
    direction_estimate,
    excursion_classifier,
    kac_check,
    merge,
    speed_estimate,
    uniformity_test,
)
from .exact import (
    apply_generator,
    build_reduced_chain,
    exact_metrics,
    hitting_prob_oracle,
    solve_trace_bvp,
)
from .model import ContinuousConfig, DiscreteConfig, SeedSpec, State

__version__ = "0.1.0"

__all__ = [
    "ContinuousConfig",
    "DiscreteConfig",
    "RelayError",
    "RunReport",
    "SeedSpec",
    "State",
    "apply_generator",
    "build_reduced_chain",
    "cost_continuous",
    "cost_discrete",
    "cost_estimate",
    "dimensionless",
    "direction_estimate",
    "direction_prob_continuous",
    "direction_prob_discrete",
    "exact_metrics",
    "excursion_classifier",
    "hitting_prob_oracle",
    "kac_check",
    "merge",
    "sample_walker_states",
    "scaling_limit_error",
    "simulate_continuous",
    "simulate_discrete",
    "solve_trace_bvp",
    "speed_continuous",
    "speed_discrete",
    "speed_estimate",
    "uniformity_test",
]
