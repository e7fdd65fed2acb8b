"""Exact finite-state computations for the two-walker relay.

Three independent exact routes live here:

* the reduced chain: the lattice relay seen through the gap between the
  two walkers, their directions, and who carries the message.  Solving
  for its stationary law gives speed and handoff rate by linear algebra
  alone, with no appeal to the closed-form expressions.

* the ladder system: between contacts, the walker gap performs a
  persistent (direction-remembering) walk on half-lap rungs.  The
  probability that an excursion wraps all the way around rather than
  closing is pinned down twice, by solving the linear boundary-value
  recursion and by absorbing-chain linear algebra.

* the continuum generator: a direct implementation of the process
  generator, plus the two harmonic-type functions whose drift
  identities certify the continuum formulas.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import errors
from .model import (
    ContinuousConfig,
    validate_continuous,
    validate_flip_prob,
    validate_sites,
)

# ----------------------------------------------------------------------
# Reduced lattice chain: state = (gap, d1, d2, carrier)


@dataclass
class ReducedChain:
    """Transition structure of the gap/direction/carrier chain.

    States are tuples (gap, d1, d2, carrier) with gap = (x1 - x2) mod
    n_sites and carrier in {0, 1}, held as the codes 8 gap + 4 [d1 < 0]
    + 2 [d2 < 0] + carrier in ascending order (_decode reads them back).
    The two co-located states in which the carrier moves
    counter-clockwise next to a clockwise partner are excluded: a handoff
    resolves them instantly, so they are never observed after an update.
    """

    codes: np.ndarray = field(repr=False)
    transition: sp.csr_matrix = field(repr=False)
    jump_prob: np.ndarray = field(repr=False)

    @property
    def n_states(self) -> int:
        return len(self.codes)


def _decode(code: np.ndarray) -> tuple:
    """gap, d1, d2 and carrier of state codes."""
    return code // 8, 1 - 2 * (code // 4 % 2), 1 - 2 * (code // 2 % 2), code % 2


def build_reduced_chain(n_sites: int, flip_prob: float) -> ReducedChain:
    """Enumerate the 8 * n_sites - 2 states and their one-round kernel.

    State (gap, d1, d2, carrier) has code 8 gap + 4 [d1 < 0] + 2 [d2 < 0]
    + carrier, and states are listed in code order.  Codes 3 and 4 are
    the two excluded contact states, so code c sits at index c - 2 [c > 4].
    """
    import scipy.sparse as sp

    n = validate_sites(n_sites)
    eps = validate_flip_prob(flip_prob)

    code = np.arange(8 * n)
    code = code[(code != 3) & (code != 4)]
    gap, d1, d2, carrier = _decode(code)

    # the four flip outcomes (s1, s2) of one round, in the order
    # (keep, keep), (keep, flip), (flip, keep), (flip, flip)
    s1, s2 = np.array([1, 1, -1, -1]), np.array([1, -1, 1, -1])
    prob = np.array([(1 - eps) * (1 - eps), (1 - eps) * eps,
                     eps * (1 - eps), eps * eps])
    new_gap = ((gap + d1 - d2) % n)[:, None]
    nd1, nd2 = d1[:, None] * s1, d2[:, None] * s2
    # meeting with opposite directions: the clockwise mover carries on
    new_carrier = np.where((new_gap == 0) & (nd1 != nd2), nd1 < 0, carrier[:, None])
    jump_prob = ((new_carrier != carrier[:, None]) * prob).sum(axis=1)
    dest = 8 * new_gap + 4 * (nd1 < 0) + 2 * (nd2 < 0) + new_carrier
    k = len(code)
    transition = sp.coo_matrix(
        (np.tile(prob, k),
         (np.repeat(np.arange(k), 4), (dest - 2 * (dest > 4)).ravel())),
        shape=(k, k),
    ).tocsr()
    return ReducedChain(code, transition, jump_prob)


def stationary(chain: ReducedChain) -> np.ndarray:
    """Stationary distribution of the reduced chain.

    Solves (P^T - I) pi = 0 with pi_0 pinned to 1 and its first, redundant
    equation dropped, then normalises.  The system is nonsingular
    whenever the chain is irreducible, which the odd-site validation
    guarantees, and stays as sparse as P (a row of ones would fill in).
    A residual max |P^T pi - pi| above 1e-10 fails the solve.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    n = chain.n_states
    a = (chain.transition.T - sp.identity(n, format="csr")).tocsc()
    pi = np.ones(n)
    try:
        pi[1:] = spla.splu(a[1:, 1:]).solve(-a[1:, 0].toarray().ravel())
    except RuntimeError as err:  # an exactly singular factor
        raise errors.RelayError(f"stationary solve failed: {err}") from err

    residual = np.abs(chain.transition.T @ pi - pi).max()
    if not (residual <= 1e-10 and pi.min() >= -1e-12):
        raise errors.RelayError(
            f"stationary solve failed: residual {residual:.3e}, min {pi.min():.3e}"
        )
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


@dataclass(frozen=True)
class ExactMetrics:
    speed: float
    cost: float
    residual: float
    n_states: int


def exact_metrics(n_sites: int, flip_prob: float) -> ExactMetrics:
    """Speed and handoff rate from the stationary law, one solve."""
    chain = build_reduced_chain(n_sites, flip_prob)
    pi = stationary(chain)
    _, d1, d2, carrier = _decode(chain.codes)
    carrier_dir = np.where(carrier == 0, d1, d2).astype(float)
    speed = float(pi @ carrier_dir)
    cost = float(pi @ chain.jump_prob)
    residual = float(np.abs(chain.transition.T @ pi - pi).max())
    return ExactMetrics(speed, cost, residual, chain.n_states)


# ----------------------------------------------------------------------
# Gap excursions: ladder recursion and absorbing-chain oracle


@dataclass(frozen=True)
class TraceSolution:
    """Solution of the excursion boundary-value recursion.

    f[k] (k = 0..n_sites-1) is the wrap probability from rung k with the
    gap widening; g holds the narrowing-pattern values for k = -1 ..
    n_sites-2, stored with offset 1, so g(k) is g[k + 1] (g[0], for
    k = -1, is the formal value that closes the recursion at the lower
    boundary).  crossing_prob is the wrap probability of a fresh
    excursion, f[0]; the difference f(k) - g(k) is constant and equals
    it.
    """

    n_sites: int
    flip_prob: float
    crossing_prob: float
    f: np.ndarray
    g: np.ndarray


def solve_trace_bvp(n_sites: int, flip_prob: float) -> TraceSolution:
    """Solve the excursion recursion as one sparse linear system.

    Unknowns are f(0..N-1) and g(-1..N-2).  Interior equations:

        f(k)   = (1 - eps) f(k+1) + eps g(k)        k = 0 .. N-2
        g(k+1) = (1 - eps) g(k)   + eps f(k+1)      k = -1 .. N-3

    with boundaries g(0) = 0 (a narrowing gap one rung up closes) and
    f(N-1) = 1 (a widening gap one rung short of a full lap wraps).
    Each equation touches at most three unknowns.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    n = validate_sites(n_sites)
    eps = validate_flip_prob(flip_prob)

    # f block at 0..n-1, g block at n..2n-1 with offset 1; rows k and
    # n - 1 + k hold the two interior equations for k = 0 .. n-2
    k = np.arange(n - 1)
    r = n - 1 + k
    rows = np.concatenate((k, k, k, r, r, r, [2 * n - 2, 2 * n - 1]))
    cols = np.concatenate((k, k + 1, n + k + 1, n + k + 1, n + k, k, [n + 1, n - 1]))
    vals = np.append(np.repeat([1.0, -(1.0 - eps), -eps] * 2, n - 1), [1.0, 1.0])
    a = sp.csc_matrix((vals, (rows, cols)), shape=(2 * n, 2 * n))
    b = np.zeros(2 * n)
    b[-1] = 1.0

    solution = spla.spsolve(a, b)
    f = solution[:n].copy()
    g = solution[n:].copy()
    return TraceSolution(n, eps, float(f[0]), f, g)


def bvp_residual(sol: TraceSolution) -> float:
    """Largest violation of the recursion and boundary conditions."""
    n, eps, f, g = sol.n_sites, sol.flip_prob, sol.f, sol.g
    widening = f[:-1] - (1 - eps) * f[1:] - eps * g[1:]  # k = 0 .. n-2
    narrowing = g[1:] - (1 - eps) * g[:-1] - eps * f[:-1]  # k = -1 .. n-3
    return float(max(abs(sol.g[1]), abs(sol.f[n - 1] - 1.0),
                     np.abs(widening).max(), np.abs(narrowing).max()))


def hitting_prob_oracle(n_sites: int, flip_prob: float) -> float:
    """Wrap probability of a gap excursion, by absorbing-chain algebra.

    Builds the rung walk directly: from a widening rung the gap moves up
    one rung and the pattern then persists with probability 1 - eps or
    reverses with probability eps (narrowing rungs mirror this downward);
    rung 0 and rung n_sites absorb.  Solving the sparse system
    (I - Q) h = b for the start state gives the wrap probability with no
    reference to the recursion solved by solve_trace_bvp.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    n = validate_sites(n_sites)
    eps = validate_flip_prob(flip_prob)

    # Transient states: (k, widening) for k = 0..n-1, (k, narrowing) for
    # k = 1..n-1.  (0, narrowing) cannot occur: rung 0 is a contact.
    idx = {}
    for k in range(n):
        idx[(k, +1)] = len(idx)
    for k in range(1, n):
        idx[(k, -1)] = len(idx)
    size = len(idx)
    rows, cols, vals = [], [], []
    b = np.zeros(size)

    def add(src, rung, pattern, prob):
        if rung == n:
            b[src] += prob  # absorbed: wrapped
        elif rung == 0:
            pass  # absorbed: excursion closed
        else:
            rows.append(src)
            cols.append(idx[(rung, pattern)])
            vals.append(prob)

    for (k, pattern), src in idx.items():
        arrival = k + pattern
        add(src, arrival, pattern, 1.0 - eps)
        add(src, arrival, -pattern, eps)

    q = sp.csc_matrix((vals, (rows, cols)), shape=(size, size))
    h = spla.spsolve(sp.identity(size, format="csc") - q, b)
    return float(h[idx[(0, +1)]])


# ----------------------------------------------------------------------
# Continuum potentials of two walkers, generator
#
# Both potentials are (func, partials) pairs for apply_generator, and
# both read two walkers through the gap (x0 - x1) mod circumference, the
# clockwise distance from walker 1 to walker 0; the contact set is gap
# 0 with opposite directions.


def _gap(x, n: float) -> float:
    if len(x) != 2:
        raise errors.RelayError("the potentials need exactly 2 walkers")
    gap = (float(x[0]) - float(x[1])) % n
    return 0.0 if gap >= n else gap  # a tiny negative difference can round to n


def h_field(config: ContinuousConfig):
    """Expected-contact-time potential H: its generator drift is -1.

    On the contact set the value is pinned to -circumference / (2 *
    speed); elsewhere it is a quadratic in the gap plus direction terms.
    H(state) + t grows at unit rate in expectation until the next
    contact, which is what makes mean excursion lengths computable by
    optional stopping.
    """
    validate_continuous(config)
    n, v, r = config.circumference, config.speed, config.switch_rate

    def func(x, d, carrier):
        gap, d0, d1 = _gap(x, n), int(d[0]), int(d[1])
        if gap == 0.0 and d0 != d1:
            return -n / (2.0 * v)
        return (
            (n - 2.0 * gap) / (4.0 * v) * (d0 - d1)
            + (1.0 + d0 * d1) / (4.0 * r)
            + r * gap * (n - gap) / (2.0 * v * v)
        )

    def partials(x, d, carrier):
        dh_dgap = -(int(d[0]) - int(d[1])) / (2.0 * v) + r * (
            n - 2.0 * _gap(x, n)
        ) / (2.0 * v * v)
        return dh_dgap, -dh_dgap

    return func, partials


def v_field(config: ContinuousConfig):
    """Wrap probability V of the running excursion: generator drift 0.

    Measured relative to the carrier: the value is the probability that
    the carrier completes a net full lap around its partner before their
    next contact.  It is undefined on the contact set itself (the
    excursion there has just ended), so func raises there.
    """
    validate_continuous(config)
    n, v, r = config.circumference, config.speed, config.switch_rate
    norm = r * n + 2.0 * v
    slope = r / norm

    def func(x, d, carrier):
        gap, d0, d1 = _gap(x, n), int(d[0]), int(d[1])
        if gap == 0.0 and d0 != d1:
            raise errors.RelayError("wrap probability is undefined at a contact")
        if carrier == 0:
            gap_c, dd = gap, d0 - d1
        else:
            gap_c, dd = (n - gap) if gap > 0.0 else 0.0, d1 - d0
        return (r * gap_c + v * (1.0 + dd / 2.0)) / norm

    def partials(x, d, carrier):
        return (slope, -slope) if carrier == 0 else (-slope, slope)

    return func, partials


def apply_generator(
    func: Callable[[np.ndarray, np.ndarray, int], float],
    positions: Sequence[float],
    directions: Sequence[int],
    carrier: int,
    config: ContinuousConfig,
    partials: Callable[[np.ndarray, np.ndarray, int], np.ndarray],
) -> float:
    """Generator of the continuum relay applied to a state function.

    func(positions, directions, carrier) must be smooth in positions
    (circle-periodic) at the given state, with partials(positions,
    directions, carrier) its derivatives in each walker's position: the
    transport part is v * sum(d_j * partials_j).  The switching part
    sums r * (func with walker j's direction reversed - func).
    The carrier is held fixed: handoffs occur only on the contact set,
    which has measure zero and is excluded by the harmonic identities.
    """
    validate_continuous(config)
    x = np.asarray(positions, dtype=float) % config.circumference
    d = np.asarray(directions, dtype=int)
    v, r = config.speed, config.switch_rate

    grad = np.asarray(partials(x, d, carrier), dtype=float)
    drift = float(np.sum(v * d * grad))
    base = func(x, d, carrier)
    switch = 0.0
    for j in range(len(x)):
        flipped = d.copy()
        flipped[j] = -flipped[j]
        switch += func(x, flipped, carrier) - base
    return drift + r * switch

