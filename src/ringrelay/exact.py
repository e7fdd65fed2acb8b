"""Exact finite-state computations for the two-walker relay.

Three independent exact routes live here:

* the reduced chain: the lattice relay seen through the gap between the
  two walkers, their directions, and who carries the message.  Solving
  for its stationary law gives speed and handoff rate by linear algebra
  alone, with no appeal to the closed-form expressions.  A round moves
  the gap by 0 or +-2, so with the states listed by j = gap (N + 1) / 2
  mod N the chain is block-cyclic-tridiagonal in 8-state blocks.  Odd-even
  cyclic reduction censors half the blocks at a time by GTH elimination
  (Grassmann, Taksar & Heyman 1985), whose pivots are sums of the
  probabilities left in a row rather than 1 minus a diagonal: no step
  subtracts, so the law keeps its relative accuracy down to the smallest
  flip probabilities, in O(N) numpy work.

* the ladder system: between contacts, the walker gap performs a
  persistent (direction-remembering) walk on half-lap rungs.  The
  probability that an excursion wraps all the way around rather than
  closing is pinned down twice, by eliminating the boundary-value
  recursion along the rungs and by censoring the absorbing rung walk,
  each in O(N) steps that add, multiply and divide nonnegative numbers.

* the continuum generator of two walkers, read through their gap,
  directions and carrier, and the two harmonic-type potentials whose
  drift identities certify the continuum formulas.

Everything here runs on numpy alone.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import errors
from .model import ContinuousConfig, DiscreteConfig

# ----------------------------------------------------------------------
# Reduced lattice chain: state = (gap, d1, d2, carrier)


@dataclass
class ReducedChain:
    """One-round kernel of the gap/direction/carrier chain.

    States are tuples (gap, d1, d2, carrier) with gap = (x1 - x2) mod
    n_sites and carrier in {0, 1}, held as the codes 8 gap + 4 [d1 < 0]
    + 2 [d2 < 0] + carrier in ascending order (_decode reads them back).
    The two co-located states in which the carrier moves
    counter-clockwise next to a clockwise partner are excluded: a handoff
    resolves them instantly, so they are never observed after an update.
    A round draws one of four flip outcomes, (keep, keep), (keep, flip),
    (flip, keep) and (flip, flip), with probabilities prob; state s
    moves to state next_state[s, o] under outcome o.
    """

    codes: np.ndarray = field(repr=False)
    next_state: np.ndarray = field(repr=False)
    prob: np.ndarray = field(repr=False)
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
    DiscreteConfig(n_sites, flip_prob)  # checks them
    n, eps = int(n_sites), float(flip_prob)

    code = np.arange(8 * n)
    code = code[(code != 3) & (code != 4)]
    gap, d1, d2, carrier = _decode(code)

    s1, s2 = np.array([1, 1, -1, -1]), np.array([1, -1, 1, -1])
    prob = np.array([(1 - eps) * (1 - eps), (1 - eps) * eps,
                     eps * (1 - eps), eps * eps])
    new_gap = ((gap + d1 - d2) % n)[:, None]
    nd1, nd2 = d1[:, None] * s1, d2[:, None] * s2
    # meeting with opposite directions: the clockwise mover carries on
    new_carrier = np.where((new_gap == 0) & (nd1 != nd2), nd1 < 0, carrier[:, None])
    jump_prob = ((new_carrier != carrier[:, None]) * prob).sum(axis=1)
    dest = 8 * new_gap + 4 * (nd1 < 0) + 2 * (nd2 < 0) + new_carrier
    return ReducedChain(code, dest - 2 * (dest > 4), prob, jump_prob)


def _gth_censor(w: np.ndarray, c: int) -> None:
    """Censor the first c states out of each chain of a batch, GTH style,
    in place.

    The batch runs along the last axis.  Rows and columns 0..c-1 of w are
    the censored states; the later rows and columns are kept states, not
    necessarily the same ones, that reach them or that they reach.
    Diagonals are ignored: the pivot of state t is the sum of its row
    over the states still in the window, which is 1 - P(t, t) formed
    without a subtraction (Grassmann, Taksar & Heyman 1985).  Column t
    is left divided by it below the diagonal, the weights _gth_unfold
    reads, and w[c:, c:] gains what the transitions between kept states
    gain.
    """
    for t in range(c):
        w[t + 1:, t] /= w[t, t + 1:].sum(axis=0)
        w[t + 1:, t + 1:] += w[t + 1:, t, None] * w[None, t, t + 1:]


def _gth_unfold(kept: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Unnormalised stationary masses of the c states _gth_censor
    censored, given the masses `kept` of the window's kept rows and
    `weights`, the window's first c columns as _gth_censor left them:
    each mass is the flow into its state from the states censored after
    it and from the kept ones."""
    c = weights.shape[1]
    mass = np.concatenate((np.zeros((c, kept.shape[1])), kept))
    for t in reversed(range(c)):
        mass[t] = (mass[t + 1:] * weights[t + 1:, t]).sum(axis=0)
    return mass[:c]


def _reduce(link: np.ndarray) -> tuple:
    """One odd-even cyclic reduction step.

    link[1 + step, :, :, j] is the b x b block of probabilities from
    block j to block j + step (mod m), step in (-1, 0, 1).  The odd
    blocks are censored out together, each in a window with the 2b
    states of its two even neighbours; the even blocks form the next
    level's block-cyclic-tridiagonal chain, with block 2i as block i.
    Returns that chain and the weights of the way back.
    """
    low, diag, up = link
    b, m = diag.shape[0], diag.shape[-1]
    odd = np.arange(1, m, 2)
    w = np.zeros((3 * b, 3 * b, len(odd)))
    for (r, c), x, j in [((0, 0), diag, odd), ((0, 1), low, odd), ((0, 2), up, odd),
                         ((1, 0), up, odd - 1), ((2, 0), low, (odd + 1) % m)]:
        w[r * b:(r + 1) * b, c * b:(c + 1) * b] = np.take(x, j, axis=-1)
    _gth_censor(w, b)
    gain = w[b:, b:]

    # odd block 2i + 1 links even blocks 2i and 2i + 2 (mod m), which
    # become blocks i and i + 1 (mod half)
    k, half = len(odd), (m + 1) // 2
    coarse = np.zeros((3, b, b, half))
    coarse[1] = diag[..., ::2]
    coarse[1, ..., :k] += gain[:b, :b]
    coarse[2, ..., :k] = gain[:b, b:]
    coarse[1, ..., 1:] += gain[b:, b:, :half - 1]
    coarse[0, ..., 1:] = gain[b:, :b, :half - 1]
    if m % 2:  # blocks m - 1 and 0 are both even and stay linked
        coarse[2, ..., -1], coarse[0, ..., 0] = up[..., -1], low[..., 0]
    else:  # block 0 is the upper neighbour of the last odd block
        coarse[1, ..., 0] += gain[b:, b:, -1]
        coarse[0, ..., 0] = gain[b:, :b, -1]
    return coarse, w[:, :b].copy()


def _block_masses(link: np.ndarray) -> np.ndarray:
    """Unnormalised stationary masses, b by m, of the
    block-cyclic-tridiagonal chain link laid out as _reduce reads it.

    Odd-even cyclic reduction censors half the blocks a level down to one
    block.  (At two blocks, block 0 is both neighbours of block 1 and
    enters its window twice; the two copies' gains add up.)  GTH censors
    that block's states but the last, skipping the all-zero rows of
    empty slots, and the masses are substituted back level by level.
    """
    levels = []
    while link.shape[-1] > 1:
        m = link.shape[-1]
        link, weights = _reduce(link)
        levels.append((m, weights))

    last = link.sum(axis=0)[..., 0]  # all three links lead back to block 0
    used = last.sum(axis=1) > 0
    w = last[np.ix_(used, used)][..., None]
    _gth_censor(w, len(w) - 1)
    mass = np.zeros((len(used), 1))
    mass[used] = np.concatenate((_gth_unfold(np.ones((1, 1)), w[:, :-1]), [[1.0]]))

    for m, weights in reversed(levels):
        fine = np.zeros((len(mass), m))
        fine[:, ::2] = mass
        odd = np.arange(1, m, 2)
        kept = np.concatenate((fine[:, odd - 1], fine[:, (odd + 1) % m]))
        fine[:, odd] = _gth_unfold(kept, weights)
        mass = fine
    return mass


# the slots (code % 8) of a block whose walkers head the same way, so
# that the gap stays, and those whose gap moves by +-2
SAME, APART = [0, 1, 6, 7], [2, 3, 4, 5]


def stationary(chain: ReducedChain) -> tuple[np.ndarray, float]:
    """Stationary distribution of the reduced chain, in code order, and
    its flow residual max |P^T pi - pi|.

    One round moves the gap by 0 or +-2, so listing the states by block
    j = gap (N + 1) / 2 mod N (N odd, so (N + 1) / 2 inverts 2) makes the
    chain block-cyclic-tridiagonal: 8 states a block, by code % 8 (6 at
    gap 0, whose two empty slots stay all zero), each block linked only
    to blocks j - 1 and j + 1.  The 4 states of a block whose walkers
    head the same way reach only their own block, so all of them are
    censored first, in one batch, leaving 4-state blocks.  Odd-even
    cyclic reduction (Bini, Latouche & Meini, Numerical Methods for
    Structured Markov Chains, 2005) then censors all odd blocks at once,
    level after level, down to one block; GTH solves that, and the
    masses are substituted back.  This is O(N) work in O(log N) batched
    steps.

    Every step adds or multiplies nonnegative numbers or divides by a
    pivot that is itself such a sum, so nothing is subtracted and each
    mass keeps its relative accuracy at any flip probability, where a
    solve of (P^T - I) pi = 0 forms 1 - P(s, s) ~ 2 eps by cancellation.
    A residual above 1e-10 fails the solve.
    """
    n = (chain.n_states + 2) // 8
    gap, d1, d2, _ = _decode(chain.codes)
    block, slot = gap * ((n + 1) // 2) % n, chain.codes % 8
    link = np.zeros((3, 8, 8, n))
    link[(1 + (d1 - d2) // 2)[:, None], slot[:, None], slot[chain.next_state],
         block[:, None]] = chain.prob

    # at the smallest subnormal eps a weight P(i, t) / pivot overflows;
    # the residual check then reports the failed solve
    with np.errstate(all="ignore"):
        low, diag, up = link
        below, above = (np.arange(n) - 1) % n, (np.arange(n) + 1) % n
        # the same-direction states of block j leave for block j's apart
        # states and are entered from those of blocks j - 1 and j + 1
        w = np.zeros((12, 8, n))
        w[:4] = diag[SAME][:, SAME + APART]
        w[4:8, :4] = np.take(up[APART][:, SAME], below, axis=-1)
        w[8:, :4] = np.take(low[APART][:, SAME], above, axis=-1)
        _gth_censor(w, 4)
        apart = link[:, APART][:, :, APART]
        apart[2] += np.take(w[4:8, 4:], above, axis=-1)
        apart[0] += np.take(w[8:, 4:], below, axis=-1)

        mass = np.zeros((8, n))
        mass[APART] = _block_masses(apart)
        kept = np.concatenate((np.take(mass[APART], below, axis=-1),
                               np.take(mass[APART], above, axis=-1)))
        mass[SAME] = _gth_unfold(kept, w[:, :4])
        pi = mass[slot, block]
        pi /= pi.sum()
    # the probability flow into each state against its own mass
    flow = np.bincount(chain.next_state.ravel(), minlength=len(pi),
                       weights=(pi[:, None] * chain.prob).ravel())
    residual = float(np.abs(flow - pi).max())
    if not residual <= 1e-10:
        raise errors.RelayError(f"stationary solve failed: residual {residual:.3e}")
    return pi, residual


@dataclass(frozen=True)
class ExactMetrics:
    speed: float
    cost: float
    residual: float
    n_states: int


def exact_metrics(n_sites: int, flip_prob: float) -> ExactMetrics:
    """Speed and handoff rate from the stationary law, one solve."""
    chain = build_reduced_chain(n_sites, flip_prob)
    pi, residual = stationary(chain)
    _, d1, d2, carrier = _decode(chain.codes)
    carrier_dir = np.where(carrier == 0, d1, d2).astype(float)
    speed = float(pi @ carrier_dir)
    cost = float(pi @ chain.jump_prob)
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
    """Solve the excursion recursion by elimination along the rungs.

    Unknowns are f(0..N-1) and g(-1..N-2).  Interior equations:

        f(k)   = (1 - eps) f(k+1) + eps g(k)        k = 0 .. N-2
        g(k+1) = (1 - eps) g(k)   + eps f(k+1)      k = -1 .. N-3

    with boundaries g(0) = 0 (a narrowing gap one rung up closes) and
    f(N-1) = 1 (a widening gap one rung short of a full lap wraps).
    Read as a walk that steps f(k) -> f(k+1) or g(k) and g(k) -> g(k-1)
    or f(k), the system is eliminated from the top rung down: f(k) =
    up[k] + down[k] g(k), where up[k] is the chance of wrapping before
    reaching g(k), and then g is substituted back from g(0) upward.
    Each step adds, multiplies or divides nonnegative numbers, so
    nothing is lost to cancellation at any flip probability.
    """
    DiscreteConfig(n_sites, flip_prob)  # checks them
    n, eps = int(n_sites), float(flip_prob)
    keep = 1.0 - eps

    up, down = [1.0] * n, [0.0] * n  # f(N-1) wraps
    for k in range(n - 2, -1, -1):
        # from f(k+1), the chance of reaching g(k) first is keep down'
        # over 1 - eps down', the loops g(k+1) -> f(k+1) summed out
        stay = up[k + 1] + keep * down[k + 1]
        up[k] = keep * up[k + 1] / stay
        down[k] = eps + keep * keep * down[k + 1] / stay
    g = [0.0] * n  # g(k) at g[k + 1]; g(0) = 0
    for k in range(1, n - 1):
        g[k + 1] = (keep * g[k] + eps * up[k]) / (up[k] + keep * down[k])
    f = np.array(up) + np.array(down) * np.array(g[1:] + [0.0])
    g[0] = -eps * f[0] / keep  # from g(0) = (1 - eps) g(-1) + eps f(0)
    return TraceSolution(n, eps, float(f[0]), f, np.array(g))


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
    rung 0 and rung n_sites absorb.  The transient states (k, widening),
    k = 0..n-1, and (k, narrowing), k = 1..n-1, are censored out rung by
    rung from the top, GTH style: each pivot is the sum of the weights
    leaving the state, never 1 minus its self-loop.  This gives the wrap
    probability from (0, widening) with no reference to the recursion
    solved by solve_trace_bvp.
    """
    DiscreteConfig(n_sites, flip_prob)  # checks them
    n, eps = int(n_sites), float(flip_prob)
    keep = 1.0 - eps

    # (k, widening) leaves for the wrap with weight `wrap` and for
    # (k, narrowing) with weight `narrow`; the rest of its row is a loop
    wrap, narrow = 1.0, 0.0  # k = n - 1: both arrivals wrap
    for _ in range(n - 1):
        # censor (k, widening) out of (k - 1, widening)'s row, then
        # (k, narrowing), which steps down to (k - 1, narrowing) with
        # 1 - eps and back to (k - 1, widening) with eps
        leave = wrap + narrow
        wrap, down = keep * wrap / leave, eps + keep * narrow / leave
        narrow = keep * down
    return wrap / (wrap + down)  # from rung 1, every step down closes


# ----------------------------------------------------------------------
# Continuum potentials of two walkers, generator
#
# Two walkers are Markov in (gap, d0, d1, carrier), gap = (x0 - x1) mod
# circumference, the clockwise distance from walker 1 to walker 0.  A
# potential maps a state to its value and its slope in the gap; the
# contact set is gap 0 with opposite directions.


def h_field(config: ContinuousConfig):
    """Expected-contact-time potential H: its generator drift is -1.

    On the contact set the value is pinned to -circumference / (2 *
    speed); elsewhere it is a quadratic in the gap plus direction terms.
    H(state) + t grows at unit rate in expectation until the next
    contact, which is what makes mean excursion lengths computable by
    optional stopping.
    """
    n, v, r = config.circumference, config.speed, config.switch_rate

    def potential(gap, d0, d1, carrier):
        slope = -(d0 - d1) / (2.0 * v) + r * (n - 2.0 * gap) / (2.0 * v * v)
        if gap == 0.0 and d0 != d1:
            return -n / (2.0 * v), slope
        return ((n - 2.0 * gap) / (4.0 * v) * (d0 - d1) + (1.0 + d0 * d1) / (4.0 * r)
                + r * gap * (n - gap) / (2.0 * v * v)), slope

    return potential


def v_field(config: ContinuousConfig):
    """Wrap probability V of the running excursion: generator drift 0.

    Measured relative to the carrier: the value is the probability that
    the carrier completes a net full lap around its partner before their
    next contact.  It is undefined on the contact set itself (the
    excursion there has just ended), so the potential raises there.
    """
    n, v, r = config.circumference, config.speed, config.switch_rate
    norm = r * n + 2.0 * v
    slope = r / norm

    def potential(gap, d0, d1, carrier):
        if gap == 0.0 and d0 != d1:
            raise errors.RelayError("wrap probability is undefined at a contact")
        if carrier == 0:
            return (r * gap + v * (1.0 + (d0 - d1) / 2.0)) / norm, slope
        gap_c = n - gap if gap > 0.0 else 0.0
        return (r * gap_c + v * (1.0 + (d1 - d0) / 2.0)) / norm, -slope

    return potential


def apply_generator(potential, gap: float, directions, carrier: int,
                    config: ContinuousConfig) -> float:
    """Generator of the two-walker continuum relay applied to a potential.

    potential(gap, d0, d1, carrier) gives a value and its slope in the
    gap, which moves at v (d0 - d1); switching adds r (value with d_j
    reversed - value) for each walker j.  The carrier is held fixed:
    handoffs occur only on the contact set, which has measure zero and
    is excluded by the harmonic identities.
    """
    n, v, r = config.circumference, config.speed, config.switch_rate
    if not (0.0 <= gap < n and len(directions) == 2
            and set(directions) <= {1, -1} and carrier in (0, 1)):
        raise errors.RelayError(
            "the generator needs a gap in [0, circumference), two directions of "
            f"+-1 and a carrier of 0 or 1; got {gap!r}, {directions!r}, {carrier!r}")
    d0, d1 = map(int, directions)
    base, slope = potential(gap, d0, d1, carrier)
    switch = (potential(gap, -d0, d1, carrier)[0] - base) + (
        potential(gap, d0, -d1, carrier)[0] - base)
    return v * (d0 - d1) * slope + r * switch
