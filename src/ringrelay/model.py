"""Shared model vocabulary: parameter sets, walker state, the start and
relay rules, geometry, seeding.

Two variants of the same relay mechanism are covered.  In the lattice
variant, walkers sit on the integers modulo an odd number of sites and
update in synchronous rounds; in the continuum variant they move at a
fixed speed on a circle of arbitrary positive length and reverse at the
arrivals of independent Poisson clocks.  Exactly one walker carries a
message at any time, and the message is handed off on contact from a
counter-clockwise mover to a clockwise mover, so the message itself only
ever travels clockwise.  Both variants share one State, one start check
(check_start, which needs no draw), one start rule (start_state, which
also tells a contact start), one relay rule (pass_message, over a run's
meetings and the start's at time 0), one path evaluator (walk) and one
relay layer: relay turns the walker paths and meetings that either
engine yields into Readings.  Parameter sets and seeds check themselves
on construction; State is the paper's state alone.  The reference step()
and continuum event operations of tests/oracles.py build on the same
State, their clock beside it, with an instant relay rule of their own.
"""
from __future__ import annotations

import math
import numbers
import sys
from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import errors

MAX_WALKERS = 100  # all-pairs engines: at this m a continuum chunk takes 250 MiB
MAX_CHECKPOINTS = 10**6  # trace points, ~100 B each


def is_real(value) -> bool:
    """A real number, not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def is_finite(value) -> bool:
    """A real number, not a bool, that float() takes to a finite float."""
    try:
        return is_real(value) and math.isfinite(value)
    except OverflowError:  # an int past sys.float_info.max
        return False


def is_int(value) -> bool:
    """A Python or numpy integer, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def validate_walkers(n_walkers: int) -> None:
    if not is_int(n_walkers):
        raise errors.RelayError(f"walker count must be an integer, got {n_walkers!r}")
    if n_walkers < 2:
        raise errors.RelayError(f"need at least 2 walkers, got {n_walkers}")
    if n_walkers > MAX_WALKERS:
        raise errors.RelayError(f"at most {MAX_WALKERS} walkers, got {n_walkers}")


@dataclass(frozen=True)
class DiscreteConfig:
    """Lattice variant parameters, checked on construction, held as Python numbers.

    n_sites: number of ring sites, odd and >= 3.
    flip_prob: probability a walker reverses direction in a round, in
        (0, 1) and a normal float (at least sys.float_info.min).
    n_walkers: number of walkers, in [2, MAX_WALKERS].
    """

    n_sites: int
    flip_prob: float
    n_walkers: int = 2

    def __post_init__(self):
        n, eps = self.n_sites, self.flip_prob
        if not is_int(n):
            raise errors.RelayError(f"site count must be an integer, got {n!r}")
        if n < 3:
            raise errors.RelayError(f"need at least 3 sites, got {n}")
        if n % 2 == 0:
            raise errors.RelayError(f"site count must be odd, got {n}")
        if n >= 2**62:  # the engine's unwrapped int64 sites stay in range
            raise errors.RelayError(f"site count must be below 2**62, got {n}")
        if not is_real(eps):
            raise errors.RelayError(f"flip probability must be a number, got {eps!r}")
        if not (0.0 < eps < 1.0):  # at 0 no walker turns, at 1 all move periodically
            raise errors.RelayError(f"flip probability must lie in (0, 1), got {eps!r}")
        if eps < sys.float_info.min:  # fewer than 53 bits, which the exact solves lose
            raise errors.RelayError(
                f"flip probability must be at least {sys.float_info.min!r}, the "
                f"smallest normal float, got {eps!r}")
        validate_walkers(self.n_walkers)
        object.__setattr__(self, "n_sites", int(n))
        object.__setattr__(self, "flip_prob", float(eps))


@dataclass(frozen=True)
class ContinuousConfig:
    """Continuum variant parameters, checked on construction, held as floats.

    circumference: circle length, finite and > 0.
    speed: walker speed, finite and > 0.
    switch_rate: Poisson rate of direction reversals, finite and > 0.
    n_walkers: number of walkers, in [2, MAX_WALKERS].
    """

    circumference: float
    speed: float = 1.0
    switch_rate: float = 1.0
    n_walkers: int = 2

    def __post_init__(self):
        for key in ("circumference", "speed", "switch_rate"):
            name, value = key.replace("_", " "), getattr(self, key)
            if not is_real(value):
                raise errors.RelayError(f"{name} must be a number, got {value!r}")
            if not (is_finite(value) and value > 0.0):
                raise errors.RelayError(f"{name} must be > 0 and finite, got {value!r}")
            object.__setattr__(self, key, float(value))
        validate_walkers(self.n_walkers)


@dataclass(frozen=True)
class SeedSpec:
    """Deterministic seed derivation for one replica of one experiment.

    The same (master, replica) pair always yields the same substreams,
    and distinct replicas get statistically independent ones.
    """

    master: int
    replica: int = 0

    def __post_init__(self):
        for name in ("master", "replica"):
            if not (is_int(value := getattr(self, name)) and value >= 0):
                raise errors.RelayError(
                    f"seed {name} must be an integer >= 0, got {value!r}")
            object.__setattr__(self, name, int(value))

    def child(self, index: int) -> np.random.SeedSequence:
        return np.random.SeedSequence(self.master, spawn_key=(self.replica, index))


class WalkerStreams:
    """One random stream per walker plus an auxiliary stream.

    Walker j's stream drives only walker j's direction randomness, so a
    trajectory consumes each stream identically whether steps are drawn
    one at a time or in vectorised blocks.  The auxiliary stream handles
    initial-state draws and the rare uniform choice among several
    simultaneous handoff candidates; keeping it separate means those
    choices never perturb the walkers' own randomness.
    """

    def __init__(self, seed: SeedSpec, n_walkers: int):
        self.n_walkers = n_walkers
        self.aux = np.random.Generator(np.random.PCG64(seed.child(0)))
        self.walker = [
            np.random.Generator(np.random.PCG64(seed.child(1 + j)))
            for j in range(n_walkers)
        ]

    def choose(self, n: int) -> int:
        """Uniform index in range(n) from the auxiliary stream."""
        if n == 1:
            return 0
        return int(self.aux.integers(n))


def as_seed(seed) -> SeedSpec:
    return seed if isinstance(seed, SeedSpec) else SeedSpec(seed)


@dataclass
class State:
    """Walkers and message at one instant, on either ring: positions
    (sites, or points in [0, circumference)) and directions +1 / -1 as
    arrays of shape (m,), and the carrier's index.  Nothing else: the
    engines draw every switch from the walker streams, and the oracles of
    tests/oracles.py keep their clock beside it."""

    positions: np.ndarray
    directions: np.ndarray
    carrier: int


def check_start(initial, m: int, size, end, every) -> None:
    """Every check of a run's start and trace spacing, none of which draws:
    m walkers on a ring of the given size up to end, an integer on the lattice."""
    whole = is_int(end)
    if isinstance(initial, State):
        x, d = np.asarray(initial.positions), np.asarray(initial.directions)
        if x.shape != (m,) or d.shape != (m,):
            raise errors.RelayError(f"positions and directions must list {m} walkers")
        if not (x.dtype.kind in "iuf" and np.all((x >= 0) & (x < size))):
            raise errors.RelayError(f"positions must lie in [0, {size})")
        if not (d.dtype.kind in "iuf" and np.all(np.isin(d, (1, -1)))):
            raise errors.RelayError("directions must be +1 or -1")
        if not (is_int(initial.carrier) and 0 <= initial.carrier < m):
            raise errors.RelayError(f"carrier must be an integer in [0, {m})")
        if whole and np.any(x % 1):  # the engine's int64 sites would truncate them
            raise errors.RelayError("positions must be whole sites on the lattice")
    elif initial == "regeneration" and m != 2:
        raise errors.RelayError("regeneration start is defined for 2 walkers")
    elif initial not in ("uniform-random", "regeneration"):
        raise errors.RelayError(f"unknown initial condition {initial!r}")
    if every is None or every == 0:
        return
    kinds = (int, np.integer) if whole else (int, float, np.integer, np.floating)
    if not (isinstance(every, kinds) and is_finite(every) and every > 0):
        unit = "a whole number of rounds" if whole else "a finite number"
        raise errors.RelayError(
            f"trace_every must be 0 (off) or {unit} > 0, got {every!r}")
    if (count := end / every) > MAX_CHECKPOINTS:
        raise errors.RelayError(
            f"trace_every asks for {count:.3g} checkpoints, more than {MAX_CHECKPOINTS}")


def start_state(
    initial, m: int, size, streams: WalkerStreams, draw, tol=0,
) -> tuple[State, bool]:
    """The start of a run of m walkers on a ring of the given size, and
    whether it is a contact, two walkers within tol in opposite directions.

    initial, which check_start has passed, is an explicit State, copied;
    "uniform-random": m points from draw(m), fair directions and a
    uniform carrier; or "regeneration", the law nu of two walkers: both
    at the point draw(1) gives, moving apart, the message on the
    clockwise mover.  draw(k) is the ring's uniform law on streams.aux,
    which also gives the directions, the carrier and nu's variant, in
    that order.  A carrier moving counter-clockwise within tol of
    clockwise movers is never observed after an update: pass_message
    resolves it as their meetings at time 0, uncounted.
    """
    if isinstance(initial, State):
        state = State(np.array(initial.positions), np.array(initial.directions),
                      initial.carrier)
    elif initial == "uniform-random":
        positions = draw(m)
        directions = (1 - 2 * streams.aux.integers(0, 2, size=m)).astype(np.int64)
        state = State(positions, directions, int(streams.aux.integers(m)))
    else:  # "regeneration"
        point = draw(1)[0]
        variant = int(streams.aux.integers(2))
        directions = np.array([1, -1], dtype=np.int64) * (1 - 2 * variant)
        state = State(np.array([point, point]), directions, variant)
    x, d, car = state.positions, state.directions, state.carrier
    gaps = (x - x[car]) % size
    near = np.minimum(gaps, size - gaps) <= tol
    cw = np.flatnonzero(near & (d == 1))
    if d[car] == -1 and cw.size:
        _, after, _ = pass_message(car, 0 * cw, cw, np.full_like(cw, car), 0, streams)
        state.carrier = int(after[-1])
    return state, bool(m == 2 and near.all() and d[0] != d[1])


def sample_times(times, whole: bool) -> np.ndarray:
    """Times to read walker paths at, as int64 rounds if whole, else as
    floats, which must be 1-D, finite, nonnegative and sorted."""
    t = np.asarray(times)
    if t.ndim != 1 or t.size and t.dtype.kind not in ("iu" if whole else "iuf"):
        raise errors.RelayError(
            f"sample times must be 1-D {'integers' if whole else 'reals'}, "
            f"got {t.dtype} of shape {t.shape}")
    t = t.astype(np.int64 if whole else np.float64)
    if not (np.all((t >= 0) & (t < np.inf)) and np.all(np.diff(t) >= 0)):
        raise errors.RelayError("sample times must be finite, nonnegative and sorted")
    return t


def walk(x0, d0: int, bounds: np.ndarray, times: np.ndarray, speed,
         size) -> tuple[np.ndarray, np.ndarray]:
    """Position on a ring of the given size and direction at sorted times
    of a walker that leaves x0 at time bounds[0] in direction d0 and
    reverses at each later bound.  As in relay, integer times (lattice
    rounds) see a reversal at their own time, float times do not; integer
    inputs keep the arithmetic in integers."""
    # disp[k]: the displacement from bounds[0] to bounds[k] for d0 = 1,
    # which d0 = -1 negates exactly; built in one array in place, since
    # each fresh array as long as the path costs page faults
    disp = np.zeros(len(bounds), dtype=bounds.dtype)
    np.subtract(bounds[1:], bounds[:-1], out=disp[1:])
    disp[2::2] *= -1
    np.cumsum(disp, out=disp)
    idx = np.searchsorted(bounds[1:], times,
                          side="right" if times.dtype.kind == "i" else "left")
    signs = np.where(idx % 2 == 0, d0, -d0)
    positions = (x0 + speed * (d0 * disp[idx] + signs * (times - bounds[idx]))) % size
    return positions, signs


def pass_message(
    car: int, when: np.ndarray, cw: np.ndarray, ccw: np.ndarray, window,
    streams: WalkerStreams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The relay rule over meetings in (time, pair) order, given by their
    times and clockwise and counter-clockwise members: the meetings that
    decide the message, the carrier after each and the meeting that
    supplied it.  The message moves at a meeting whose counter-clockwise
    member is the carrier, to one of the clockwise walkers that meet the
    carrier within window of it, by streams.choose in ascending index,
    supplied by that walker's first such meeting.  With two walkers every
    meeting leaves the message on its clockwise member; with more, a
    bisect finds the carrier's next meeting as the counter-clockwise one.
    Only if that walker meets again within window is anything drawn, and
    only there can a later meeting supply the carrier."""
    if streams.n_walkers == 2:
        every = np.arange(len(cw))
        return every, cw, every
    rows = [np.flatnonzero(ccw == w).tolist() for w in range(streams.n_walkers)]
    when, cw = when.tolist(), cw.tolist()
    decided, i = [], 0
    while (j := bisect_left(row := rows[car], i)) < len(row):
        i = given = row[j]
        if j + 1 < len(row) and when[row[j + 1]] - when[i] <= window:
            first = {}  # each candidate's first meeting with the carrier
            for h in row[j:]:
                if when[h] - when[i] > window:
                    break
                first.setdefault(cw[h], h)
            car = sorted(first)[streams.choose(len(first))]
            given = first[car]
        else:
            car = cw[i]
        decided.append((i, car, given))
        i += 1
    return tuple(np.array(decided, dtype=np.int64).reshape(-1, 3).T)


class Moments(NamedTuple):
    """Count, sum and sum of squared deviations from the mean of values,
    pooled for two sets without them (Chan, Golub & LeVeque 1983)."""

    count: int = 0
    total: float = 0.0
    squares: float = 0.0

    @classmethod
    def of(cls, values: np.ndarray) -> Moments:
        n, total = len(values), float(values.sum())
        centred = values - total / n if n else values
        with np.errstate(over="ignore"):  # squares past the float range are inf
            return cls(n, total, float(np.square(centred, out=centred).sum()))

    def pooled(self, other: Moments) -> Moments:
        n, k = self.count, other.count
        if not (n and k):
            return other if k else self
        delta = other.total / k - self.total / n
        return Moments(n + k, self.total + other.total,
                       self.squares + other.squares + delta * delta * (n * k / (n + k)))

    def mean(self) -> float:
        return self.total / self.count

    def stderr(self) -> float:
        """The standard error of the mean of independent values."""
        return math.sqrt(self.squares / (self.count - 1)) / math.sqrt(self.count)


class Cycles(NamedTuple):
    """Two walkers' regeneration cycles: Moments of their lengths and of
    the message's displacement in them, how many wrapped (the carrier
    passed half a lap around its partner) or ended in a handoff, and the
    largest distance from 0 or a lap of a displacement around the partner."""

    lengths: Moments = Moments()
    carried: Moments = Moments()
    wraps: int = 0
    handoffs: int = 0
    max_deviation: float = 0.0

    def pooled(self, other: Cycles) -> Cycles:
        return Cycles(
            self.lengths.pooled(other.lengths), self.carried.pooled(other.carried),
            self.wraps + other.wraps, self.handoffs + other.handoffs,
            max(self.max_deviation, other.max_deviation))


def fold_cycles(cycles: Cycles, last, contacts, burn, size, lap_length) -> tuple:
    """cycles pooled with those one block of contacts closes, and the latest
    contact (last, empty arrays before any).  contacts and last are the
    time-ordered arrays of time, message displacement, gap x1 - x0 in whole
    laps of size and carrier after.  Each at or after burn closes the cycle
    the one before it opened; walker 1 carrying moves as x1 - x0 does."""
    first = np.searchsorted(contacts[0], burn)
    kept = [np.concatenate((old, new[first:])) for old, new in zip(last, contacts)]
    time, disp, level, car = kept
    if not len(time):
        return cycles, last
    around = (car[:-1] * (2 * size) - size) * (level[1:] - level[:-1])  # car: 0 or 1
    wrapped = around > lap_length / 2
    return cycles.pooled(Cycles(
        Moments.of(time[1:] - time[:-1]), Moments.of(disp[1:] - disp[:-1]),
        int(np.count_nonzero(wrapped)), int(np.count_nonzero(car[1:] != car[:-1])),
        float(np.abs(around - lap_length * wrapped).max(initial=0.0)),
    )), tuple(field[-1:].copy() for field in kept)


class Readings(NamedTuple):
    """What relay hands to estimators.build_report: cumulative message
    displacement and handoffs at each checkpoint and, for two walkers,
    the regeneration cycles after burn-in."""

    displacement: np.ndarray
    jumps: np.ndarray
    cycles: Cycles | None = None


def relay(
    blocks, checkpoints: np.ndarray, state: State, size, streams: WalkerStreams,
    window, contact: bool, burn, lap_length,
) -> Readings:
    """Layer (c) of both engines: the message over an engine's walker
    paths, read at the sorted checkpoints.  The engine yields blocks
    (end, when, cw, ccw, level, at) from time 0: the block's end; its
    meetings in (time, pair) order, by time and clockwise and
    counter-clockwise member, and level, x_cw - x_ccw there in whole
    laps of size, all arrays; and at(w, t, i=None), the unwrapped
    positions of walkers w at times t of the block, those of meetings i
    if given, which holds until the next block is drawn.

    pass_message resolves the relay from state's carrier.  The message is
    its carrier's unwrapped position plus whole laps, which a handoff
    changes by minus the level of the meeting that supplied the new
    carrier.  Its displacement from time 0 and the handoffs are read at
    each checkpoint: on the lattice (integer checkpoints) with those of
    its round, on the continuum only those strictly before its time.  Two
    walkers also fold their contacts, a contact start first, into Cycles
    (fold_cycles; a wrap moves lap_length), block by block.
    """
    side = "right" if checkpoints.dtype.kind == "i" else "left"
    car, laps, jumps, icp, origin = state.carrier, 0, 0, 0, None
    read = [np.empty(len(checkpoints)) for _ in range(2)]
    cycles = Cycles() if streams.n_walkers == 2 else None
    last = (np.zeros(0, dtype=np.int64),) * 4  # no contact yet
    for end, when, cw, ccw, level, at in blocks:
        if origin is None:  # the first block, from time 0
            x = at(np.arange(streams.n_walkers), 0)
            origin = x[car]
            if cycles is not None and contact:  # opens a cycle: no burn-in then
                level_0 = int(np.rint((x[1] - x[0]) / size))
                last = tuple(np.array([v]) for v in (0, 0, level_0, car))
        hit, after, given = pass_message(car, when, cw, ccw, window, streams)
        held = np.concatenate(([car], after))
        jumped = held[1:] != held[:-1]
        lv = level[given]
        lap = np.concatenate(([laps], laps - np.cumsum(jumped * lv)))
        hit_t = when[hit]
        stop = np.searchsorted(checkpoints, end, side="right")
        ts = checkpoints[icp:stop]
        h = np.searchsorted(hit_t, ts, side=side)
        read[0][icp:stop] = at(held[h], ts) + size * lap[h] - origin
        read[1][icp:stop] = jumps + np.searchsorted(hit_t[jumped], ts, side=side)
        if cycles is not None:  # every meeting decides and supplies itself
            cycles, last = fold_cycles(cycles, last, (
                when, at(after, when, hit) + size * lap[1:] - origin,
                (2 * cw - 1) * lv, after), burn, size, lap_length)
        car, laps, jumps, icp = int(held[-1]), int(lap[-1]), jumps + jumped.sum(), stop
    return Readings(*read, cycles)
