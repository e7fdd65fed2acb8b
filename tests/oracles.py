"""Reference implementations that the engines are replayed against.

Each oracle takes one event, one round or one meeting at a time, the
way the relay is defined, and the tests check the block engines in
src/ringrelay against them on a shared seed:

* OracleState, a model.State with the clock the oracles step and, on
  the continuum, each walker's next switch time, which the engines do
  not keep;
* the relay rule at one instant (resolve_handoff), the contact test
  (in_contact) and the clockwise gap (circle_delta), which the oracles
  below and the start tests read in place of model.start_state's
  resolution through model.pass_message;
* the continuum event operations (event_start / meeting_time /
  next_event / advance_to / handle_event), driven from event to event;
* the lattice round, step();
* loop_pass_message, the relay walk over meetings one at a time, with
  the meeting that supplies each carrier;
* fd_slope, a central difference in the gap in place of a potential's
  slope in exact.apply_generator;
* CycleCapture, which keeps the contacts model.fold_cycles folds and
  rebuilds a run's cycles from them, one array per quantity, and
  cycle_record, the moments of such arrays computed afresh, the record
  the fold must have built.

The simulation oracles consume the walker streams exactly as the
engines do, so on a shared seed an engine and its oracle must give the
same path.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np
import pytest

from ringrelay import continuous, errors
from ringrelay.continuous import default_tol
from ringrelay.model import (
    ContinuousConfig,
    Cycles,
    DiscreteConfig,
    Moments,
    State,
    WalkerStreams,
)


class EventSkipped(RuntimeError):
    """A deterministic advance tried to jump past a scheduled event."""


@dataclass
class OracleState(State):
    """A model.State at a clock (rounds on the lattice, time on the
    continuum), with each walker's next switch time on the continuum."""

    clock: float = 0
    next_switch: np.ndarray | None = None

    @classmethod
    def of(cls, state: State, next_switch=None) -> "OracleState":
        """state at clock 0, a copy."""
        return cls(state.positions.copy(), state.directions.copy(), state.carrier,
                   0, next_switch)

    def copy(self) -> "OracleState":
        return replace(
            self, positions=self.positions.copy(), directions=self.directions.copy(),
            next_switch=None if self.next_switch is None else self.next_switch.copy())


# ----------------------------------------------------------------------
# the relay rule and the contact test at one instant


def circle_delta(x_from, x_to, circumference):
    """Clockwise gap from x_from to x_to, in [0, circumference).

    The float modulo can land exactly on the circumference when the raw
    difference is a tiny negative number, so that edge is folded back to 0.
    """
    d = (x_to - x_from) % circumference
    return d - circumference if d >= circumference else d


def resolve_handoff(
    positions: np.ndarray, directions: np.ndarray, carrier: int,
    circumference, streams: WalkerStreams, tol=0,
) -> tuple[int, bool]:
    """The relay rule at one instant: a carrier moving counter-clockwise
    within tol of clockwise movers hands the message to one of them,
    taken in ascending index and chosen with streams.choose.  Returns
    the carrier and whether the message changed hands."""
    if directions[carrier] != -1:
        return carrier, False
    gaps = (positions - positions[carrier]) % circumference
    near = np.minimum(gaps, circumference - gaps) <= tol
    candidates = np.flatnonzero(near & (directions == 1))
    if candidates.size == 0:
        return carrier, False
    return int(candidates[streams.choose(candidates.size)]), True


def in_contact(state: State, size, tol=0) -> bool:
    """Whether a state of two walkers is a contact, the walkers within
    tol of each other in opposite directions; more walkers have none."""
    if len(state.positions) != 2:
        return False
    gap = circle_delta(state.positions[0], state.positions[1], size)
    return bool(min(gap, size - gap) <= tol
                and state.directions[0] != state.directions[1])


# ----------------------------------------------------------------------
# continuum: one event at a time


@dataclass(frozen=True)
class Event:
    time: float
    kind: str  # "switch" | "meeting"
    walkers: tuple[int, ...]


def meeting_time(
    gap: float, d_a: int, d_b: int, config: ContinuousConfig
) -> float | None:
    """Time until two walkers meet, or None if they never do.

    gap is the clockwise distance from walker a to walker b, in
    [0, circumference).  Walkers moving the same way keep their gap
    forever.  Opposite walkers close their gap at twice the speed; a gap
    within default_tol of 0 or of the full circle means the pair is co-located
    right now (fresh from a meeting), so the next meeting is half a lap
    away, not instantaneous.
    """
    if d_a == d_b:
        return None
    n, v = config.circumference, config.speed
    if not (0.0 <= gap < n):
        raise errors.RelayError(f"gap must lie in [0, circumference), got {gap!r}")
    tol = default_tol(config)
    if d_a == 1:  # gap shrinks
        return gap / (2.0 * v) if gap > tol else n / (2.0 * v)
    # gap grows to a full circle
    return (n - gap) / (2.0 * v) if gap < n - tol else n / (2.0 * v)


def event_start(
    config: ContinuousConfig, streams: WalkerStreams, initial
) -> OracleState:
    """The engine's start, with each walker's first switch drawn from its
    own stream, as the engine draws it."""
    state, _ = continuous._start(config, streams, initial)
    return OracleState.of(state, np.array([
        streams.walker[j].exponential(1.0 / config.switch_rate)
        for j in range(config.n_walkers)]))


def next_event(state: OracleState, config: ContinuousConfig) -> Event:
    """Earliest pending switch or pairwise meeting after state.clock."""
    if state.next_switch is None:
        raise errors.RelayError("state has no scheduled switch times")
    best: tuple | None = None
    for j in range(config.n_walkers):
        key = (float(state.next_switch[j]), 0, (j,))
        if best is None or key < best:
            best = key
    for j in range(config.n_walkers):
        for k in range(j + 1, config.n_walkers):
            gap = float(circle_delta(
                state.positions[j], state.positions[k], config.circumference))
            dt = meeting_time(
                gap, int(state.directions[j]), int(state.directions[k]), config
            )
            if dt is None:
                continue
            key = (state.clock + dt, 1, (j, k))
            if key < best:
                best = key
    return Event(best[0], "switch" if best[1] == 0 else "meeting", best[2])


def advance_to(state: OracleState, t: float, config: ContinuousConfig) -> OracleState:
    """Deterministic transport of every walker to time t.

    Refuses to move backwards or to fly past a scheduled switch (an
    event strictly inside the interval would be silently lost).
    """
    if t < state.clock:
        raise errors.RelayError(f"cannot advance from {state.clock} back to {t}")
    if state.next_switch is not None and np.any(state.next_switch < t):
        raise EventSkipped(
            f"a switch is scheduled before t={t}; handle it first"
        )
    out = state.copy()
    seg = t - state.clock
    out.positions = (out.positions + config.speed * out.directions * seg) % (
        config.circumference
    )
    out.clock = t
    return out


def handle_event(
    state: OracleState, event: Event, config: ContinuousConfig,
    streams: WalkerStreams,
) -> tuple[OracleState, bool]:
    """Apply a switch or meeting at the current clock.

    The state must already have been advanced to event.time.  Returns
    the new state and whether the message changed hands.
    """
    tol = default_tol(config)
    if abs(event.time - state.clock) > tol / config.speed:
        raise EventSkipped(
            f"state clock {state.clock} does not match event time {event.time}"
        )
    out = state.copy()
    jumped = False
    if event.kind == "switch":
        (j,) = event.walkers
        out.directions[j] = -out.directions[j]
        out.next_switch[j] = event.time + streams.walker[j].exponential(
            1.0 / config.switch_rate
        )
    elif event.kind == "meeting":
        j, k = event.walkers
        out.positions[k] = out.positions[j]  # snap away float drift
        out.carrier, jumped = resolve_handoff(
            out.positions, out.directions, out.carrier, config.circumference,
            streams, tol,
        )
    else:
        raise errors.RelayError(f"unknown event kind {event.kind!r}")
    return out, jumped


# ----------------------------------------------------------------------
# lattice: one round at a time


def step(
    state: OracleState, config: DiscreteConfig, streams: WalkerStreams
) -> tuple[OracleState, bool]:
    """One synchronous round; returns the new state and whether the
    message changed hands."""
    m = config.n_walkers
    positions = (state.positions + state.directions) % config.n_sites
    signs = np.empty(m, dtype=np.int64)
    for j in range(m):
        signs[j] = -1 if streams.walker[j].random() < config.flip_prob else 1
    directions = state.directions * signs
    carrier, jumped = resolve_handoff(
        positions, directions, state.carrier, config.n_sites, streams
    )
    return OracleState(positions, directions, carrier, state.clock + 1), jumped


# ----------------------------------------------------------------------
# the relay over meetings, one meeting at a time


def loop_pass_message(car, meet_t, cw, ccw, window, streams):
    """The carrier after each meeting, and the meeting that supplied it
    (-1 for the first carrier), one meeting at a time: the walk the
    continuum engine ran before model.pass_message, kept as its reference.
    The message moves only at a meeting whose counter-clockwise member is
    the carrier, to one of the clockwise walkers that meet the carrier
    within window, in ascending index, chosen with streams.choose; the
    chosen walker's first such meeting supplies it."""
    t, cw, ccw = meet_t.tolist(), cw.tolist(), ccw.tolist()
    after, supplied, source = [], [], -1
    for i, loser in enumerate(ccw):
        if loser == car:
            first, h = {}, i
            while h < len(t) and t[h] - t[i] <= window:
                if ccw[h] == car:
                    first.setdefault(cw[h], h)
                h += 1
            car = sorted(first)[streams.choose(len(first))]
            source = first[car]
        after.append(car)
        supplied.append(source)
    return np.array(after, dtype=np.int64), np.array(supplied, dtype=np.int64)


# ----------------------------------------------------------------------
# the generator's transport part by finite differences


def fd_slope(value, config: ContinuousConfig):
    """The potential, in the form exact.apply_generator takes, whose
    value at (gap, d0, d1, carrier) is value(gap, d0, d1, carrier) and
    whose slope is its central difference in the gap (mod circumference)
    with step 1e-6 * circumference."""
    n = config.circumference
    h = 1e-6 * n

    def potential(gap, d0, d1, carrier):
        up, down = (gap + h) % n, (gap - h) % n
        slope = (value(up, d0, d1, carrier) - value(down, d0, d1, carrier)) / (2.0 * h)
        return value(gap, d0, d1, carrier), slope

    return potential


CYCLE_ARRAYS = ("cycle_lengths", "cycle_displacements", "cycle_carrier_sums",
                "cycle_jumps")
NO_CONTACT = (np.zeros(0, dtype=np.int64),) * 4  # model.fold_cycles' last before any


class CycleCapture:
    """A stand-in for model.fold_cycles that folds as it does and keeps
    the contacts each record is folded from.  arrays(report) rebuilds the
    cycles of report's run from them as the CYCLE_ARRAYS, one entry per
    cycle: its length, the carrier's displacement around its partner, the
    message's displacement inside it and whether it ended in a handoff;
    each None for a run without cycles (m > 2)."""

    def __init__(self, fold):
        self.fold = fold
        self.calls = []  # (record before and after, last, contacts, burn, size)

    def __call__(self, cycles, last, contacts, burn, size, lap_length):
        folded = self.fold(cycles, last, contacts, burn, size, lap_length)
        self.calls.append((cycles, folded[0], last, contacts, burn, size))
        return folded

    def arrays(self, report) -> SimpleNamespace:
        if report.cycles is None:
            return SimpleNamespace(**dict.fromkeys(CYCLE_ARRAYS))
        # the run's folds, found from its last back to its first
        record, calls = report.cycles, []
        for call in reversed(self.calls):
            if call[1] is record:
                calls.insert(0, call)
                record = call[0]
        _, _, start, _, burn, size = calls[0]  # a contact start, or no contact
        blocks = [start] + [call[3] for call in calls]
        joined = [np.concatenate(field) for field in zip(*blocks)]
        first = np.searchsorted(joined[0], burn)  # contacts come in time order
        time, disp, level, car = (values[first:] for values in joined)
        # walker 1 carrying moves around walker 0 as the gap x1 - x0 does
        around = np.where(car[:-1] == 1, 1, -1) * np.diff(level) * size
        return SimpleNamespace(
            cycle_lengths=np.diff(time).astype(float, copy=False),
            cycle_displacements=around.astype(float, copy=False),
            cycle_carrier_sums=np.diff(disp).astype(float, copy=False),
            cycle_jumps=car[1:] != car[:-1],
        )


def cycle_record(arrays, lap_length) -> Cycles:
    """The Cycles record of per-cycle arrays such as CycleCapture.arrays
    gives, each moment by a fresh two-pass sum over all cycles."""
    def moments(values):
        values = np.asarray(values, dtype=float)
        if not len(values):
            return Moments()
        return Moments(len(values), float(values.sum()),
                       float(((values - values.mean()) ** 2).sum()))

    disp = np.asarray(arrays.cycle_displacements, dtype=float)
    wrapped = disp > lap_length / 2
    deviation = np.where(wrapped, np.abs(disp - lap_length), np.abs(disp))
    return Cycles(moments(arrays.cycle_lengths), moments(arrays.cycle_carrier_sums),
                  int(wrapped.sum()), int(np.sum(arrays.cycle_jumps)),
                  float(deviation.max(initial=0.0)))


def assert_cycles_match(record: Cycles, expected: Cycles, exact_sums=False) -> None:
    """record holds expected's counts and largest deviation exactly, and
    its moments within 1e-12 relative; with exact_sums (integer values,
    as lattice lengths and displacements are) the sums exactly too."""
    for name in ("wraps", "handoffs", "max_deviation"):
        assert getattr(record, name) == getattr(expected, name), name
    for got, want in ((record.lengths, expected.lengths),
                      (record.carried, expected.carried)):
        assert got.count == want.count
        if exact_sums:
            assert got.total == want.total
        assert got.total == pytest.approx(want.total, rel=1e-12)
        assert got.squares == pytest.approx(want.squares, rel=1e-12)
