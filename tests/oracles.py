"""Reference implementations that the engines are replayed against.

Each oracle takes one event, one round or one meeting at a time, the
way the relay is defined, and the tests check the block engines in
src/ringrelay against them on a shared seed:

* the continuum event operations (meeting_time / next_event /
  advance_to / handle_event), driven from event to event;
* the lattice round, step();
* loop_pass_message, the relay walk over meetings one at a time, with
  the meeting that supplies each carrier;
* fd_partials, central differences in place of a potential's partials
  in exact.apply_generator.

The simulation oracles consume the walker streams exactly as the
engines do, so on a shared seed an engine and its oracle must give the
same path.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ringrelay import errors
from ringrelay.continuous import default_tol
from ringrelay.model import (
    ContinuousConfig,
    DiscreteConfig,
    State,
    WalkerStreams,
    circle_delta,
    resolve_handoff,
)


class EventSkipped(RuntimeError):
    """A deterministic advance tried to jump past a scheduled event."""


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


def next_event(state: State, config: ContinuousConfig) -> Event:
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
            gap = float(
                circle_delta(
                    state.positions[j], state.positions[k], config.circumference
                )
            )
            dt = meeting_time(
                gap, int(state.directions[j]), int(state.directions[k]), config
            )
            if dt is None:
                continue
            key = (state.clock + dt, 1, (j, k))
            if key < best:
                best = key
    return Event(best[0], "switch" if best[1] == 0 else "meeting", best[2])


def advance_to(state: State, t: float, config: ContinuousConfig) -> State:
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
    state: State, event: Event, config: ContinuousConfig, streams: WalkerStreams
) -> tuple[State, bool]:
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
    state: State, config: DiscreteConfig, streams: WalkerStreams
) -> tuple[State, bool]:
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
    return State(positions, directions, carrier, state.clock + 1), jumped


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


def fd_partials(func, config: ContinuousConfig):
    """Partials of func(positions, directions, carrier) in each walker's
    position by central differences with step 1e-6 * circumference, in
    the form exact.apply_generator takes."""
    n = config.circumference
    h = 1e-6 * n

    def partials(x, d, carrier):
        grad = np.empty(len(x))
        for j in range(len(x)):
            up, down = x.copy(), x.copy()
            up[j] = (up[j] + h) % n
            down[j] = (down[j] - h) % n
            grad[j] = (func(up, d, carrier) - func(down, d, carrier)) / (2.0 * h)
        return grad

    return partials
