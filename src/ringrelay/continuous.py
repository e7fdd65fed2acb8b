"""Continuum relay simulator.

Walkers move at constant speed on a circle and reverse direction at the
arrival times of independent Poisson clocks.  When the message holder
meets a clockwise mover head-on, the message changes hands.  The message
never changes how the walkers move, so one block engine serves any
number of walkers: switch times are drawn in blocks, the meetings of
each pair are the level crossings of its piecewise linear gap, the
relay is resolved at the meetings only (for two walkers the message
sits on the clockwise mover after each one), and all totals are
cumulative sums over the merged timeline, processed in chunks of
switches.  It reports readings and, for two walkers, contacts to the
accounting step shared with the lattice simulator,
estimators.build_report, which sets the burn-in and batches and cuts
the contacts into regeneration cycles.  The pure event operations
(next_event / advance_to / handle_event) are kept as a one-event-at-a-
time reference for the tests.

Paths are right-continuous: at a switch time the walker already moves
with its new direction, and at a meeting the handoff has already
happened.  Ties are resolved deterministically: checkpoints before
events, switches before meetings, lower walker indices first.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import errors
from .estimators import Readings, RunReport, build_report
from .model import (
    ContinuousConfig,
    SeedSpec,
    WalkerStreams,
    as_seed,
    check_state,
    circle_delta,
    validate_continuous,
)


# switches per walker in one chunk of the engine with two walkers
SWITCH_CHUNK = 1 << 14


def default_tol(config: ContinuousConfig) -> float:
    """Position coincidence tolerance: snapped meetings keep float noise
    far below this, and genuine gaps sit far above it."""
    return 1e-12 * config.circumference


@dataclass
class ContinuousState:
    positions: np.ndarray  # floats in [0, circumference), shape (m,)
    directions: np.ndarray  # +1 / -1, shape (m,)
    carrier: int
    clock: float = 0.0
    next_switch: np.ndarray | None = None  # absolute times, shape (m,)

    def copy(self) -> "ContinuousState":
        return ContinuousState(
            self.positions.copy(),
            self.directions.copy(),
            self.carrier,
            self.clock,
            None if self.next_switch is None else self.next_switch.copy(),
        )


@dataclass(frozen=True)
class Event:
    time: float
    kind: str  # "switch" | "meeting"
    walkers: tuple[int, ...]


def meeting_time(
    gap: float, d_a: int, d_b: int, config: ContinuousConfig,
    tol: float | None = None,
) -> float | None:
    """Time until two walkers meet, or None if they never do.

    gap is the clockwise distance from walker a to walker b, in
    [0, circumference).  Walkers moving the same way keep their gap
    forever.  Opposite walkers close their gap at twice the speed; a gap
    within tol of 0 or of the full circle means the pair is co-located
    right now (fresh from a meeting), so the next meeting is half a lap
    away, not instantaneous.
    """
    if d_a == d_b:
        return None
    n, v = config.circumference, config.speed
    if not (0.0 <= gap < n):
        raise errors.NOutOfRange(f"gap must lie in [0, circumference), got {gap!r}")
    if tol is None:
        tol = default_tol(config)
    if d_a == 1:  # gap shrinks
        return gap / (2.0 * v) if gap > tol else n / (2.0 * v)
    # gap grows to a full circle
    return (n - gap) / (2.0 * v) if gap < n - tol else n / (2.0 * v)


def next_event(
    state: ContinuousState, config: ContinuousConfig, tol: float | None = None
) -> Event:
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
                gap, int(state.directions[j]), int(state.directions[k]), config, tol
            )
            if dt is None:
                continue
            key = (state.clock + dt, 1, (j, k))
            if key < best:
                best = key
    return Event(best[0], "switch" if best[1] == 0 else "meeting", best[2])


def advance_to(
    state: ContinuousState, t: float, config: ContinuousConfig
) -> ContinuousState:
    """Deterministic transport of every walker to time t.

    Refuses to move backwards or to fly past a scheduled switch (an
    event strictly inside the interval would be silently lost).
    """
    if t < state.clock:
        raise errors.RelayError(f"cannot advance from {state.clock} back to {t}")
    if state.next_switch is not None and np.any(state.next_switch < t):
        raise errors.EventSkipped(
            f"a switch is scheduled before t={t}; handle it first"
        )
    out = state.copy()
    seg = t - state.clock
    out.positions = (out.positions + config.speed * out.directions * seg) % (
        config.circumference
    )
    out.clock = t
    return out


def _handoff_candidates(
    positions: np.ndarray, directions: np.ndarray, carrier: int,
    circumference: float, tol: float,
) -> np.ndarray:
    gaps = (positions - positions[carrier]) % circumference
    dist = np.minimum(gaps, circumference - gaps)
    return np.nonzero((dist <= tol) & (directions == 1))[0]


def handle_event(
    state: ContinuousState, event: Event, config: ContinuousConfig,
    streams: WalkerStreams, tol: float | None = None,
) -> tuple[ContinuousState, bool]:
    """Apply a switch or meeting at the current clock.

    The state must already have been advanced to event.time.  Returns
    the new state and whether the message changed hands.
    """
    if tol is None:
        tol = default_tol(config)
    if abs(event.time - state.clock) > tol / config.speed:
        raise errors.EventSkipped(
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
        if out.directions[out.carrier] == -1:
            cands = _handoff_candidates(
                out.positions, out.directions, out.carrier,
                config.circumference, tol,
            )
            if cands.size:
                out.carrier = int(cands[streams.choose(cands.size)])
                jumped = True
    else:
        raise errors.RelayError(f"unknown event kind {event.kind!r}")
    return out, jumped


def sample_contact(config: ContinuousConfig, streams: WalkerStreams) -> ContinuousState:
    """Draw from the regeneration law: both walkers at one uniform point,
    opposite directions, message on the clockwise mover (two walkers
    only).  Switch clocks are left for the simulator to schedule."""
    if config.n_walkers != 2:
        raise errors.MNotTwo("contact start is defined for 2 walkers")
    point = float(streams.aux.random() * config.circumference)
    variant = int(streams.aux.integers(2))
    positions = np.array([point, point])
    if variant == 0:
        return ContinuousState(positions, np.array([1, -1]), 0)
    return ContinuousState(positions, np.array([-1, 1]), 1)


def in_contact_state(state: ContinuousState, config: ContinuousConfig,
                     tol: float | None = None) -> bool:
    if config.n_walkers != 2:
        return False
    if tol is None:
        tol = default_tol(config)
    gap = float(
        circle_delta(state.positions[0], state.positions[1], config.circumference)
    )
    return min(gap, config.circumference - gap) <= tol and (
        state.directions[0] * state.directions[1] == -1
    )


def _initial_state(
    config: ContinuousConfig, streams: WalkerStreams, initial, tol: float
) -> ContinuousState:
    n, m = config.circumference, config.n_walkers
    if isinstance(initial, ContinuousState):
        check_state(initial, m, n)
        state = initial.copy()
        state.clock = 0.0
    elif initial == "uniform-random":
        positions = streams.aux.random(m) * n
        directions = (1 - 2 * streams.aux.integers(0, 2, size=m)).astype(np.int64)
        carrier = int(streams.aux.integers(m))
        state = ContinuousState(positions, directions, carrier)
    elif initial == "regeneration":
        state = sample_contact(config, streams)
    else:
        raise errors.RelayError(f"unknown initial condition {initial!r}")
    if state.directions[state.carrier] == -1:
        cands = _handoff_candidates(
            state.positions, state.directions, state.carrier, n, tol
        )
        if cands.size:  # resolve, uncounted, as for the lattice model
            state.carrier = int(cands[streams.choose(cands.size)])
    if state.next_switch is None:
        state.next_switch = np.array(
            [
                streams.walker[j].exponential(1.0 / config.switch_rate)
                for j in range(m)
            ]
        )
    return state


def simulate_continuous(
    config: ContinuousConfig,
    horizon: float,
    seed: SeedSpec | int,
    initial="uniform-random",
    *,
    sample_every: float | None = None,
    trace_every: float | None = None,
) -> RunReport:
    """Run the continuum relay up to the given time horizon.

    Statistics cover the window after a 1% burn-in, skipped when the
    start is a contact state.  Cycle records are kept for two walkers:
    one entry per contact-to-contact excursion of the carrier.
    """
    validate_continuous(config)
    if not (0.0 < horizon < np.inf):
        raise errors.RelayError(f"horizon must be finite and > 0, got {horizon!r}")
    spec = as_seed(seed)
    streams = WalkerStreams(spec, config.n_walkers)
    tol = default_tol(config)
    state = _initial_state(config, streams, initial, tol)
    in_f = in_contact_state(state, config, tol)
    return build_report(
        lambda checkpoints, is_sample: _run_blocks(
            config, streams, state, checkpoints, is_sample, tol, in_f
        ),
        params={
            "model": "continuous",
            "N": config.circumference,
            "v": config.speed,
            "r": config.switch_rate,
            "m": config.n_walkers,
            "horizon": horizon,
        },
        seed=spec,
        lap_length=config.circumference,
        end=float(horizon),
        in_contact=in_f,
        sample_every=sample_every,
        trace_every=trace_every,
    )


# ----------------------------------------------------------------------
# block engine: walker paths, meetings as level crossings of pair gaps


def _draw_switches(stream, last: float, rate: float, size: int) -> np.ndarray:
    """The next size switch times of a walker whose latest one is last.

    The exponential gaps come as one block from the walker's own stream
    and are summed in order, so the times equal those of scheduling one
    switch at a time, bit for bit."""
    gaps = stream.exponential(1.0 / rate, size)
    gaps[0] += last
    return np.cumsum(gaps)


def _walk(x0: float, d0: int, bounds: np.ndarray, times: np.ndarray,
          speed: float, circumference: float) -> tuple[np.ndarray, np.ndarray]:
    """Position and direction at the given times of a walker that leaves
    x0 at time bounds[0] moving d0 and reverses at each later bound.
    At a reversal time the walker still has its old direction."""
    seg = np.diff(bounds)  # signed in place: d0 on even segments, -d0 on odd
    seg *= d0
    seg[1::2] *= -1
    disp = np.zeros(len(bounds))
    np.cumsum(seg, out=disp[1:])
    idx = np.searchsorted(bounds[1:], times, side="left")
    signs = np.where(idx % 2 == 0, d0, -d0)
    positions = (
        x0 + speed * (disp[idx] + signs * (times - bounds[idx]))
    ) % circumference
    return positions, signs


def _pass_message(car: int, meet_t: np.ndarray, cw: np.ndarray, ccw: np.ndarray,
                  window: float, streams: WalkerStreams) -> np.ndarray:
    """The carrier after each meeting, for three or more walkers.

    The message moves only at a meeting whose counter-clockwise member
    is the carrier.  It goes to one of the clockwise walkers that meet
    the carrier at that instant (up to window), taken in ascending index
    and chosen with streams.choose, as handle_event does."""
    t, cw, ccw = meet_t.tolist(), cw.tolist(), ccw.tolist()
    after = []
    for i, loser in enumerate(ccw):
        if loser == car:
            cands, h = set(), i
            while h < len(t) and t[h] - t[i] <= window:
                if ccw[h] == car:
                    cands.add(cw[h])
                h += 1
            cands = sorted(cands)
            car = cands[streams.choose(len(cands))]
        after.append(car)
    return np.array(after, dtype=np.int64)


def _run_blocks(
    config: ContinuousConfig, streams: WalkerStreams, state: ContinuousState,
    checkpoints: np.ndarray, is_sample: np.ndarray, tol: float, in_f: bool,
) -> Readings:
    """Block engine for any number of walkers.

    (a) Each walker's switch times are drawn in blocks from its own
    stream and merged into one timeline of segments, each with a row of
    walker directions.  (b) The unwrapped gap x_k - x_j of every pair
    j < k is piecewise linear with slope 0 or +-2v, and the pair meets
    exactly when it crosses a multiple of the circumference; a level
    within tol of a segment's start is where the pair already is, not a
    meeting.  Meetings are merged by (time, pair), the order in which
    next_event takes them.  For two walkers the message then sits on
    the clockwise mover; for more, _pass_message resolves the meetings
    one by one.  A jump is a change of carrier.  (c) Displacement,
    clockwise time and handoffs are cumulative sums over the merged
    timeline of switches and meetings, read at the checkpoints with
    searchsorted (a checkpoint comes before an event at the same time).
    For two walkers every meeting is a contact, reported with the level
    its gap crossed.

    The horizon is processed in chunks of switches; walker state, pair
    gaps, carrier and totals carry over from one chunk to the next.
    """
    n, v, r, m = (
        config.circumference,
        config.speed,
        config.switch_rate,
        config.n_walkers,
    )
    horizon = float(checkpoints[-1])
    pj, pk = np.triu_indices(m, 1)  # pairs j < k in lexicographic order
    # k switches per walker make about m k segments, each with a cell per
    # pair; k gives 4 SWITCH_CHUNK / m cells, so two walkers keep chunks of
    # SWITCH_CHUNK and more walkers take chunks whose arrays stay small
    # next to the rest of the process, but no fewer than 16 (from m = 10),
    # or Python work per chunk dominates.  A pair meets about v / (n r)
    # times per switch, so on small rings fewer switches keep meetings in
    # check.
    k = max(1, int(max(16, 8 * SWITCH_CHUNK // (m**3 * (m - 1)))
                   * min(1.0, n * r / v)))

    def settle(gap: np.ndarray, base: np.ndarray):
        """Rebase the gaps into [0, n), snapping them onto a level within tol."""
        level = np.floor(gap / n)
        gap, base = gap - level * n, base + level.astype(np.int64)
        wrap = n - gap <= tol
        return np.where(wrap | (gap <= tol), 0.0, gap), base + wrap

    pending = [state.next_switch[j:j + 1].astype(float) for j in range(m)]
    drawn = [float(state.next_switch[j]) for j in range(m)]  # latest switch drawn
    d = state.directions.astype(np.int64)
    x = state.positions.astype(float)
    # unwrapped gap of each pair is base * n + gap
    gap, base = settle(x[pk] - x[pj], np.zeros(len(pj), dtype=np.int64))
    car = state.carrier
    cum_disp = cum_clock = 0.0
    cum_jumps = 0
    contacts = None
    if m == 2:  # time, displacement, gap level, carrier; a contact start first
        zero = np.zeros(int(in_f))
        contacts = ([zero], [zero], [base[:len(zero)]], [zero.astype(np.int64) + car])
    sampling = bool(is_sample.any())
    read = [np.empty(len(checkpoints)) for _ in range(3)]
    samples_x, samples_d = [], []
    t0, icp = 0.0, 0
    while True:
        # (a) walker paths: switches up to the chunk end t1
        for j in range(m):
            if len(pending[j]) < k:
                more = _draw_switches(
                    streams.walker[j], drawn[j], r, k - len(pending[j])
                )
                pending[j] = np.concatenate((pending[j], more))
                drawn[j] = float(more[-1])
        t1 = min(p[k - 1] for p in pending)
        final = t1 >= horizon
        if final:
            t1 = horizon
        switches = []
        for j in range(m):
            cut = np.searchsorted(pending[j], t1, side="left" if final else "right")
            switches.append(pending[j][:cut])
            pending[j] = pending[j][cut:]

        # merged switches; segment i runs from bounds[i] to bounds[i + 1]
        times = np.concatenate(switches)
        order = np.argsort(times, kind="stable")  # ties: lower walker first
        bounds = np.concatenate(([t0], times[order], [t1]))
        flipper = np.repeat(np.arange(m), [len(s) for s in switches])[order]
        flips = np.ones((len(bounds) - 1, m), dtype=np.int64)
        flips[np.arange(1, len(flips)), flipper] = -1
        dirs = np.cumprod(flips, axis=0) * d  # (segments x walkers)
        dt = np.diff(bounds)
        slope = v * (dirs[:, pk] - dirs[:, pj])
        g = np.cumsum(np.vstack((gap, slope * dt[:, None])), axis=0)

        # (b) meetings: levels crossed strictly inside each segment
        a, b = g[:-1], g[1:]
        rise = slope > 0
        first = np.where(rise, np.floor((a + tol) / n) + 1, np.ceil((a - tol) / n) - 1)
        last = np.where(rise, np.ceil(b / n) - 1, np.floor(b / n) + 1)
        count = np.where(rise, last - first + 1, first - last + 1)
        count = np.where(slope != 0, np.maximum(count, 0), 0).astype(np.int64).ravel()
        cell = np.repeat(np.arange(len(count)), count)  # (segment, pair), flat
        nth = np.arange(len(cell)) - np.repeat(np.cumsum(count) - count, count)
        seg, pair = np.divmod(cell, len(pj))
        up = rise.ravel()[cell]
        levels = (first.ravel()[cell] + np.where(up, nth, -nth)).astype(np.int64)
        meet_t = np.minimum(
            bounds[seg] + (levels * n - a.ravel()[cell]) / slope.ravel()[cell],
            bounds[seg + 1],
        )
        cw = np.where(up, pk[pair], pj[pair])  # the clockwise member
        if m == 2:
            meet_car = cw
        else:
            # (time, pair) order: the flat order runs segment by segment,
            # and a stable sort by time keeps ties in pair order
            by_time = np.argsort(meet_t, kind="stable")
            ccw = np.where(up, pj[pair], pk[pair])[by_time]
            seg, meet_t, cw = seg[by_time], meet_t[by_time], cw[by_time]
            meet_car = _pass_message(car, meet_t, cw, ccw, tol / v, streams)
        jumped = meet_car != np.concatenate(([car], meet_car[:-1]))

        # (c) merged timeline: each segment start, then its meetings; the
        # i-th meeting follows the starts of segments 0 .. seg[i]
        per_seg = count.reshape(len(dt), -1).sum(axis=1)
        at_start = np.arange(len(dt)) + np.cumsum(per_seg) - per_seg
        at_meet = seg + np.arange(1, len(seg) + 1)
        points = np.empty(len(bounds) + len(seg))
        points[at_start] = bounds[:-1]
        points[at_meet] = meet_t
        points[-1] = t1
        seg_of = np.repeat(np.arange(len(dt)), per_seg + 1)
        latest = np.zeros(len(seg_of), dtype=np.int64)
        latest[at_meet] = np.arange(1, len(seg) + 1)
        carrier = np.concatenate(([car], meet_car))[np.maximum.accumulate(latest)]
        dc = dirs[seg_of, carrier]
        span = np.diff(points)
        disp = np.cumsum(np.concatenate(([cum_disp], v * dc * span)))
        clock = np.cumsum(
            np.concatenate(([cum_clock], np.where(dc == 1, span, 0.0)))
        )
        hops = np.zeros(len(points), dtype=np.int64)
        hops[at_meet] = jumped
        hops = cum_jumps + np.cumsum(hops)

        stop = np.searchsorted(checkpoints, t1, side="right")
        ts = checkpoints[icp:stop]
        p = np.maximum(np.searchsorted(points, ts, side="left") - 1, 0)
        held = ts - points[p]
        read[0][icp:stop] = disp[p] + v * dc[p] * held
        read[1][icp:stop] = hops[p]
        read[2][icp:stop] = clock[p] + np.where(dc[p] == 1, held, 0.0)
        if sampling:
            wanted = ts[is_sample[icp:stop]]
            walked = [
                _walk(x[j], d[j], np.concatenate(([t0], switches[j])),
                      np.append(wanted, t1), v, n)
                for j in range(m)
            ]
            pos = np.column_stack([w[0] for w in walked])
            dirs_at = np.column_stack([w[1] for w in walked])
            samples_x.extend(pos[:-1])
            samples_d.extend(dirs_at[:-1])
            x = pos[-1]

        if m == 2:
            found = (meet_t, disp[at_meet], base[0] + levels, meet_car)
            for blocks, values in zip(contacts, found):
                blocks.append(values)

        icp, t0 = stop, t1
        if final:
            break
        car = int(carrier[-1])
        cum_disp, cum_clock, cum_jumps = disp[-1], clock[-1], int(hops[-1])
        d = dirs[-1].copy()
        gap, base = settle(g[-1], base)
    return Readings(*read, samples_x, samples_d, contacts)


def sample_walker_states(
    config: ContinuousConfig, times: np.ndarray, seed: SeedSpec | int
) -> tuple[np.ndarray, np.ndarray]:
    """Positions and directions of the walker motion at given times.

    The message plays no part in where walkers are, so equilibrium
    checks of the walker ensemble can skip the relay entirely: each
    walker's switch times are drawn in blocks and its piecewise linear
    path evaluated directly.  Streams are consumed exactly as by
    simulate_continuous with the uniform-random start, so on a shared
    seed the two agree pointwise (up to float roundoff in positions).
    """
    validate_continuous(config)
    times = np.asarray(times, dtype=float)
    if times.size == 0 or np.any(times < 0) or np.any(np.diff(times) < 0):
        raise errors.RelayError("times must be nonnegative and sorted")
    n, v, r, m = (
        config.circumference,
        config.speed,
        config.switch_rate,
        config.n_walkers,
    )
    streams = WalkerStreams(as_seed(seed), m)
    state = _initial_state(config, streams, "uniform-random", default_tol(config))
    positions = np.empty((len(times), m))
    directions = np.empty((len(times), m), dtype=np.int64)
    tmax = float(times[-1])
    for j in range(m):
        bounds = [np.zeros(1), state.next_switch[j:j + 1]]
        while bounds[-1][-1] <= tmax:
            size = 512 + int(r * (tmax - bounds[-1][-1]))
            bounds.append(_draw_switches(streams.walker[j], bounds[-1][-1], r, size))
        positions[:, j], directions[:, j] = _walk(
            state.positions[j], state.directions[j], np.concatenate(bounds),
            times, v, n,
        )
    return positions, directions
