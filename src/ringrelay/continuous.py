"""Continuum relay simulators.

Walkers move at constant speed on a circle and reverse direction at the
arrival times of independent Poisson clocks.  When the message holder
meets a clockwise mover head-on, the message changes hands.  The message
never changes how the walkers move, so walker paths can be drawn first
and the relay resolved over them.

There are two engines, chosen by the number of walkers:

* two walkers (the paper's model): switch times are drawn in blocks,
  meetings are the level crossings of the piecewise linear gap, and all
  totals are cumulative sums over the merged timeline, processed in
  chunks of SWITCH_CHUNK switches per walker;
* three or more walkers: an event loop that jumps from one switch or
  pair meeting to the next.

Both report through the accounting step shared with the lattice
simulator, estimators.build_report.  The pure event operations
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
from .estimators import N_BATCHES, Readings, RunReport, build_report
from .model import (
    ContinuousConfig,
    SeedSpec,
    WalkerStreams,
    as_seed,
    circle_delta,
    validate_continuous,
)


# switches per walker in one block of the two-walker engine
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


def _check_state(state: ContinuousState, config: ContinuousConfig) -> None:
    m = config.n_walkers
    if len(state.positions) != m or len(state.directions) != m:
        raise errors.RelayError(f"state must describe {m} walkers")
    if np.any(state.positions < 0) or np.any(state.positions >= config.circumference):
        raise errors.NOutOfRange("positions must lie in [0, circumference)")
    if not np.all(np.isin(state.directions, (1, -1))):
        raise errors.RelayError("directions must be +1 or -1")
    if not (0 <= state.carrier < m):
        raise errors.RelayError(f"carrier must be in [0, {m})")


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
        _check_state(initial, config)
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
    burn = 0.0 if in_f else 0.01 * horizon

    def engine(checkpoints, is_sample):
        if config.n_walkers == 2:
            return _run_pair(
                config, streams, state, checkpoints, is_sample, tol, burn, in_f
            )
        return _run_many(config, streams, state, checkpoints, is_sample, tol)

    return build_report(
        engine,
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
        burn=burn,
        end=float(horizon),
        edges=np.linspace(burn, horizon, N_BATCHES + 1),
        sample_every=sample_every,
        trace_every=trace_every,
    )


# ----------------------------------------------------------------------
# two walkers: block paths, meetings as level crossings of the gap


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
    signs = np.where(np.arange(len(bounds)) % 2 == 0, d0, -d0)
    disp = np.concatenate(([0.0], np.cumsum(signs[:-1] * np.diff(bounds))))
    idx = np.searchsorted(bounds[1:], times, side="left")
    positions = (
        x0 + speed * (disp[idx] + signs[idx] * (times - bounds[idx]))
    ) % circumference
    return positions, signs[idx]


def _run_pair(
    config: ContinuousConfig, streams: WalkerStreams, state: ContinuousState,
    checkpoints: np.ndarray, is_sample: np.ndarray, tol: float,
    burn: float, in_f: bool,
) -> Readings:
    """Two-walker engine.

    (a) Each walker's switch times are drawn in blocks from its own
    stream.  (b) The unwrapped gap g = x1 - x0 is piecewise linear with
    slope 0 or +-2v, and the walkers meet exactly when g crosses a
    multiple of the circumference; a level within tol of a segment's
    start is where the pair already is, not a meeting.  After every
    meeting the message sits on the clockwise mover, so it jumped iff
    that mover is not the previous carrier.  (c) Displacement, clockwise
    time and handoffs are cumulative sums over the merged timeline of
    switches and meetings, read at the checkpoints with searchsorted
    (a checkpoint comes before an event at the same time).

    The horizon is processed in chunks of at most SWITCH_CHUNK switches
    per walker; walker state, gap, carrier, totals and the open cycle
    carry over from one chunk to the next.
    """
    n, v, r = config.circumference, config.speed, config.switch_rate
    horizon = float(checkpoints[-1])
    # the pair meets about v / (n r) times per switch, so on small rings
    # fewer switches per chunk keep a chunk's meetings near SWITCH_CHUNK
    k = max(1, int(SWITCH_CHUNK * min(1.0, n * r / v)))

    def settle(gap: float, base: int) -> tuple[float, int]:
        """Rebase the gap into [0, n), snapping it onto a level within tol."""
        level = np.floor(gap / n)
        gap, base = gap - level * n, base + int(level)
        if n - gap <= tol:
            return 0.0, base + 1
        return (0.0 if gap <= tol else gap), base

    pending = [state.next_switch[j:j + 1].astype(float) for j in (0, 1)]
    drawn = [float(state.next_switch[j]) for j in (0, 1)]  # latest switch drawn
    d = state.directions.astype(np.int64)
    x = state.positions.astype(float)
    gap, base = settle(float(x[1] - x[0]), 0)  # unwrapped gap is base * n + gap
    car = state.carrier
    cum_disp = cum_clock = 0.0
    cum_jumps = 0
    # the latest contact as (time, cum_disp, carrier, gap level) arrays of
    # length one, empty until the first meeting unless the run starts in one
    contact = (np.zeros(1), np.zeros(1), np.array([car]), np.array([base]))
    if not in_f:
        contact = tuple(c[:0] for c in contact)
    sampling = bool(is_sample.any())
    read = [np.empty(len(checkpoints)) for _ in range(3)]
    samples_x, samples_d = [], []
    cycles = ([np.empty(0)], [np.empty(0)], [np.empty(0)], [np.empty(0, dtype=bool)])
    t0, icp = 0.0, 0
    while True:
        # (a) walker paths: switches up to the chunk end t1
        for j in (0, 1):
            if len(pending[j]) < k:
                more = _draw_switches(
                    streams.walker[j], drawn[j], r, k - len(pending[j])
                )
                pending[j] = np.concatenate((pending[j], more))
                drawn[j] = float(more[-1])
        t1 = min(pending[0][k - 1], pending[1][k - 1])
        final = t1 >= horizon
        if final:
            t1 = horizon
        switches = []
        for j in (0, 1):
            cut = np.searchsorted(pending[j], t1, side="left" if final else "right")
            switches.append(pending[j][:cut])
            pending[j] = pending[j][cut:]

        # merged switches; segment i runs from bounds[i] to bounds[i + 1]
        times = np.concatenate(switches)
        order = np.argsort(times, kind="stable")  # ties: walker 0 first
        bounds = np.concatenate(([t0], times[order], [t1]))
        flips0 = np.concatenate(([0], np.cumsum(order < len(switches[0]))))
        flips1 = np.arange(len(flips0)) - flips0
        d0 = np.where(flips0 % 2 == 0, d[0], -d[0])
        d1 = np.where(flips1 % 2 == 0, d[1], -d[1])
        dt = np.diff(bounds)
        slope = v * (d1 - d0)
        g = np.cumsum(np.concatenate(([gap], slope * dt)))

        # (b) meetings: levels crossed strictly inside each segment
        a, b = g[:-1], g[1:]
        rise = slope > 0
        first = np.where(rise, np.floor((a + tol) / n) + 1, np.ceil((a - tol) / n) - 1)
        last = np.where(rise, np.ceil(b / n) - 1, np.floor(b / n) + 1)
        count = np.where(rise, last - first + 1, first - last + 1)
        count = np.where(slope != 0, np.maximum(count, 0), 0).astype(np.int64)
        seg = np.repeat(np.arange(len(count)), count)
        nth = np.arange(len(seg)) - np.repeat(np.cumsum(count) - count, count)
        levels = (first[seg] + np.where(rise[seg], nth, -nth)).astype(np.int64)
        meet_t = np.minimum(
            bounds[seg] + (levels * n - a[seg]) / slope[seg], bounds[seg + 1]
        )
        meet_car = rise[seg].astype(np.int64)  # the clockwise mover
        jumped = meet_car != np.concatenate(([car], meet_car[:-1]))

        # (c) merged timeline: each segment start, then its meetings
        at_start = np.cumsum(count + 1) - (count + 1)
        at_meet = at_start[seg] + 1 + nth
        points = np.empty(len(bounds) + len(seg))
        points[at_start] = bounds[:-1]
        points[at_meet] = meet_t
        points[-1] = t1
        seg_of = np.repeat(np.arange(len(count)), count + 1)
        latest = np.zeros(len(seg_of), dtype=np.int64)
        latest[at_meet] = np.arange(1, len(seg) + 1)
        carrier = np.concatenate(([car], meet_car))[np.maximum.accumulate(latest)]
        dc = np.where(carrier == 0, d0[seg_of], d1[seg_of])
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
                for j in (0, 1)
            ]
            pos = np.column_stack([w[0] for w in walked])
            dirs = np.column_stack([w[1] for w in walked])
            samples_x.extend(pos[:-1])
            samples_d.extend(dirs[:-1])
            x = pos[-1]

        # cycles run contact to contact; keep those starting after burn-in
        t_c, disp_c, car_c, level_c = (
            np.concatenate(pair) for pair in zip(
                contact, (meet_t, disp[at_meet], meet_car, base + levels)
            )
        )
        keep = t_c[:-1] >= burn
        # the carrier's displacement around its partner, in whole laps
        laps = np.where(car_c[:-1] == 1, 1, -1) * np.diff(level_c)
        ended_in_jump = jumped[len(jumped) + 1 - len(t_c):]
        for acc, values in zip(
            cycles, (np.diff(t_c), laps * n, np.diff(disp_c), ended_in_jump)
        ):
            acc.append(values[keep])
        contact = tuple(c[-1:] for c in (t_c, disp_c, car_c, level_c))

        icp, t0 = stop, t1
        if final:
            break
        car = int(carrier[-1])
        cum_disp, cum_clock, cum_jumps = disp[-1], clock[-1], int(hops[-1])
        d = np.array([d0[-1], d1[-1]])
        gap, base = settle(g[-1], base)
    return Readings(
        *read, samples_x, samples_d, tuple(map(np.concatenate, cycles))
    )


# ----------------------------------------------------------------------
# three or more walkers: event loop


def _run_many(
    config: ContinuousConfig, streams: WalkerStreams, state: ContinuousState,
    checkpoints: np.ndarray, is_sample: np.ndarray, tol: float,
) -> Readings:
    """Event loop over switches, pair meetings and checkpoints.

    Between events everything is deterministic, so the loop jumps from
    one event to the next: the earliest pending switch or meeting of an
    oppositely moving pair, whose time has a closed form.  When the
    carrier moves counter-clockwise into clockwise movers, the message
    goes to one of them.
    """
    n, v, r, m = (
        config.circumference,
        config.speed,
        config.switch_rate,
        config.n_walkers,
    )
    x = state.positions.astype(float)
    d = state.directions.astype(np.int64)
    car = state.carrier
    ns = state.next_switch.astype(float)
    clock = 0.0

    cum_disp = 0.0
    cum_clock = 0.0
    cum_jumps = 0
    read = [np.empty(len(checkpoints)) for _ in range(3)]
    samples_x, samples_d = [], []

    inf = np.inf
    pairs = [(j, k) for j in range(m) for k in range(j + 1, m)]
    icp = 0
    while True:
        t_cp = checkpoints[icp]

        # earliest internal event: switches first on ties, then pairs
        ev_t, ev_kind, ev_j, ev_k = inf, 0, -1, -1
        for j in range(m):
            if ns[j] < ev_t:
                ev_t, ev_kind, ev_j = ns[j], 0, j
        for j, k in pairs:
            if d[j] == d[k]:
                continue
            gap = (x[k] - x[j]) % n
            if gap >= n:
                gap -= n
            if d[j] == 1:
                dt = gap / (2.0 * v) if gap > tol else n / (2.0 * v)
            else:
                dt = (n - gap) / (2.0 * v) if gap < n - tol else n / (2.0 * v)
            t_meet = clock + dt
            if t_meet < ev_t:
                ev_t, ev_kind, ev_j, ev_k = t_meet, 1, j, k

        t_next = min(t_cp, ev_t)
        seg = t_next - clock
        if seg > 0.0:
            cum_disp += v * d[car] * seg
            if d[car] == 1:
                cum_clock += seg
            x = (x + v * d * seg) % n
            clock = t_next

        if t_cp <= ev_t:
            read[0][icp] = cum_disp
            read[1][icp] = cum_jumps
            read[2][icp] = cum_clock
            if is_sample[icp]:
                samples_x.append(x.copy())
                samples_d.append(d.copy())
            icp += 1
            if icp == len(checkpoints):
                break
        elif ev_kind == 0:
            d[ev_j] = -d[ev_j]
            ns[ev_j] = clock + streams.walker[ev_j].exponential(1.0 / r)
        else:
            x[ev_k] = x[ev_j]
            if d[car] == -1:
                cands = _handoff_candidates(x, d, car, n, tol)
                if cands.size:
                    car = int(cands[streams.choose(cands.size)])
                    cum_jumps += 1
    return Readings(*read, samples_x, samples_d)


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
    x0 = streams.aux.random(m) * n
    d0 = 1 - 2 * streams.aux.integers(0, 2, size=m)
    streams.aux.integers(m)  # the carrier draw; irrelevant here but keeps
    # the auxiliary stream aligned with the simulator's

    positions = np.empty((len(times), m))
    directions = np.empty((len(times), m), dtype=np.int64)
    tmax = float(times[-1])
    for j in range(m):
        bounds = [np.zeros(1)]
        while bounds[-1][-1] <= tmax:
            size = 512 + int(r * (tmax - bounds[-1][-1]))
            bounds.append(_draw_switches(streams.walker[j], bounds[-1][-1], r, size))
        positions[:, j], directions[:, j] = _walk(
            x0[j], d0[j], np.concatenate(bounds), times, v, n
        )
    return positions, directions
