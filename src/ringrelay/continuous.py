"""Continuum relay simulator.

Walkers move at constant speed on a circle and reverse direction at the
arrival times of independent Poisson clocks.  When the message holder
meets a clockwise mover head-on, the message changes hands.  The state
and the start rule (which also tells a contact start) are model.State
and model.start_state, shared with the lattice; the state holds no
switch times, since layer (a) below draws every one, the first included.

simulate_continuous runs one block engine for any number of walkers; the
tests replay it against the event operations of tests/oracles.py, which
take one event at a time.  The message never changes how the walkers
move, so the engine, _paths, yields walker paths and meetings chunk by
chunk of switches, and model.relay turns them into readings: (a) each
walker's switch times are drawn in blocks from its own stream, exactly
as the oracle schedules them, and merged into one timeline of segments;
a walker's direction on a segment is the parity of its own flips so
far, walker 0's unwrapped position is one cumulative sum, and any other
walker sits at walker 0's plus its pair gap; (b) the meetings of a pair
are the level crossings (multiples of the circumference) of its
piecewise linear unwrapped gap, sought only on the segments where the
pair's directions differ, in (time, pair) order.  sample_walker_states
reads walker samples off layer (a)'s switch times with model.walk,
without the relay: the one source of them.

A reading at a time sees only what happened strictly before it: a
walker switching then still has its old direction, and a handoff then
has not happened.  Ties are resolved deterministically: checkpoints
before events, switches before meetings, lower walker indices first.
"""
from __future__ import annotations

import numpy as np

from . import errors
from .estimators import N_BATCHES, RunReport, build_report
from .model import (
    ContinuousConfig,
    SeedSpec,
    State,
    WalkerStreams,
    as_seed,
    is_real,
    relay,
    sample_times,
    start_state,
    walk,
)


# switches per walker in one chunk of the engine with two walkers
SWITCH_CHUNK = 1 << 14
MAX_MEETINGS = 10**6  # in one chunk, ~110 B each; only a ring tiny next to v/r


def default_tol(config: ContinuousConfig) -> float:
    """Position coincidence tolerance: snapped meetings keep float noise
    far below this, and genuine gaps sit far above it."""
    return 1e-12 * config.circumference


def _check_switches(config: ContinuousConfig, horizon: float) -> None:
    """The work bound of every run of walker paths: the expected switches
    of m walkers up to horizon, m r horizon, stay below 2**53, and the
    unwrapped positions, within v horizon + N, stay finite floats."""
    switches = config.n_walkers * config.switch_rate * horizon
    if not switches < 2**53:
        raise errors.RelayError(
            f"{config.n_walkers} walkers switching at rate {config.switch_rate!r} "
            f"up to horizon {horizon!r} ask for {switches:.3g} switches, "
            "at least 2**53")
    if not config.speed * horizon + config.circumference < np.inf:
        raise errors.RelayError(
            f"speed {config.speed!r} up to horizon {horizon!r} on a ring of "
            f"{config.circumference!r} leaves the float range")


def check_run(config: ContinuousConfig, horizon: float) -> None:
    """Every check of a run up to horizon but MAX_MEETINGS, which depends on
    the draws: a finite horizon > 0, _check_switches, a resolvable batch."""
    if not (is_real(horizon) and 0.0 < horizon < np.inf):
        raise errors.RelayError(f"horizon must be finite and > 0, got {horizon!r}")
    _check_switches(config, horizon)
    travel = config.speed * horizon / N_BATCHES
    if not travel >= 2.0**-32 * (config.circumference + config.speed * horizon):
        raise errors.RelayError(
            f"horizon {horizon!r} at speed {config.speed!r} moves the message "
            f"{travel:.3g} per batch, too little to resolve on a ring of "
            f"{config.circumference!r}")


def _start(config: ContinuousConfig, streams: WalkerStreams, initial) -> tuple:
    """model.start_state on the circle."""
    n = config.circumference
    return start_state(initial, config.n_walkers, n, streams,
                       lambda k: streams.aux.random(k) * n, default_tol(config))


def simulate_continuous(
    config: ContinuousConfig,
    horizon: float,
    seed: SeedSpec | int,
    initial="uniform-random",
    *,
    trace_every: float | None = None,
) -> RunReport:
    """Run the continuum relay up to the given time horizon.

    Statistics cover the window after a 1% burn-in, skipped when the
    start is a contact state.  trace_every records the running speed and
    handoff rate from time 0.
    """
    check_run(config, horizon)
    spec = as_seed(seed)
    streams = WalkerStreams(spec, config.n_walkers)
    tol = default_tol(config)
    state, in_f = _start(config, streams, initial)
    return build_report(
        lambda checkpoints, burn, lap: relay(
            _paths(config, streams, state, float(horizon), tol), checkpoints, state,
            config.circumference, streams, tol / config.speed, in_f, burn, lap),
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


def _chunk_switches(m: int, laps_per_switch: float) -> int:
    """Switches per walker in one chunk.  k of them make about m k segments
    with a cell per pair, m^2 (m - 1) k / 2 cells, so every m up to 10 gets
    the 2 SWITCH_CHUNK cells of two walkers, and from m = 17 on 16 switches,
    lest Python work per chunk dominate.  A pair meets about v / (n r) times
    per switch, so rings with laps_per_switch = n r / v < 1 take fewer."""
    k = max(16, 4 * SWITCH_CHUNK // (m**2 * (m - 1)))
    return max(1, int(k * min(1.0, laps_per_switch)))


def _paths(
    config: ContinuousConfig, streams: WalkerStreams, state: State,
    horizon: float, tol: float,
):
    """Layers (a) and (b) of the module docstring from state up to horizon,
    as the blocks model.relay reads, chunk by chunk.  Walker j > 0 sits at
    u0 + n base + gap of the pair (0, j); the unwrapped gap x_k - x_j =
    n base + gap of a pair j < k has slope 0 or +-2v, and a level within
    tol of a segment's start is where the pair already is, not a meeting.
    Meetings come in (time, pair) order, as the oracle's next_event."""
    n, v = config.circumference, config.speed
    r, m = config.switch_rate, config.n_walkers
    pj, pk = np.triu_indices(m, 1)  # pairs j < k in lexicographic order
    k = _chunk_switches(m, n * r / v)

    def settle(gap: np.ndarray, base: np.ndarray):
        """Rebase the gaps into [0, n), snapping them onto a level within tol."""
        level = np.floor(gap / n)
        gap, base = gap - level * n, base + level.astype(np.int64)
        wrap = n - gap <= tol
        return np.where(wrap | (gap <= tol), 0.0, gap), base + wrap

    pending = [np.zeros(0) for _ in range(m)]
    drawn = [0.0] * m  # latest switch drawn, or the start
    d = state.directions.astype(np.int8)
    x = state.positions.astype(float)
    # unwrapped gap of each pair is base * n + gap
    gap, base = settle(x[pk] - x[pj], np.zeros(len(pj), dtype=np.int64))
    t0, u0 = 0.0, x[0]
    while True:
        # (a) walker paths: switches up to the chunk end t1
        for j in range(m):
            if len(pending[j]) < k:
                more = _draw_switches(streams.walker[j], drawn[j], r,
                                      k - len(pending[j]))
                pending[j] = np.concatenate((pending[j], more))
                drawn[j] = float(more[-1])
        t1 = min(p[k - 1] for p in pending)
        final, t1 = t1 >= horizon, min(t1, horizon)
        switches = []
        for j in range(m):
            cut = np.searchsorted(pending[j], t1, side="left" if final else "right")
            switches.append(pending[j][:cut])
            pending[j] = pending[j][cut:]

        # merged switches; segment i runs from bounds[i] to bounds[i + 1],
        # and row j of dirs holds walker j's direction on each segment
        times = np.concatenate(switches)
        order = np.argsort(times, kind="stable")  # ties: lower walker first
        bounds = np.concatenate(([t0], times[order], [t1]))
        vdt = v * np.diff(bounds)
        who = np.repeat(np.arange(m), [len(s) for s in switches])[order]
        odd = np.zeros((m, len(vdt)), dtype=bool)  # odd flips so far
        np.equal(who, np.arange(m)[:, None], out=odd[:, 1:])
        np.logical_xor.accumulate(odd, axis=1, out=odd)
        dirs = odd.view(np.int8) * (-2 * d)[:, None]
        dirs += d[:, None]
        u = np.cumsum(np.concatenate(([u0], vdt * dirs[0])))  # walker 0

        # (b) meetings: levels crossed strictly inside the cells (segment,
        # pair) where the pair's directions differ, taken segment by
        # segment; sgn is +1 where the gap rises and -1 where it falls, so
        # that each crossing is counted on a rising gap times sgn
        live = np.flatnonzero((dirs[pk] != dirs[pj]).T)
        seg, pair = np.divmod(live, len(pj))
        sgn = dirs[pk[pair], seg]  # the direction of k, the clockwise member
        rise = 2.0 * vdt[seg]
        g = np.zeros((len(bounds), len(pj)))  # each pair's gap at each bound
        g[0] = gap
        g.ravel()[live + len(pj)] = rise * sgn
        np.cumsum(g, axis=0, out=g)
        a = g.ravel()[live] * sgn
        first = np.floor((a + tol) / n) + 1
        count = np.maximum(np.ceil((a + rise) / n) - first, 0)
        if not count.sum() <= MAX_MEETINGS:  # also nan, where the levels overflow
            raise errors.RelayError(
                f"a chunk of walker paths asks for {count.sum():.3g} meetings, more "
                f"than {MAX_MEETINGS}: N={n!r} is too small next to v/r={v / r!r}")
        cell = np.repeat(np.arange(len(count)), count.astype(np.int64))
        cross = first[cell] + np.arange(len(cell)) - (np.cumsum(count) - count)[cell]
        sgn, seg, pair = sgn[cell], seg[cell], pair[cell]
        meet_t = np.minimum(bounds[seg] + (cross * n - a[cell]) / (2.0 * v),
                            bounds[seg + 1])
        # (time, pair) order: a stable sort by time keeps ties in pair order
        by_time = np.argsort(meet_t, kind="stable")
        sgn, seg, pair, cross, meet_t = (
            values[by_time] for values in (sgn, seg, pair, cross, meet_t))
        cw = np.where(sgn > 0, pk[pair], pj[pair])  # the clockwise member

        def level(i):
            # x_cw - x_ccw = sgn (x_k - x_j) = n (sgn base + cross) there
            return sgn[i] * base[pair[i]] + cross[i].astype(np.int64)

        def at(w, t, i=None):
            s = (seg[i] if i is not None
                 else np.maximum(np.searchsorted(bounds, t, side="left") - 1, 0))
            # flat gathers; walker 0 has no pair term, so its index is moot
            off = (w > 0) * (n * base[w - 1] + g.ravel()[s * len(pj) + w - 1])
            return u[s] + off + v * dirs.ravel()[w * len(vdt) + s] * (t - bounds[s])

        yield t1, meet_t, cw, pj[pair] + pk[pair] - cw, level, at
        if final:
            return
        t0, u0 = t1, u[-1]
        d = dirs[:, -1].copy()
        gap, base = settle(g[-1], base)


def sample_walker_states(
    config: ContinuousConfig, times, seed: SeedSpec | int
) -> tuple[np.ndarray, np.ndarray]:
    """Walker positions and directions at the given times, one row per
    time.  No relay is resolved, since the message never changes how the
    walkers move: each walker's switch times are drawn in blocks, exactly
    as simulate_continuous and the event operations of tests/oracles.py
    draw them from the uniform-random start, and model.walk reads its
    path, so on a shared seed they agree up to float roundoff."""
    times = sample_times(times, whole=False)
    tmax = float(times[-1]) if len(times) else 0.0
    _check_switches(config, tmax)
    n, v = config.circumference, config.speed
    r, m = config.switch_rate, config.n_walkers
    streams = WalkerStreams(as_seed(seed), m)
    state, _ = _start(config, streams, "uniform-random")
    positions = np.empty((len(times), m))
    directions = np.empty((len(times), m), dtype=np.int64)
    for j in range(m):
        bounds = [np.zeros(1)]
        while bounds[-1][-1] <= tmax:
            size = 512 + int(r * (tmax - bounds[-1][-1]))
            bounds.append(_draw_switches(streams.walker[j], bounds[-1][-1], r, size))
        positions[:, j], directions[:, j] = walk(
            state.positions[j], state.directions[j], np.concatenate(bounds),
            times, v, n,
        )
    return positions, directions
