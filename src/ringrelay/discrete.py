"""Round-based simulator for the lattice relay.

One round, in order: every walker moves one site in its current
direction; every walker independently reverses direction with the flip
probability; if the message holder now moves counter-clockwise while
sharing its site with a clockwise mover, the message jumps to one such
mover (chosen uniformly if there are several).  The message therefore
only ever crosses sites clockwise.

step() applies one round and is the reference implementation; the
tests replay it against simulate_discrete, which runs one block engine
for any number of walkers.  The message never changes how the walkers
move, so the engine works in three layers: (a) each walker's flips are
drawn in blocks from that walker's own stream, consuming randomness
exactly as repeated step() calls do, and give (rounds x walkers) arrays
of positions and directions; (b) the relay is resolved over the contact
rounds only, where a clockwise and a counter-clockwise walker share a
site: for two walkers the message then sits on the clockwise mover, for
more the handoff rule of step() runs contact by contact, drawing its
tie-breaks in round order; (c) carrier displacement and handoffs are
cumulative sums read at the checkpoints of the shared accounting step,
estimators.build_report, which also sets the burn-in and batches and
cuts the two-walker contacts into regeneration cycles.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import errors
from .estimators import Readings, RunReport, build_report
from .model import (
    DiscreteConfig,
    SeedSpec,
    WalkerStreams,
    as_seed,
    check_state,
    validate_discrete,
)

# walker-rounds (rounds x walkers) in one block of the engine
WALKER_ROUNDS = 1 << 14


@dataclass
class DiscreteState:
    positions: np.ndarray  # site indices, shape (m,)
    directions: np.ndarray  # +1 / -1, shape (m,)
    carrier: int  # walker index holding the message
    t: int = 0

    def copy(self) -> "DiscreteState":
        return DiscreteState(
            self.positions.copy(), self.directions.copy(), self.carrier, self.t
        )


def _resolve_handoff(
    positions: np.ndarray, directions: np.ndarray, carrier: int,
    streams: WalkerStreams,
) -> tuple[int, bool]:
    if directions[carrier] != -1:
        return carrier, False
    candidates = np.nonzero(
        (positions == positions[carrier]) & (directions == 1)
    )[0]
    if candidates.size == 0:
        return carrier, False
    return int(candidates[streams.choose(candidates.size)]), True


def step(
    state: DiscreteState, config: DiscreteConfig, streams: WalkerStreams
) -> tuple[DiscreteState, bool]:
    """One synchronous round; returns the new state and whether the
    message changed hands."""
    m = config.n_walkers
    positions = (state.positions + state.directions) % config.n_sites
    signs = np.empty(m, dtype=np.int64)
    for j in range(m):
        signs[j] = -1 if streams.walker[j].random() < config.flip_prob else 1
    directions = state.directions * signs
    carrier, jumped = _resolve_handoff(positions, directions, state.carrier, streams)
    return DiscreteState(positions, directions, carrier, state.t + 1), jumped


def sample_nu(config: DiscreteConfig, streams: WalkerStreams) -> DiscreteState:
    """Draw from the regeneration law: both walkers on one uniform site,
    opposite directions, message on the clockwise mover (two walkers
    only)."""
    if config.n_walkers != 2:
        raise errors.MNotTwo("regeneration start is defined for 2 walkers")
    site = int(streams.aux.integers(config.n_sites))
    variant = int(streams.aux.integers(2))
    positions = np.array([site, site], dtype=np.int64)
    if variant == 0:
        return DiscreteState(positions, np.array([1, -1], dtype=np.int64), 0)
    return DiscreteState(positions, np.array([-1, 1], dtype=np.int64), 1)


def in_regeneration_set(state: DiscreteState, config: DiscreteConfig) -> bool:
    """Contact states: both walkers co-located with opposite directions
    (after handoff resolution the carrier is the clockwise mover)."""
    if config.n_walkers != 2:
        return False
    return (
        int(state.positions[0]) % config.n_sites
        == int(state.positions[1]) % config.n_sites
        and state.directions[0] * state.directions[1] == -1
    )


def _initial_state(
    config: DiscreteConfig, streams: WalkerStreams, initial
) -> DiscreteState:
    n, m = config.n_sites, config.n_walkers
    if isinstance(initial, DiscreteState):
        check_state(initial, m, n)
        state = initial.copy()
        state.t = 0
    elif initial == "uniform-random":
        positions = streams.aux.integers(0, n, size=m).astype(np.int64)
        directions = (1 - 2 * streams.aux.integers(0, 2, size=m)).astype(np.int64)
        carrier = int(streams.aux.integers(m))
        state = DiscreteState(positions, directions, carrier)
    elif initial == "regeneration":
        state = sample_nu(config, streams)
    else:
        raise errors.RelayError(f"unknown initial condition {initial!r}")
    # A holder moving counter-clockwise on top of a clockwise mover is
    # never observed after an update; resolve it now, uncounted.
    state.carrier, _ = _resolve_handoff(
        state.positions, state.directions, state.carrier, streams
    )
    return state


def simulate_discrete(
    config: DiscreteConfig,
    steps: int,
    seed: SeedSpec | int,
    initial="uniform-random",
    *,
    sample_every: int | None = None,
    trace_every: int | None = None,
) -> RunReport:
    """Run the lattice relay for a fixed number of rounds.

    Statistics cover rounds after a 1% burn-in, skipped entirely when
    the start is a contact state (the regeneration law needs none).
    sample_every records the walker state at that spacing for
    distribution tests; trace_every records the running speed and
    handoff rate from round 0 for convergence plots.  Regeneration
    cycles are a two-walker construction, recorded only for m = 2.
    The window, batches and cycles are set by estimators.build_report.
    """
    validate_discrete(config)
    if not isinstance(steps, (int, np.integer)) or steps < 1:
        raise errors.RelayError(f"steps must be an integer >= 1, got {steps!r}")
    spec = as_seed(seed)
    streams = WalkerStreams(spec, config.n_walkers)
    state = _initial_state(config, streams, initial)
    in_regen = in_regeneration_set(state, config)
    return build_report(
        lambda checkpoints, is_sample: _run_blocks(
            config, streams, state, checkpoints, is_sample, in_regen
        ),
        params={
            "model": "discrete",
            "N": config.n_sites,
            "epsilon": config.flip_prob,
            "m": config.n_walkers,
            "steps": steps,
        },
        seed=spec,
        lap_length=2.0 * config.n_sites,
        end=steps,
        in_contact=in_regen,
        sample_every=sample_every,
        trace_every=trace_every,
    )


def _run_blocks(
    config: DiscreteConfig, streams: WalkerStreams, state: DiscreteState,
    checkpoints: np.ndarray, is_sample: np.ndarray, in_regen: bool,
) -> Readings:
    """Block engine over rounds 1 .. checkpoints[-1].

    Round t contributes the direction of the carrier in the state after
    t updates, so the displacement read at checkpoint T covers rounds
    0 .. T-1 and the handoffs those that produced states 1 .. T.  Walker
    state, carrier and totals carry over from one block to the next.
    """
    n, eps, m = config.n_sites, config.flip_prob, config.n_walkers
    steps = int(checkpoints[-1])
    block = max(1, WALKER_ROUNDS // m)
    x = state.positions.astype(np.int64)  # unwrapped positions at round t0
    d = state.directions.astype(np.int64)
    car = state.carrier
    cum_disp = cum_jumps = 0  # over rounds before t0
    read = [np.empty(len(checkpoints)) for _ in range(3)]
    samples_x, samples_d = [], []
    # two walkers: round, displacement, gap level and carrier of each
    # contact, block by block; a contact start first
    zero = np.zeros(int(in_regen), dtype=np.int64)
    contacts = ([zero], [zero], [zero], [zero + car]) if m == 2 else None
    t0 = icp = 0
    while t0 < steps:
        b = min(block, steps - t0)
        # (a) walker paths over rounds t0+1 .. t0+b, one row per round
        flips = np.column_stack(
            [streams.walker[j].random(b) < eps for j in range(m)]
        )
        dirs = np.cumprod(np.where(flips, -1, 1), axis=0)
        dirs *= d
        xs = np.cumsum(np.vstack((d, dirs[:-1])), axis=0)
        xs += x
        pos = xs % n

        # (b) contact rounds, and the carrier after each of them
        contact = np.zeros(b, dtype=bool)
        for j in range(m):
            for k in range(j + 1, m):
                contact |= (pos[:, j] == pos[:, k]) & (dirs[:, j] != dirs[:, k])
        ridx = np.flatnonzero(contact)
        if m == 2:
            newcar = np.where(dirs[ridx, 0] == 1, 0, 1)
        else:
            newcar = np.empty(len(ridx), dtype=np.int64)
            c = car
            for i, r in enumerate(ridx):
                c, _ = _resolve_handoff(pos[r], dirs[r], c, streams)
                newcar[i] = c
        held = np.concatenate(([car], newcar))
        jump_t = t0 + 1 + ridx[held[1:] != held[:-1]]
        carrier = np.repeat(held, np.diff(ridx, prepend=0, append=b))
        dc = dirs[np.arange(b), carrier]
        # displacement over the rounds before t0 + k, k = 0 .. b
        disp = np.cumsum(np.concatenate(([cum_disp, d[car]], dc[:-1])))

        # (c) readings at the checkpoints in this block
        stop = np.searchsorted(checkpoints, t0 + b, side="right")
        ts = checkpoints[icp:stop]
        read[0][icp:stop] = disp[ts - t0]
        read[1][icp:stop] = cum_jumps + np.searchsorted(jump_t, ts, side="right")
        read[2][icp:stop] = (ts + disp[ts - t0]) // 2  # every round moves +-1
        rows = ts[is_sample[icp:stop]] - t0 - 1
        samples_x.append(pos[rows])
        samples_d.append(dirs[rows])
        if m == 2:
            found = (t0 + 1 + ridx, disp[ridx + 1], (xs[ridx, 1] - xs[ridx, 0]) // n,
                     newcar)
            for blocks, values in zip(contacts, found):
                blocks.append(values)

        cum_disp, cum_jumps = int(disp[-1]), cum_jumps + len(jump_t)
        x, d, car = xs[-1].copy(), dirs[-1].copy(), int(held[-1])
        del flips, dirs, xs, pos  # free this block before drawing the next
        t0, icp = t0 + b, stop
    return Readings(*read, samples_x, samples_d, contacts)
