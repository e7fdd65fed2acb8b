"""Round-based simulator for the lattice relay.

One round, in order: every walker moves one site in its current
direction; every walker independently reverses direction with the flip
probability; if the message holder now moves counter-clockwise while
sharing its site with a clockwise mover, the message jumps to one such
mover (chosen uniformly if there are several).  The message therefore
only ever crosses sites clockwise.

The state and the start rule (which also tells a contact start) are
model.State and model.start_state, shared with the continuum.
simulate_discrete runs one block engine for any number of walkers; the
tests replay it against step() in tests/oracles.py, which applies one
round.  The message never changes how the walkers move, so the engine,
_paths, yields walker paths and meetings block by block, with per-round
work only on one array per walker, and model.relay turns them into
readings: (a) each walker's flips are drawn in blocks from that
walker's own stream (_flips), consuming randomness exactly as repeated
step() calls do; its directions are the parity of the flips so far and
its unwrapped positions one cumulative sum of them; (b) a pair meets, a
clockwise and a counter-clockwise walker on one site, where their
directions differ and their unwrapped gap is a multiple of N (a table
lookup), in (round, pair) order.  sample_walker_states reads walker
samples off layer (a)'s flips with model.walk, the path evaluator both
models share, without the relay: the one source of them.
"""
from __future__ import annotations

import itertools

import numpy as np

from . import errors
from .estimators import RunReport, build_report
from .model import (
    DiscreteConfig,
    SeedSpec,
    State,
    WalkerStreams,
    as_seed,
    is_int,
    relay,
    sample_times,
    start_state,
    walk,
)

# walker-rounds (rounds x walkers) in one block of the engine
WALKER_ROUNDS = 1 << 17


def _flips(stream: np.random.Generator, size: int, eps: float) -> np.ndarray:
    """The next size flip draws of one walker, as step() draws them one at
    a time: a round flips where its uniform draw is below eps."""
    return stream.random(size) < eps


def _check_steps(steps, m: int) -> None:
    if not (is_int(steps) and steps >= 1):
        raise errors.RelayError(f"steps must be an integer >= 1, got {steps!r}")
    if m * int(steps) >= 2**53:
        raise errors.RelayError(
            f"{steps} steps of {m} walkers are at least 2**53 walker-rounds")


def _start(config: DiscreteConfig, streams: WalkerStreams, initial) -> tuple:
    """model.start_state on the lattice, whose points are whole sites."""
    n = config.n_sites
    state, contact = start_state(initial, config.n_walkers, n, streams,
                                 lambda k: streams.aux.integers(0, n, size=k))
    if np.any(state.positions % 1):
        raise errors.RelayError("positions must be whole sites on the lattice")
    return state, contact


def simulate_discrete(
    config: DiscreteConfig,
    steps: int,
    seed: SeedSpec | int,
    initial="uniform-random",
    *,
    trace_every: int | None = None,
) -> RunReport:
    """Run the lattice relay for a fixed number of rounds.

    Statistics cover rounds after a 1% burn-in, skipped entirely when
    the start is a contact state (the regeneration law needs none).
    trace_every records the running speed and handoff rate from round 0
    for convergence plots.  estimators.build_report sets the window.
    """
    _check_steps(steps, config.n_walkers)
    spec = as_seed(seed)
    streams = WalkerStreams(spec, config.n_walkers)
    state, in_regen = _start(config, streams, initial)
    return build_report(
        lambda checkpoints, burn, lap: relay(
            _paths(config, streams, state, steps), checkpoints, state, config.n_sites,
            streams, 0, in_regen, burn, lap),
        params={
            "model": "discrete",
            "N": config.n_sites,
            "epsilon": config.flip_prob,
            "m": config.n_walkers,
            "steps": steps,
        },
        seed=spec,
        lap_length=2.0 * config.n_sites,  # a pair's gap moves in steps of 2
        end=steps,
        in_contact=in_regen,
        trace_every=trace_every,
    )


def _paths(
    config: DiscreteConfig, streams: WalkerStreams, state: State, steps: int,
):
    """Layers (a) and (b) over rounds 1 .. steps from state, as the blocks
    model.relay reads: a meeting's time is its round, and round t gives
    the state after t updates."""
    n, eps, m = config.n_sites, config.flip_prob, config.n_walkers
    block = max(1, WALKER_ROUNDS // m)
    y = state.positions.astype(np.int64)  # unwrapped sites after round t0
    d = state.directions.astype(np.int8)
    t0 = 0
    while t0 < steps:
        b = min(block, steps - t0)
        # (a) walker paths over rounds t0 .. t0+b, column k for round
        # t0+k: directions from the parity of the flips so far, and
        # unwrapped sites y + rel[:, k]
        dirs = np.repeat(d[:, None], b + 1, axis=1)
        rel = np.zeros((m, b + 1), dtype=np.int64)
        for j in range(m):
            odd = np.logical_xor.accumulate(_flips(streams.walker[j], b, eps))
            np.multiply(odd.view(np.int8), -2 * d[j], out=dirs[j, 1:])
            dirs[j, 1:] += d[j]
            np.cumsum(dirs[j, :-1], out=rel[j, 1:])

        # (b) meetings in rounds t0+1 .. t0+b: opposite directions on one
        # site, where the unwrapped gap is a multiple of n; tbl marks the
        # relative gaps rel[k] - rel[j], which lie in [-2b, 2b], shifted by 2b
        meets = []
        for j, k in itertools.combinations(range(m), 2):
            tbl = np.zeros(4 * b + 1, dtype=bool)
            tbl[(y[j] - y[k] + 2 * b) % n::n] = True
            c = 1 + np.flatnonzero(
                (dirs[j, 1:] != dirs[k, 1:]) & tbl[rel[k, 1:] - rel[j, 1:] + 2 * b])
            cw = k + (j - k) * (dirs[j, c] > 0)  # the clockwise member
            meets.append((c, cw, j + k - cw))
        col, cw, ccw = (np.concatenate(f) for f in zip(*meets))
        by_time = np.argsort(col, kind="stable")  # ties stay in pair order
        when, cw, ccw = t0 + col[by_time], cw[by_time], ccw[by_time]

        def at(w, t, i=None):
            return y[w] + rel[w, t - t0]

        yield (t0 + b, when, cw, ccw,
               lambda i: (at(cw[i], when[i]) - at(ccw[i], when[i])) // n, at)
        y, d = y + rel[:, -1], dirs[:, -1].copy()
        del dirs, rel  # free this block before drawing the next
        t0 += b


def sample_walker_states(
    config: DiscreteConfig, rounds, seed: SeedSpec | int
) -> tuple[np.ndarray, np.ndarray]:
    """Walker positions and directions after the given rounds, one row per
    round, from the uniform-random start on the streams simulate_discrete
    would use.  No relay is resolved, since the message never changes how
    the walkers move: a walker reverses at the rounds whose _flips bit
    fires, drawn WALKER_ROUNDS at a time, and model.walk reads its path."""
    n, eps, m = config.n_sites, config.flip_prob, config.n_walkers
    rounds = sample_times(rounds, whole=True)
    last = int(rounds[-1]) if len(rounds) else 0
    _check_steps(max(last, 1), m)
    streams = WalkerStreams(as_seed(seed), m)
    state, _ = _start(config, streams, "uniform-random")
    positions = np.empty((len(rounds), m), dtype=np.int64)
    directions = np.empty((len(rounds), m), dtype=np.int64)
    for j in range(m):
        bounds = [np.zeros(1, dtype=np.int64)] + [t0 + 1 + np.flatnonzero(
            _flips(streams.walker[j], min(WALKER_ROUNDS, last - t0), eps))
            for t0 in range(0, last, WALKER_ROUNDS)]
        positions[:, j], directions[:, j] = walk(
            state.positions[j], state.directions[j], np.concatenate(bounds),
            rounds, 1, n)
    return positions, directions
