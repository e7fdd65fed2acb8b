"""Statistics extracted from simulation runs.

A RunReport is the common currency between the two simulators, the
estimators, and the command line tools: windowed totals for the three
long-run observables, fixed-count batch sums for error bars, the
regeneration cycles as one model.Cycles record, and optional running
traces.  build_report makes them for both models: it decides the
burn-in and the batches, and model.relay reads the checkpoints and
folds the cycles.  Walker samples are not part of a run: the two
sample_walker_states read them at their caller's times, with no burn-in,
and uniformity_test gives the chi-square p-value of their uniformity.
Merging reports concatenates trajectories in the obvious way, so replica
parallelism never changes any count or sum.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import errors
from .model import Cycles, DiscreteConfig

N_BATCHES = 50
MIN_EXPECTED = 20.0  # the least expected count per chi-square cell


@dataclass
class RunReport:
    """Windowed statistics of one simulated trajectory (or a merge).

    Totals cover the recorded window (after burn-in): total_time is its
    duration in rounds or time units, displacement_sum the carrier's net
    clockwise displacement (site steps, or length units), jump_count the
    number of handoffs, clockwise_time the duration the carrier spent
    moving clockwise.  Batches split the window into equal spans; cycles
    is the record of the regeneration cycles (None for more than two
    walkers), in which the carrier moves 0 or lap_length around its partner.
    """

    params: dict
    total_time: float
    burn_in: float
    displacement_sum: float
    jump_count: int
    clockwise_time: float
    lap_length: float
    batch_duration: float
    batch_displacement: np.ndarray
    batch_jumps: np.ndarray
    batch_clockwise: np.ndarray
    cycles: Cycles | None = None
    trace_times: np.ndarray | None = None
    trace_speed: np.ndarray | None = None
    trace_cost: np.ndarray | None = None
    seeds: list = field(default_factory=list)

    @property
    def n_cycles(self) -> int:
        return 0 if self.cycles is None else self.cycles.lengths.count


def window(end, in_contact: bool, trace_every=None) -> tuple:
    """The window rule of both simulators, for a run that ends at end:
    its burn-in, batch edges and trace times.

    The recorded window runs from burn-in to end: none after a start in
    a contact state (a regeneration), else the first 1% of the run.  It
    is cut into N_BATCHES batches; for runs counted in rounds (an integer
    end) they hold whole rounds and leave the rounds after the last batch
    out.  Trace points are the positive multiples of trace_every to end.
    """
    whole = isinstance(end, (int, np.integer))
    burn = 0 if in_contact else end // 100 if whole else 0.01 * end
    if whole:
        size = (end - burn) // N_BATCHES
        edges = burn + size * np.arange(N_BATCHES + 1 if size else 1)
    else:
        edges = np.linspace(burn, end, N_BATCHES + 1)
    count = int(end / trace_every) if trace_every else 0  # None or 0: no trace
    times = (trace_every or 1) * np.arange(1, count + 1)
    return burn, edges, times[times <= end]  # a time rounded past end goes


def build_report(
    engine, *, params: dict, seed, lap_length: float, end, in_contact: bool,
    trace_every=None,
) -> RunReport:
    """The accounting step shared by both simulators.

    The burn-in, batch edges and trace points follow window().  All
    these checkpoints go to engine(checkpoints, burn, lap_length) as one
    sorted list, and the model.Readings it returns are sliced back into a
    RunReport.  The carrier always moves, at speed v (1 on the lattice), so
    its clockwise time up to t is (t + displacement / v) / 2.
    """
    burn, edges, trace_ts = window(end, in_contact, trace_every)
    n_edges = len(edges)
    checkpoints = np.concatenate((edges, [end], trace_ts))
    order = np.argsort(checkpoints, kind="stable")
    run = engine(checkpoints[order], burn, lap_length)

    def unsort(values):
        out = np.empty(len(values))
        out[order] = values
        return out

    disp, jumps = unsort(run.displacement), unsort(run.jumps)
    clock = (checkpoints + disp / params.get("v", 1)) / 2
    batch = slice(0, n_edges)
    traced = slice(n_edges + 1, None)
    return RunReport(
        params=params,
        total_time=float(end - burn),
        burn_in=float(burn),
        displacement_sum=float(disp[n_edges] - disp[0]),
        jump_count=int(jumps[n_edges] - jumps[0]),
        clockwise_time=float(clock[n_edges] - clock[0]),
        lap_length=lap_length,
        batch_duration=float(edges[1] - edges[0]) if n_edges > 1 else 0.0,
        batch_displacement=np.diff(disp[batch]),
        batch_jumps=np.diff(jumps[batch]),
        batch_clockwise=np.diff(clock[batch]),
        cycles=run.cycles,
        trace_times=trace_ts.astype(float) if trace_every else None,
        trace_speed=disp[traced] / trace_ts if trace_every else None,
        trace_cost=jumps[traced] / trace_ts if trace_every else None,
        seeds=[[seed.master, seed.replica]],
    )


def merge(reports: list[RunReport]) -> RunReport:
    """Pool replicas: sums add, batch arrays concatenate, cycles pool.

    Replicas may have batches of different lengths (a start in a contact
    state skips burn-in, so its window is longer).  Each replica's batch
    sums are rescaled to the first replica's batch duration, which keeps
    every batch mean as it was; a replica too short for batches adds
    none.  A merged report carries no trace: a trace is the running
    average of one replica from time 0, so traces cannot be pooled; each
    replica keeps its own.
    """
    if not reports:
        raise errors.RelayError("nothing to merge")
    head = reports[0]
    for r in reports[1:]:
        if r.params != head.params:
            raise errors.RelayError("cannot merge reports with different models")

    cycles = [r.cycles for r in reports]

    def cat_batches(key):
        return np.concatenate([
            getattr(r, key) * (head.batch_duration / r.batch_duration)
            if r.batch_duration else getattr(r, key)
            for r in reports
        ])

    return RunReport(
        params=head.params,
        total_time=sum(r.total_time for r in reports),
        burn_in=sum(r.burn_in for r in reports),
        displacement_sum=sum(r.displacement_sum for r in reports),
        jump_count=sum(r.jump_count for r in reports),
        clockwise_time=sum(r.clockwise_time for r in reports),
        lap_length=head.lap_length,
        batch_duration=head.batch_duration,
        batch_displacement=cat_batches("batch_displacement"),
        batch_jumps=cat_batches("batch_jumps"),
        batch_clockwise=cat_batches("batch_clockwise"),
        cycles=None if None in cycles else functools.reduce(Cycles.pooled, cycles),
        seeds=[s for r in reports for s in r.seeds],
    )


class Estimate(NamedTuple):
    point: float
    stderr: float
    n_batches: int


def _batch_estimate(report: RunReport, batch_sums: np.ndarray, total: float) -> Estimate:
    n = len(batch_sums)
    if n < 20:
        raise errors.RelayError(f"need at least 20 batches, got {n}")
    means = batch_sums / report.batch_duration
    big = np.abs(means).max()  # scaled first only where the squares overflow
    scale = big if big > 1e150 else 1.0
    stderr = float(scale * (means / scale).std(ddof=1) / np.sqrt(n))
    return Estimate(float(total / report.total_time), stderr, n)


def speed_estimate(report: RunReport) -> Estimate:
    """Net clockwise displacement rate of the message, with batch SE."""
    return _batch_estimate(report, report.batch_displacement, report.displacement_sum)


def cost_estimate(report: RunReport) -> Estimate:
    """Handoff rate, with batch-means standard error."""
    return _batch_estimate(report, report.batch_jumps, float(report.jump_count))


def direction_estimate(report: RunReport) -> Estimate:
    """Fraction of the window the carrier moved clockwise."""
    return _batch_estimate(report, report.batch_clockwise, report.clockwise_time)


class KacCheck(NamedTuple):
    gap: float  # mean carrier displacement per cycle minus the product
    stderr: float


def kac_check(report: RunReport, time_average: float, time_stderr: float) -> KacCheck:
    """Cycle-sum identity: the mean carrier displacement per cycle against
    the product of the mean cycle length and the long-run speed.

    time_average and its standard error time_stderr should come from an
    independent run.  The returned stderr combines the cycle-side and
    product-side errors, so the two routes agree when gap is within a few
    stderr of zero.
    """
    if report.n_cycles < 100:
        raise errors.RelayError(f"need at least 100 cycles, got {report.n_cycles}")
    sums, lengths = report.cycles.carried, report.cycles.lengths
    mean_len, se_len = lengths.mean(), lengths.stderr()
    product = mean_len * time_average
    se_product = np.hypot(time_average * se_len, mean_len * time_stderr)
    return KacCheck(sums.mean() - product, float(np.hypot(sums.stderr(), se_product)))


def excursion_classifier(report: RunReport) -> Cycles:
    """The cycles of a report that has some, each wrapped (one full lap)
    or closed (relative displacement 0) as model.fold_cycles told."""
    if report.n_cycles == 0:
        raise errors.RelayError("report has no completed cycles")
    return report.cycles


def chi_square_uniformity(
    positions: np.ndarray,
    directions: np.ndarray,
    circumference: float,
    position_bins: int,
) -> float:
    """Chi-square p-value of joint uniformity of positions and directions.

    Positions are cut into position_bins equal arcs and crossed with the
    direction signs of every walker, giving (position_bins * 2)^m
    equiprobable cells under the product-uniform law, each of which must
    expect at least MIN_EXPECTED samples.
    """
    pos = np.asarray(positions, dtype=float)
    dirs = np.asarray(directions)
    k, m = pos.shape
    bins = np.minimum((pos / circumference * position_bins).astype(int),
                      position_bins - 1)
    cells_per_walker = position_bins * 2
    cell = np.zeros(k, dtype=np.int64)
    for j in range(m):
        cell = cell * cells_per_walker + bins[:, j] * 2 + (dirs[:, j] > 0)
    n_cells = cells_per_walker**m
    if k / n_cells < MIN_EXPECTED:
        raise errors.RelayError(
            f"{k} samples over {n_cells} cells leaves expected count "
            f"{k / n_cells:.1f} < {MIN_EXPECTED}"
        )
    counts = np.bincount(cell, minlength=n_cells)
    expected = counts.mean()
    stat = ((counts - expected) ** 2 / expected).sum()
    return chi_square_tail(stat, n_cells - 1)  # n_cells is even


def chi_square_tail(stat: float, df: int) -> float:
    """P(X > stat) for X chi-square on an odd number df = 2n + 1 of
    degrees of freedom: with y = stat / 2, erfc(sqrt(y)) plus the n
    positive terms y^(j+1/2) e^-y / Gamma(j + 3/2), j < n (Abramowitz &
    Stegun 26.4.4; DLMF 8.4), each taken in log space so none overflows.
    Near 1 the terms' rounding can lift the sum above 1, hence the cap."""
    y = stat / 2
    if y == 0:
        return 1.0
    log_y = math.log(y)
    return min(math.fsum([math.erfc(math.sqrt(y)), *(
        math.exp(-y + (j + 0.5) * log_y - math.lgamma(j + 1.5))
        for j in range(df // 2))]), 1.0)


def uniformity_test(
    config, positions: np.ndarray, directions: np.ndarray
) -> float:
    """Equilibrium p-value of walker samples of a model, such as its
    sample_walker_states draws at spacings wide enough (ten rounds per
    site, or ten crossing times) that the samples are nearly independent:
    one cell per site on the lattice, 8 equal arcs on the continuum."""
    if isinstance(config, DiscreteConfig):
        return chi_square_uniformity(positions, directions, config.n_sites,
                                     config.n_sites)
    return chi_square_uniformity(positions, directions, config.circumference, 8)
