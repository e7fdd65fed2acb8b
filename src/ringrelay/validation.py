"""Acceptance checklist: every advertised number, verified three ways.

Each check pits at least two independent routes against each other:
Monte Carlo against closed forms, linear-algebra solves against both,
and internal identities (cycle sums, excursion laws, generator drifts)
against all of them.  The command line `validate` subcommand and the
acceptance test suite both run exactly these functions, so a pass here
is a pass there.

Every Monte Carlo comparison follows one rule: _sigmas gives its z-value
|estimate - target| / stderr, the check records it as a `*_sigmas`
entry, and the check passes only if each recorded z-value is at most
SIGMA_BOUND (a NaN is not).  The exact routes agree to GRID_BOUND.  The
tolerance strings are formatted from these two constants.

RunQueue is the one way jobs reach worker processes: `simulate` and
`sweep` queue their replicas on it, and the gate its run table, on one
pool before the first check.  exact_comparison, which `ringrelay exact`
prints, holds the three routes at one lattice point; the two exact
checks take its maxima over their grid.
"""
from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations

import numpy as np

from . import closed_form, discrete, estimators, exact
from .continuous import sample_walker_states, simulate_continuous
from .discrete import simulate_discrete
from .estimators import merge, uniformity_test
from .model import ContinuousConfig, DiscreteConfig, SeedSpec, State

DEFAULT_SEED = 20260815

GRID_N = (3, 5, 7, 11, 25, 101)
GRID_EPS = (0.05, 0.1, 0.3, 0.5, 0.7, 0.9)


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: dict
    tolerance: str
    reference: str
    seconds: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        shown = ", ".join(
            f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
            for k, v in self.measured.items()
        )
        return f"{status} {self.name} [{self.seconds:.1f}s] {shown}"

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "measured": self.measured,
            "tolerance": self.tolerance,
            "reference": self.reference,
            "seconds": round(self.seconds, 3),
        }


def open_pool(threads: int, n_jobs: int) -> ProcessPoolExecutor | None:
    """Workers for n_jobs jobs, no more than threads, jobs or usable CPUs
    (a forked pool starts them all at once), or None if one serves."""
    usable = getattr(os, "sched_getaffinity", lambda pid: range(os.cpu_count() or 1))
    workers = min(threads, n_jobs, len(usable(0)))
    return ProcessPoolExecutor(max_workers=workers) if workers > 1 else None


def _uniformity_passes(sample, config, times, seed: SeedSpec) -> bool:
    """Whether one replica's walker samples pass the chi-square test."""
    return uniformity_test(config, *sample(config, times, seed)) > 0.01


INDEPENDENCE_STATES = [
    State(np.array([0, 0]), np.array([1, 1]), 0),
    State(np.array([0, 2]), np.array([1, -1]), 0),
    State(np.array([1, 4]), np.array([-1, -1]), 1),
    State(np.array([2, 2]), np.array([-1, 1]), 0),
    State(np.array([3, 1]), np.array([-1, 1]), 1),
]


def run_table(seed: int) -> dict:
    """The simulations the checks read at master seed `seed`, in queue
    order: run name -> (function, jobs), the longest job, the continuum
    reference, first."""
    small = DiscreteConfig(5, 0.3)
    return {
        "continuous_reference": (simulate_continuous, [
            (ContinuousConfig(2.0), 1e6, SeedSpec(seed, 30))]),
        "discrete_reference": (simulate_discrete, [
            (DiscreteConfig(11, 0.1), 10**6, SeedSpec(seed, k)) for k in range(8)]),
        "discrete_regen": (simulate_discrete, [
            (small, 3 * 10**5, SeedSpec(seed, 10 + k), "regeneration")
            for k in range(2)]),
        "continuous_regen": (simulate_continuous, [
            (ContinuousConfig(1.0), 2e4, SeedSpec(seed, 20 + k), "regeneration")
            for k in range(2)]),
        "independence": (simulate_discrete, [
            (small, 10**6, SeedSpec(seed, 3000 + k), state)
            for k, state in enumerate(INDEPENDENCE_STATES)]),
        # about 4000 lattice rows 10N = 50 rounds apart over 100 cells, and
        # 6000 continuum samples 10 crossing times N / v apart over 256 cells
        "uniformity": (_uniformity_passes, [
            (sample, config, times, SeedSpec(seed, first + k))
            for sample, config, times, first in (
                (discrete.sample_walker_states, small, np.arange(2100, 205_001, 50),
                 1000),
                (sample_walker_states, ContinuousConfig(1.0), np.arange(20, 60_011, 10),
                 2000))
            for k in range(100)]),
    }


class RunQueue:
    """Named job lists, name -> (function, jobs of argument tuples), each
    run once.  Entered, it queues every job on one pool that open_pool
    sizes; a run not queued is computed here, in job order, when first
    read.  Every job carries its own SeedSpec, so where it runs never
    changes a result.  On exit, also by a job that raises, it shuts the
    pool, cancelling the jobs no worker has taken yet."""

    def __init__(self, table: dict, threads: int = 1):
        self.table = table
        self.threads = threads
        self._results: dict = {}
        self._queued: dict = {}
        self._pool = None

    def __enter__(self) -> RunQueue:
        n_jobs = sum(len(jobs) for _, jobs in self.table.values())
        self._pool = open_pool(self.threads, n_jobs)
        if self._pool is not None:
            self._queued = {
                name: [self._pool.submit(func, *job) for job in jobs]
                for name, (func, jobs) in self.table.items()
            }
        return self

    def __exit__(self, *exc) -> None:
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)

    def run(self, name: str) -> list:
        """The named run's results, in job order."""
        if name not in self._results:
            func, jobs = self.table[name]
            queued = self._queued.pop(name, None)
            self._results[name] = (
                [future.result() for future in queued] if queued is not None
                else [func(*job) for job in jobs]
            )
        return self._results[name]


def exact_comparison(n: int, eps: float) -> dict:
    """The three routes at the lattice point (N, eps): the exact stationary
    speed and cost, the wrap probability A by the recursion (BVP) and by
    the absorbing chain (oracle), the closed forms, both solves'
    residuals and the deviations between the routes."""
    metrics = exact.exact_metrics(n, eps)
    sol = exact.solve_trace_bvp(n, eps)
    oracle = exact.hitting_prob_oracle(n, eps)
    s_closed = closed_form.speed_discrete(n, eps)
    c_closed = closed_form.cost_discrete(n, eps)
    a_closed = 2.0 * s_closed
    return {
        "N": n,
        "epsilon": eps,
        "exact_speed": metrics.speed,
        "exact_cost": metrics.cost,
        "bvp_A": sol.crossing_prob,
        "oracle_A": oracle,
        "closed_speed": s_closed,
        "closed_cost": c_closed,
        "closed_A": a_closed,
        "n_states": metrics.n_states,
        "stationary_residual": metrics.residual,
        "bvp_residual": exact.bvp_residual(sol),
        "deviations": {
            "speed_exact_vs_formula": abs(metrics.speed - s_closed),
            "cost_exact_vs_formula": abs(metrics.cost - c_closed),
            "A_bvp_vs_oracle": abs(sol.crossing_prob - oracle),
            "A_bvp_vs_formula": abs(sol.crossing_prob - a_closed),
            "speed_exact_vs_half_A": abs(metrics.speed - sol.crossing_prob / 2),
        },
    }


class AcceptanceContext(RunQueue):
    """The run table of one master seed and the exact grid, each made once."""

    def __init__(self, master_seed: int = DEFAULT_SEED, threads: int = 1):
        super().__init__(run_table(master_seed), threads)
        self.master_seed = master_seed

    @cached_property
    def exact_grid(self) -> dict:
        return {(n, eps): exact_comparison(n, eps)
                for n in GRID_N for eps in GRID_EPS}


# ----------------------------------------------------------------------
# the checks

# Every Monte Carlo comparison allows SIGMA_BOUND standard errors (batch
# means, or independent cycles; Asmussen & Glynn, Stochastic Simulation,
# 2007, ch. IV); the exact routes may differ by GRID_BOUND on the grid.
SIGMA_BOUND = 3
GRID_BOUND = 1e-10
WITHIN_SE = f"within {SIGMA_BOUND} batch-means standard errors"


def _sigmas(estimate, target, stderr) -> float:
    """|estimate - target| in standard errors: the z-value a Monte Carlo
    comparison records and its verdict tests.  A zero stderr gives inf,
    or NaN if the two agree, and neither passes."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.abs(estimate - target) / np.float64(stderr))


def _within(measured: dict, bound: float = SIGMA_BOUND, keys=None) -> bool:
    """Whether each recorded measured[key] is at most bound (a NaN is
    not); keys defaults to the z-values, the `*_sigmas` entries."""
    if keys is None:
        keys = [key for key in measured if key.endswith("_sigmas")]
    return all(measured[key] <= bound for key in keys)


def _vs_target(name: str, est: estimators.Estimate, target: float) -> dict:
    """The record of an estimate against its target: point, target and
    z-value."""
    return {name: est.point, f"{name}_target": target,
            f"{name}_sigmas": _sigmas(est.point, target, est.stderr)}


def _grid_max(ctx: AcceptanceContext, **keys: str) -> dict:
    """name -> the largest of the exact_comparison entry keys[name] over
    the exact grid, NaN if any is; an entry is a deviation or a residual."""
    rows = [{**c, **c["deviations"]} for c in ctx.exact_grid.values()]
    return {name: float(np.max([row[key] for row in rows]))
            for name, key in keys.items()}


def check_exact_stationary(ctx: AcceptanceContext) -> CheckResult:
    measured = {
        "grid_points": len(ctx.exact_grid),
        **_grid_max(ctx, max_speed_dev="speed_exact_vs_formula",
                    max_cost_dev="cost_exact_vs_formula",
                    max_residual="stationary_residual"),
    }
    return CheckResult(
        "exact-stationary-matches-formulas",
        _within(measured, GRID_BOUND, ["max_speed_dev", "max_cost_dev"]),
        measured,
        f"abs deviation <= {GRID_BOUND:g} on the full grid",
        "stationary law of the (gap, directions, carrier) chain vs "
        "s=(1-eps)/(2(1+eps(N-2))) and c=eps*s",
    )


def check_crossing_prob(ctx: AcceptanceContext) -> CheckResult:
    routes = {"max_vs_oracle": "A_bvp_vs_oracle", "max_vs_closed": "A_bvp_vs_formula",
              "max_speed_vs_half_A": "speed_exact_vs_half_A"}
    measured = _grid_max(ctx, **routes, max_bvp_residual="bvp_residual")
    return CheckResult(
        "crossing-prob-three-routes",
        _within(measured, GRID_BOUND, routes),
        measured,
        f"abs deviation <= {GRID_BOUND:g} across routes; recursion residual reported",
        "wrap probability by recursion solve, absorbing-chain solve, and "
        "(1-eps)/(1+eps(N-2)); speed equals half of it",
    )


def check_discrete_mc(ctx: AcceptanceContext) -> CheckResult:
    report = merge(ctx.run("discrete_reference"))
    s_target = closed_form.speed_discrete(11, 0.1)
    c_target = closed_form.cost_discrete(11, 0.1)
    s = estimators.speed_estimate(report)
    c = estimators.cost_estimate(report)
    measured = {
        **_vs_target("speed", s, s_target),
        **_vs_target("cost", c, c_target),
        "speed_rel_err": abs(s.point - s_target) / s_target,
        "cost_rel_err": abs(c.point - c_target) / c_target,
    }
    return CheckResult(
        "discrete-monte-carlo",
        _within(measured),
        measured,
        f"{WITHIN_SE} (8 x 1e6 rounds)",
        "lattice Monte Carlo vs closed forms at N=11, eps=0.1",
    )


def check_continuous_mc(ctx: AcceptanceContext) -> CheckResult:
    report, = ctx.run("continuous_reference")
    s_target = closed_form.speed_continuous(2.0, 1.0, 1.0)
    c_target = closed_form.cost_continuous(2.0, 1.0, 1.0)
    s = estimators.speed_estimate(report)
    c = estimators.cost_estimate(report)
    measured = {
        "speed": s.point,
        "speed_sigmas": _sigmas(s.point, s_target, s.stderr),
        "cost": c.point,
        "cost_sigmas": _sigmas(c.point, c_target, c.stderr),
        "target": s_target,
    }
    return CheckResult(
        "continuous-monte-carlo",
        _within(measured),
        measured,
        f"{WITHIN_SE} (horizon 1e6)",
        "continuum Monte Carlo vs v^2/(2v+rN) and rv/(2v+rN) at N=2, v=r=1",
    )


def check_regeneration(ctx: AcceptanceContext) -> CheckResult:
    d_run, d_indep = ctx.run("discrete_regen")
    c_run, c_indep = ctx.run("continuous_regen")
    dl, cl = d_run.cycles.lengths, c_run.cycles.lengths
    d_avg = estimators.speed_estimate(d_indep)
    kd = estimators.kac_check(d_run, d_avg.point, d_avg.stderr)
    c_avg = estimators.speed_estimate(c_indep)
    kc = estimators.kac_check(c_run, c_avg.point, c_avg.stderr)
    measured = {
        "d_cycles": dl.count,
        "d_mean_len": dl.mean(),
        "d_len_sigmas": _sigmas(dl.mean(), 10.0, dl.stderr()),
        "c_cycles": cl.count,
        "c_mean_len": cl.mean(),
        "c_len_sigmas": _sigmas(cl.mean(), 1.0, cl.stderr()),
        "d_kac_sigmas": _sigmas(kd.gap, 0.0, kd.stderr),
        "c_kac_sigmas": _sigmas(kc.gap, 0.0, kc.stderr),
    }
    return CheckResult(
        "regeneration-cycles",
        dl.count >= 10**4 and _within(measured),
        measured,
        f"mean length within {SIGMA_BOUND} SE of 2N rounds / N/v time over "
        f">= 1e4 cycles; cycle-sum identity within {SIGMA_BOUND} combined SE",
        "mean regeneration cycle 2N (lattice) and N/v (continuum); "
        "per-cycle sums vs mean length times long-run average",
    )


def check_excursions(ctx: AcceptanceContext) -> CheckResult:
    report = ctx.run("continuous_regen")[0]
    cycles = estimators.excursion_classifier(report)
    n = report.n_cycles
    wrap, jumps = cycles.wraps / n, cycles.handoffs / n
    se_wrap, se_jump = (np.sqrt(max(p * (1 - p), 1e-12) / n) for p in (wrap, jumps))
    measured = {
        "cycles": n,
        "wrap_fraction": wrap,
        "wrap_sigmas": _sigmas(wrap, 2 / 3, se_wrap),
        "jump_fraction": jumps,
        "jump_sigmas": _sigmas(jumps, 1 / 3, se_jump),
        "max_displacement_dev": cycles.max_deviation,
    }
    return CheckResult(
        "excursion-law",
        _within(measured) and cycles.max_deviation <= 1e-9 * report.lap_length,
        measured,
        f"fractions within {SIGMA_BOUND} SE of 2/3 and 1/3; "
        "displacements within 1e-9 of {0, N}",
        "wrap fraction 2v/(2v+rN); handoffs per cycle rN/(2v+rN); "
        "relative displacement in {0, N}",
    )


def check_generator(ctx: AcceptanceContext) -> CheckResult:
    rng = np.random.default_rng(
        np.random.SeedSequence(ctx.master_seed, spawn_key=(7000,))
    )
    worst_h = worst_v = 0.0
    n_states = 0
    for _ in range(20):
        config = ContinuousConfig(
            circumference=float(rng.uniform(0.5, 5.0)),
            speed=float(rng.uniform(0.5, 3.0)),
            switch_rate=float(rng.uniform(0.2, 3.0)),
        )
        h, v = exact.h_field(config), exact.v_field(config)
        for _ in range(50):
            gap = rng.uniform(1e-6, 1 - 1e-6) * config.circumference
            d = 1 - 2 * rng.integers(0, 2, size=2)
            carrier = int(rng.integers(2))
            lh = exact.apply_generator(h, gap, d, carrier, config)
            lv = exact.apply_generator(v, gap, d, carrier, config)
            worst_h = max(worst_h, abs(lh + 1.0))
            worst_v = max(worst_v, abs(lv))
            n_states += 1
    ok = worst_h <= 1e-9 and worst_v <= 1e-9
    return CheckResult(
        "generator-identities",
        bool(ok),
        {"states": n_states, "max_LH_dev": worst_h, "max_LV_dev": worst_v},
        "|LH+1| and |LV| <= 1e-9 at 1000 off-contact states, 20 parameter triples",
        "generator drift of the contact-time potential is -1; "
        "of the wrap probability is 0",
    )


def check_direction(ctx: AcceptanceContext) -> CheckResult:
    d_report = merge(ctx.run("discrete_regen"))
    d_target = closed_form.direction_prob_discrete(5, 0.3)
    d = estimators.direction_estimate(d_report)
    c_report, = ctx.run("continuous_reference")
    c_target = closed_form.direction_prob_continuous(2.0, 1.0, 1.0)
    c = estimators.direction_estimate(c_report)
    measured = {**_vs_target("discrete", d, d_target),
                **_vs_target("continuous", c, c_target)}
    return CheckResult(
        "direction-occupation",
        _within(measured),
        measured,
        WITHIN_SE,
        "clockwise occupation (3+eps(2N-5))/(4(1+eps(N-2))) and "
        "(3v+rN)/(2(2v+rN))",
    )


def check_scaling(ctx: AcceptanceContext) -> CheckResult:
    sizes = (5, 21, 101, 1001)
    speed_errors = [closed_form.scaling_limit_error(n, 1.0, 1.0) for n in sizes]
    decreasing = all(a > b for a, b in zip(speed_errors, speed_errors[1:]))
    # independent rational oracle: the gap works out to 1/(6N-4) exactly
    oracle = {n: Fraction(1, 6 * n - 4) for n in sizes}
    dev5 = abs(speed_errors[0] - float(oracle[5]))
    dev101 = abs(speed_errors[2] - float(oracle[101]))
    ok = (
        decreasing
        and speed_errors[3] < 0.002
        and dev5 <= 1e-6
        and dev101 <= 1e-6
        and round(speed_errors[0], 4) == 0.0385
        and round(speed_errors[2], 5) == 0.00166
    )
    return CheckResult(
        "continuum-limit",
        bool(ok),
        {
            "err_N5": speed_errors[0],
            "err_N21": speed_errors[1],
            "err_N101": speed_errors[2],
            "err_N1001": speed_errors[3],
            "decreasing": decreasing,
            "dev_vs_rational_N5": dev5,
            "dev_vs_rational_N101": dev101,
        },
        "errors decrease in N, < 0.002 at N=1001, match 1/(6N-4) to 1e-6 "
        "(0.0385 at N=5, 0.00166 at N=101 after rounding)",
        "lattice-to-continuum relative speed error 1/(6N-4) at matched "
        "parameters (eps = 1/(2N), v=r=N_c=1)",
    )


def check_uniformity(ctx: AcceptanceContext) -> CheckResult:
    passes = ctx.run("uniformity")
    d_passes, c_passes = sum(passes[:100]), sum(passes[100:])
    ok = d_passes >= 95 and c_passes >= 95
    return CheckResult(
        "equilibrium-uniformity",
        bool(ok),
        {"discrete_passes": d_passes, "continuous_passes": c_passes},
        "chi-square at significance 0.01 passes in >= 95 of 100 replications",
        "joint law of positions and directions is uniform in equilibrium",
    )


def check_initial_independence(ctx: AcceptanceContext) -> CheckResult:
    ests = [estimators.speed_estimate(r) for r in ctx.run("independence")]
    pairs = [_sigmas(a.point, b.point, np.hypot(a.stderr, b.stderr))
             for a, b in combinations(ests, 2)]
    measured = {
        "runs": len(ests),
        "speeds": [round(e.point, 6) for e in ests],
        "max_pairwise_sigmas": float(np.max(pairs)),
    }
    return CheckResult(
        "initial-state-independence",
        _within(measured),
        measured,
        f"pairwise within {SIGMA_BOUND} combined standard errors "
        "(5 starts, 1e6 rounds each)",
        "time averages do not depend on the initial state",
    )


ALL_CHECKS = [
    check_exact_stationary,
    check_crossing_prob,
    check_discrete_mc,
    check_continuous_mc,
    check_regeneration,
    check_excursions,
    check_generator,
    check_direction,
    check_scaling,
    check_uniformity,
    check_initial_independence,
]


def run_all(
    master_seed: int = DEFAULT_SEED, threads: int = 1, emit=None
) -> list[CheckResult]:
    results = []
    with AcceptanceContext(master_seed, threads) as ctx:
        for check in ALL_CHECKS:
            start = time.perf_counter()
            result = check(ctx)
            result.seconds = time.perf_counter() - start
            results.append(result)
            if emit is not None:
                emit(result.line())
    return results
