"""Per-layer spans around ringrelay's public entry points, recorded from
the benchmark's side so that no code under src/ changes.

`Tracer.install()` wraps each function named in TRACED and rebinds every
ringrelay module attribute, or list item, that referred to the original:
cli and validation import simulate_discrete, simulate_continuous,
sample_walker_states, merge and chi_square_uniformity by name, and
validation.ALL_CHECKS lists the checks.  Each call records a span:
layer, name, start and end on the system-wide monotonic clock, the span
that was open when it began, and counts taken from its arguments and
result.

Pool workers are forked from the traced process, so they inherit the
wrappers and the stack of open spans.  A worker appends each span to a
spool file of its own as the span ends, because pool workers exit
without running atexit handlers; `take()` collects them.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path


def _walkers(args) -> str:
    return "pair" if args[0].n_walkers == 2 else "many"


def _discrete(args, result):
    return _walkers(args), {"rounds": args[1], "handoffs": result.jump_count}


def _continuous(args, result):
    return _walkers(args), {"sim_time": args[1], "handoffs": result.jump_count,
                            "cycles": result.n_cycles}


def _check(args, result):
    return result.name, {"passed": int(result.passed)}


def _named(name, **counts):
    """Fixed span name; each count is a function of the call's result."""
    return lambda args, result: (
        name, {k: f(result) for k, f in counts.items()}
    )


# module -> {function: (layer, describe(args, result) -> (span name, counts))}
TRACED = {
    "cli": {"main": ("cli", _named("main", nonzero_exits=lambda r: int(r != 0)))},
    "validation": {
        "run_all": ("validation", _named("run_all")),
        **{name: ("validation", _check)
           for name in ("check_exact_stationary", "check_crossing_prob",
                        "check_discrete_mc", "check_continuous_mc",
                        "check_regeneration", "check_excursions",
                        "check_generator", "check_direction", "check_scaling",
                        "check_uniformity", "check_initial_independence")},
    },
    "discrete": {"simulate_discrete": ("discrete", _discrete)},
    "continuous": {
        "simulate_continuous": ("continuous", _continuous),
        "sample_walker_states": ("continuous", _named("sampler")),
    },
    "exact": {
        "exact_metrics": ("exact", _named("metrics", residual=lambda r: r.residual)),
        "build_reduced_chain": (
            "exact", _named("chain", n_states=lambda r: r.n_states)
        ),
        "stationary": ("exact", _named("stationary")),
        "solve_trace_bvp": ("exact", _named("bvp")),
        "hitting_prob_oracle": ("exact", _named("oracle")),
        "bvp_residual": ("exact", _named("bvp_residual", residual=lambda r: r)),
    },
    "estimators": {
        "merge": ("estimators", _named("merge")),
        "speed_estimate": ("estimators", _named("batch_means")),
        "cost_estimate": ("estimators", _named("batch_means")),
        "direction_estimate": ("estimators", _named("batch_means")),
        "kac_check": ("estimators", _named("cycle_stats")),
        "excursion_classifier": ("estimators", _named("cycle_stats")),
        "uniformity_test": ("estimators", _named("uniformity")),
        "chi_square_uniformity": (
            "estimators", _named("uniformity", chi2_tests=lambda r: 1)
        ),
    },
    "closed_form": {
        name: ("closed_form", _named("formula"))
        for name in ("speed_discrete", "cost_discrete", "direction_prob_discrete",
                     "speed_continuous", "cost_continuous",
                     "direction_prob_continuous", "dimensionless",
                     "scaling_limit_error")
    },
}


class Tracer:
    def __init__(self, spool: Path):
        self.spool = spool
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self.stack: list[str] = []  # ids of the spans open in this process
        self.count = 0

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "ringrelay"
                                         or name.startswith("ringrelay."))]
        for module_name, functions in TRACED.items():
            module = sys.modules[f"ringrelay.{module_name}"]
            for func_name, (layer, describe) in functions.items():
                original = getattr(module, func_name)
                wrapped = self._wrap(layer, describe, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapped)
                        elif isinstance(value, list):  # validation.ALL_CHECKS
                            value[:] = [wrapped if v is original else v
                                        for v in value]

    def _wrap(self, layer, describe, func):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            self.count += 1
            span_id = f"{os.getpid()}:{self.count}"
            parent = self.stack[-1] if self.stack else None
            self.stack.append(span_id)
            start = time.monotonic()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.monotonic()
                self.stack.pop()
            name, counts = describe(args, result)
            self._record({"id": span_id, "parent": parent, "layer": layer,
                          "name": name, "start": start, "end": end,
                          "counts": counts})
            return result

        return traced

    def _record(self, span: dict) -> None:
        if os.getpid() == self.pid:
            self.spans.append(span)
            return
        with open(self.spool / f"spans-{os.getpid()}.jsonl", "a") as f:
            f.write(json.dumps(span) + "\n")

    def take(self) -> list[dict]:
        """Every span ended since the last call, workers' included."""
        spans, self.spans = self.spans, []
        for path in sorted(self.spool.glob("spans-*.jsonl")):
            spans += [json.loads(line) for line in path.read_text().splitlines()]
            path.unlink()
        return spans


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[dict]) -> None:
    """Set each span's `self`: its duration minus the part of it that its
    child spans cover.  Children in pool workers may overlap each other."""
    children: dict[str, list] = {}
    for span in spans:
        children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    for span in spans:
        span["self"] = (span["end"] - span["start"]) - _covered(
            children.get(span["id"], []), span["start"], span["end"]
        )
