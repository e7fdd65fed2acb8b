"""One workload run in a fresh interpreter.

Imports ringrelay.cli from the checkout's src/, then runs the workload's
CLI invocations through `cli.main`, again and again with the same seed,
until the time budget is spent, and writes what it measured to
OUT/result.json.  `run.py` starts it; by hand, from the checkout root:

    PYTHONPATH=src python3 perfbench/runner.py --workload gate --seed 0 \\
        --seconds 20 --threads 2 --out .bench_out/manual [--trace]
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import workloads
from tracing import Tracer, self_times


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _size(path: Path) -> int:
    if path.is_dir():
        return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())
    return path.stat().st_size if path.exists() else 0


def _call(main, argv) -> int:
    try:
        return main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a traceback is a failed operation, not a crash here
        traceback.print_exc()
        return 1


def run_op(main, invocations, op_dir: Path) -> dict:
    """Run one operation per invocation; wall covers the first cli.main
    call to the return of the last, by which its output is written."""
    op_dir.mkdir(parents=True)
    records = []
    with open(op_dir / "cli.log", "w") as log, \
            contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        cpu0 = _cpu_s()
        start = time.monotonic()
        for inv in invocations:
            t0 = time.monotonic()
            code = _call(main, inv.argv)
            records.append({"label": inv.label, "code": code,
                             "wall": time.monotonic() - t0})
        wall = time.monotonic() - start
        cpu = _cpu_s() - cpu0
    for rec, inv in zip(records, invocations):
        rec["out_bytes"] = _size(inv.out)
    return {"wall": wall, "cpu_s": cpu, "invocations": records}


def layer_metrics(spans: list[dict], op: dict) -> dict:
    """Per-layer metrics of one traced operation."""
    self_times(spans)
    busy = defaultdict(float)  # self time by layer, and by (layer, span name)
    elapsed = defaultdict(float)  # duration by (layer, span name)
    calls = defaultdict(int)
    counts = defaultdict(float)
    residual = 0.0
    for span in spans:
        layer, name = span["layer"], span["name"]
        busy[layer] += span["self"]
        busy[layer, name] += span["self"]
        elapsed[layer, name] += span["end"] - span["start"]
        calls[layer, name] += 1
        for key, value in span["counts"].items():
            if key == "residual":
                residual = max(residual, value)
            else:
                counts[layer, key] += value
                counts[layer, name, key] += value

    def rate(layer, name, work):
        seconds = busy[layer, name]
        return counts[layer, name, work] / seconds if seconds > 0 else 0.0

    wall = op["wall"]
    m = {
        "trace.wall_s": wall,
        "process.cpu_s": op["cpu_s"],
        "cli.self_s": busy["cli"],
        "cli.calls": calls["cli", "main"],
        "cli.nonzero_exits": counts["cli", "nonzero_exits"],
        "cli.out_bytes": sum(r["out_bytes"] for r in op["invocations"]),
        "validation.self_s": busy["validation"],
        "discrete.busy_s": busy["discrete"],
        "discrete.calls": calls["discrete", "pair"] + calls["discrete", "many"],
        "discrete.rounds": counts["discrete", "rounds"],
        "discrete.handoffs": counts["discrete", "handoffs"],
        "discrete.pair_rounds_per_s": rate("discrete", "pair", "rounds"),
        "discrete.many_rounds_per_s": rate("discrete", "many", "rounds"),
        "continuous.busy_s": busy["continuous"],
        "continuous.calls": calls["continuous", "pair"] + calls["continuous", "many"],
        "continuous.sim_time": counts["continuous", "sim_time"],
        "continuous.handoffs": counts["continuous", "handoffs"],
        "continuous.cycles": counts["continuous", "cycles"],
        "continuous.pair_time_per_s": rate("continuous", "pair", "sim_time"),
        "continuous.many_time_per_s": rate("continuous", "many", "sim_time"),
        "continuous.sampler_s": busy["continuous", "sampler"],
        "exact.self_s": busy["exact"],
        "exact.chain_s": busy["exact", "chain"],
        "exact.stationary_s": busy["exact", "stationary"],
        "exact.bvp_s": busy["exact", "bvp"],
        "exact.oracle_s": busy["exact", "oracle"],
        "exact.bvp_residual_s": busy["exact", "bvp_residual"],
        "exact.n_states": counts["exact", "n_states"],
        "exact.max_residual": residual,
        "estimators.self_s": busy["estimators"],
        "estimators.merge_s": busy["estimators", "merge"],
        "estimators.batch_means_s": busy["estimators", "batch_means"],
        "estimators.cycle_stats_s": busy["estimators", "cycle_stats"],
        "estimators.uniformity_s": busy["estimators", "uniformity"],
        "estimators.chi2_tests": counts["estimators", "chi2_tests"],
        "closed_form.self_s": busy["closed_form"],
        "closed_form.calls": calls["closed_form", "formula"],
        "mix.continuous_share": busy["continuous"] / wall,
        "mix.exact_share": busy["exact"] / wall,
        "mix.many_walker_share": (busy["discrete", "many"]
                                  + busy["continuous", "many"]) / wall,
    }
    for check in workloads.GATE_CHECKS:
        m[f"validation.{check}_s"] = elapsed["validation", check]
    m["validation.checks_passed"] = counts["validation", "passed"]
    return m


def blas_threads() -> dict:
    """Thread count of each OpenBLAS the process has loaded."""
    found = {}
    maps = Path("/proc/self/maps")
    paths = {line.split()[-1] for line in maps.read_text().splitlines()
             if "openblas" in line} if maps.exists() else set()
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                found[Path(path).name] = func()
                break
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--threads", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    out = args.out.resolve()

    import numpy
    import scipy
    import ringrelay.cli as cli

    src = Path.cwd().resolve() / "src"
    if Path(cli.__file__).resolve().parents[1] != src:
        print(f"ringrelay imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        tracer = Tracer(out)
        tracer.install()

    build = workloads.WORKLOADS[args.workload]
    ops = []
    begin = time.monotonic()
    while True:
        op_dir = out / f"op{len(ops)}"
        invocations = build(op_dir, args.seed, args.threads)
        op = run_op(cli.main, invocations, op_dir)
        if tracer is not None:
            op["layers"] = layer_metrics(tracer.take(), op)
        ops.append(op)
        typical = statistics.median(o["wall"] for o in ops)
        if time.monotonic() - begin + typical > args.seconds:
            break

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "ops": ops,
        "peak_rss_mib": (own + kids) / 1024.0,  # ru_maxrss is in KiB
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
    }
    (out / "result.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
