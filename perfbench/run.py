"""ringrelay benchmark: one run of one workload, printed as one JSON line.

    python3 perfbench/run.py --workload {gate,lattice-exact,many-walkers} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a ringrelay checkout; README.md in this
directory describes the workloads and metrics.  The run

1. starts `runner.py` in a fresh interpreter, which runs the workload's
   CLI invocations until the time budget is spent (`wall_s`,
   `peak_rss_mib`); with --trace 1 a second, traced runner follows and
   gives the per-layer metrics;
2. in untraced runs, times fresh interpreters from launch until
   `ringrelay.cli` is imported (`setup_s`), PROBES before the runner and
   PROBES after it, so that one slow spell of the machine does not
   decide the median;
3. checks every invocation's output (see workloads.py) and prints the
   provenance line, then the result line.

Everything it writes goes under .bench_out/ in the checkout and is
removed at the end.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
PROBES = 3  # before the runner, and as many again after it
PROBE = "import time, ringrelay.cli; print(time.monotonic())"
DEADLINE_S = 160.0  # a run, set-up probes included, must end within 180 s
MAX_THREADS = 2
NOTE = ("Runs share the machine with other work: no CPU pinning, no cache "
        "dropping, BLAS threads left at their default.")


class RunFailed(Exception):
    pass


def probe_setup(env: dict, root: Path) -> float:
    """Seconds from launching an interpreter until ringrelay.cli is ready."""
    start = time.monotonic()
    done = subprocess.run([sys.executable, "-c", PROBE], env=env, cwd=root,
                          capture_output=True, text=True, timeout=60)
    if done.returncode != 0:
        raise RunFailed(f"import probe failed:\n{done.stderr}")
    return float(done.stdout.split()[-1]) - start


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill the runner and any pool workers it left, and wait for them."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    proc.wait()
    for _ in range(100):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_runner(args, threads: int, out: Path, trace: bool, env: dict,
               root: Path, deadline: float) -> dict:
    out.mkdir()
    cmd = [sys.executable, str(HERE / "runner.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--threads", str(threads), "--out", str(out)]
    if trace:
        cmd.append("--trace")
    log_path = out / "runner.log"
    with open(log_path, "w") as log:
        proc = subprocess.Popen(cmd, env=env, cwd=root, stdout=log,
                                stderr=subprocess.STDOUT, start_new_session=True)
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            _stop_group(proc)
    if code != 0 or not (out / "result.json").is_file():
        reason = "timed out" if code is None else f"exited {code}"
        raise RunFailed(f"runner {reason}:\n{log_path.read_text()[-4000:]}")
    return json.loads((out / "result.json").read_text())


def check_ops(result: dict, out: Path, args, threads: int) -> tuple[int, int]:
    """(attempted, failed) over every invocation the runner made."""
    build = workloads.WORKLOADS[args.workload]
    attempted = failed = 0
    for i, op in enumerate(result["ops"]):
        invocations = build(out / f"op{i}", args.seed, threads)
        for rec, inv in zip(op["invocations"], invocations):
            attempted += 1
            problems = [] if rec["code"] == 0 else [f"exit code {rec['code']}"]
            problems += workloads.check_output(inv)
            if problems:
                failed += 1
                print(f"op{i} {inv.label}: " + "; ".join(problems[:5]),
                      file=sys.stderr)
    return attempted, failed


def _throughput(result: dict, invocations, field: str) -> float:
    """Work of the m>=3 invocation over the median of its wall times."""
    for k, inv in enumerate(invocations):
        work = getattr(inv, field)
        if work:
            return work / statistics.median(
                op["invocations"][k]["wall"] for op in result["ops"])
    return 0.0


def provenance(args, root: Path, threads: int, result: dict) -> dict:
    argv = workloads.WORKLOADS[args.workload](root, args.seed, threads)[0].argv
    commit = None
    if (root / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "ringrelay").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), None)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "master_seed": int(argv[argv.index("--seed") + 1]),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": threads,
        "cpu_model": cpu,
        "python": result["python"],
        "numpy": result["numpy"],
        "scipy": result["scipy"],
        "blas_threads": result["blas_threads"],
        "ops": len(result["ops"]),
        "op_walls_s": [op["wall"] for op in result["ops"]],
        "note": NOTE,
    }


def measure(args, root: Path, run_dir: Path) -> tuple[dict, dict, int, int]:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    threads = min(MAX_THREADS, len(os.sched_getaffinity(0)))
    deadline = time.monotonic() + DEADLINE_S
    probes = 0 if args.trace else PROBES
    setup = [probe_setup(env, root) for _ in range(probes)]

    plain_dir = run_dir / "plain"
    plain = run_runner(args, threads, plain_dir, False, env, root, deadline)
    attempted, failed = check_ops(plain, plain_dir, args, threads)
    wall = statistics.median(op["wall"] for op in plain["ops"])
    setup += [probe_setup(env, root) for _ in range(probes)]

    if not args.trace:
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(setup),
            "peak_rss_mib": plain["peak_rss_mib"],
        }
        return metrics, provenance(args, root, threads, plain), attempted, failed

    traced_dir = run_dir / "traced"
    traced = run_runner(args, threads, traced_dir, True, env, root, deadline)
    more, more_failed = check_ops(traced, traced_dir, args, threads)
    attempted += more
    failed += more_failed
    metrics = {
        name: statistics.median(op["layers"][name] for op in traced["ops"])
        for name in traced["ops"][0]["layers"]
    }
    invocations = workloads.WORKLOADS[args.workload](plain_dir, args.seed, threads)
    metrics["trace.overhead_s"] = (
        statistics.median(op["wall"] for op in traced["ops"]) - wall)
    metrics["lattice_rounds_per_s"] = _throughput(plain, invocations, "rounds")
    metrics["continuum_time_per_s"] = _throughput(plain, invocations, "sim_time")
    metrics["fail_frac"] = failed / attempted
    return metrics, provenance(args, root, threads, traced), attempted, failed


def main() -> int:
    parser = argparse.ArgumentParser(description="ringrelay benchmark run")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd().resolve()
    if not (root / "src" / "ringrelay" / "cli.py").is_file():
        print(f"error: {root} is not a ringrelay checkout (no src/ringrelay/cli.py)",
              file=sys.stderr)
        return 2
    # BENCHMARK.json names the metrics of each mode and their units
    spec = json.loads((root / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if args.trace else "end_to_end"]
    (root / ".bench_out").mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=root / ".bench_out"))
    try:
        metrics, prov, attempted, failed = measure(args, root, run_dir)
    except RunFailed as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if {m["name"] for m in listed} != set(metrics):
        print("error: measured metrics differ from those BENCHMARK.json lists: "
              f"{sorted({m['name'] for m in listed} ^ set(metrics))}", file=sys.stderr)
        return 1
    print(json.dumps({"provenance": prov}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
