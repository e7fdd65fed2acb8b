"""Tiny-size self-test of the benchmark's runner, tracer and checks.

    PYTHONPATH=src python3 perfbench/selftest.py

Run from the checkout root; takes a few seconds and prints one line per
test.  It runs shrunken versions of the lattice-exact and many-walkers
invocations under the tracer, checks that the output checks pass on good
output and fail on corrupted output, and that run.py refuses to run
where there is no ringrelay source.
"""
from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import ringrelay.cli as cli
import runner
import workloads
from tracing import Tracer

HERE = Path(__file__).resolve().parent


def _tiny_ops(tmp: Path, tracer: Tracer) -> dict:
    ops = {}
    for name, build in (
        ("lattice-exact", lambda d: workloads.lattice_exact(
            d, 1, 2, sizes=(5, 11), epsilons=(0.3,), steps=20_000,
            exact_n=11, exact_eps=0.3)),
        ("many-walkers", lambda d: workloads.many_walkers(
            d, 1, 1, steps=2_000, horizon=200.0)),
    ):
        op_dir = tmp / name
        invocations = build(op_dir)
        op = runner.run_op(cli.main, invocations, op_dir)
        op["layers"] = runner.layer_metrics(tracer.take(), op)
        ops[name] = (invocations, op)
    return ops


def test_tiny_workloads(ops: dict) -> None:
    for name, (invocations, op) in ops.items():
        assert [r["code"] for r in op["invocations"]] == [0, 0], name
        for inv in invocations:
            assert workloads.check_output(inv) == [], (name, inv.label)
    le = ops["lattice-exact"][1]["layers"]
    assert le["cli.calls"] == 2 and le["cli.nonzero_exits"] == 0
    assert le["discrete.calls"] == 2 and le["discrete.rounds"] == 40_000
    assert le["exact.n_states"] > 0 and le["exact.stationary_s"] > 0
    assert 0 < le["mix.exact_share"] < 1
    mw = ops["many-walkers"][1]["layers"]
    assert mw["discrete.rounds"] == 2_000 and mw["continuous.sim_time"] == 200
    assert mw["discrete.many_rounds_per_s"] > 0 and mw["continuous.many_time_per_s"] > 0
    assert mw["discrete.pair_rounds_per_s"] == 0 and mw["exact.self_s"] == 0


def test_worker_spans(tmp: Path, tracer: Tracer) -> None:
    out = tmp / "replicas"
    code = cli.main(["simulate", "--threads", "2", "--seed", "3",
                     "--set", "model=discrete", "--set", "N=5",
                     "--set", "epsilon=0.3", "--set", "steps=5000",
                     "--set", "replicas=2", "--out", str(out)])
    spans = tracer.take()
    sims = [s for s in spans if s["layer"] == "discrete"]
    main = [s for s in spans if s["layer"] == "cli"]
    assert code == 0 and len(sims) == 2 and len(main) == 1
    assert all(s["id"].split(":")[0] != str(os.getpid()) for s in sims)
    assert all(s["parent"] == main[0]["id"] for s in sims)
    assert any(s["layer"] == "estimators" and s["name"] == "merge" for s in spans)


def test_checks_catch_bad_output(ops: dict, tmp: Path) -> None:
    sweep = ops["lattice-exact"][0][0]
    rows = list(csv.reader(sweep.out.open()))
    col = rows[0].index("s_exact")
    rows[1][col] = repr(float(rows[1][col]) + 1e-6)
    with sweep.out.open("w", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(rows)
    assert any("s_exact" in p for p in workloads.check_output(sweep))

    continuum = ops["many-walkers"][0][1]
    trace = continuum.out / "trace_000.csv"
    trace.write_text("\n".join(trace.read_text().splitlines()[:-1]) + "\n")
    assert any("trace has" in p for p in workloads.check_output(continuum))

    reference = workloads.REFERENCE_DIR / "gate" / "validate.json"
    got = tmp / "validate.json"
    shutil.copy(reference, got)
    assert workloads._check_validate(got) == []
    data = json.loads(reference.read_text())
    data["checks"][0]["seconds"] += 1.0
    assert workloads.compare_json(json.loads(reference.read_text()), data) == []
    data["checks"][4]["measured"]["d_cycles"] += 1
    data["checks"][4]["passed"] = False
    got.write_text(json.dumps(data))
    assert workloads._check_validate(got) != []
    assert any("d_cycles" in p for p in workloads._ref_json(reference, got))


def test_refuses_without_source(tmp: Path) -> None:
    bare = tmp / "bare"
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "gate",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == "", done.stdout


def main() -> int:
    root = Path.cwd()
    (root / ".bench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="selftest-", dir=root / ".bench_out") as d:
        tmp = Path(d)
        tracer = Tracer(tmp)
        tracer.install()
        ops = _tiny_ops(tmp, tracer)
        tests = [
            ("tiny workloads pass their checks", lambda: test_tiny_workloads(ops)),
            ("worker spans reach the tracer", lambda: test_worker_spans(tmp, tracer)),
            ("checks catch bad output", lambda: test_checks_catch_bad_output(ops, tmp)),
            ("run.py refuses without source", lambda: test_refuses_without_source(tmp)),
        ]
        for label, test in tests:
            test()
            print(f"ok  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
