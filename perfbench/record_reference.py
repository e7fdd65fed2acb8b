"""Record the reference outputs under reference/ from the checked-out code.

    PYTHONPATH=src python3 perfbench/record_reference.py [WORKLOAD ...]

Run from the checkout root, at the commit whose outputs later runs must
reproduce.  At the default seed, workloads.py compares every output with
these copies.
"""
from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

import ringrelay.cli as cli
import runner
import workloads


THREADS = 2


def record(name: str) -> None:
    target = workloads.REFERENCE_DIR / name
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        op_dir = Path(tmp) / "op"
        invocations = workloads.WORKLOADS[name](op_dir, 0, THREADS)
        op = runner.run_op(cli.main, invocations, op_dir)
        codes = [rec["code"] for rec in op["invocations"]]
        if any(codes):
            sys.exit(f"{name}: exit codes {codes}; nothing recorded")
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        for inv in invocations:
            if inv.out.is_dir():
                shutil.copytree(inv.out, target / inv.out.name)
            else:
                shutil.copy(inv.out, target / inv.out.name)
    print(f"recorded {name} in {target}")


if __name__ == "__main__":
    for workload in sys.argv[1:] or list(workloads.WORKLOADS):
        record(workload)
