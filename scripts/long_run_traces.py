#!/usr/bin/env python3
"""Regenerate the long-horizon running-speed traces.

Two independent lattice realizations (defaults: N=301 and N=3001, both
at flip probability 0.2) over 10^5 rounds, dumping running-average CSVs
that converge to the predicted limits.  Each run gets its own directory
with per-replica reports and trace files.

    python3 scripts/long_run_traces.py --out data/traces
"""
import argparse
import sys
from pathlib import Path

from ringrelay.cli import main as cli_main
from ringrelay.closed_form import speed_discrete


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=Path("traces"))
    ap.add_argument("--sizes", type=int, nargs="+", default=[301, 3001])
    ap.add_argument("--eps", type=float, default=0.2)
    ap.add_argument("--steps", type=int, default=10**5)
    ap.add_argument("--trace-every", type=int, default=100)
    ap.add_argument("--seed", type=int, default=20260815)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for n in args.sizes:
        run_dir = args.out / f"N{n}"
        code = cli_main([
            "simulate",
            "--set", "model=discrete",
            "--set", f"N={n}",
            "--set", f"epsilon={args.eps}",
            "--set", f"steps={args.steps}",
            "--set", f"trace_every={args.trace_every}",
            "--seed", str(args.seed),
            "--out", str(run_dir),
        ])
        if code != 0:
            return code
        print(f"N={n}: trace in {run_dir}/trace_000.csv, "
              f"limiting speed {speed_discrete(n, args.eps):.7f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
