#!/usr/bin/env python3
"""Regenerate the speed/cost-versus-flip-probability curve data.

Writes one CSV with formula, exact-solve, and Monte Carlo columns per
(N, epsilon) grid point.  The closed-form columns are what the summary
plots actually show; the other columns are there to confirm them.

    python3 scripts/speed_cost_curves.py --out data/curves.csv
"""
import argparse
import json
import sys
from pathlib import Path

from ringrelay.cli import main as cli_main

DEFAULT_SIZES = [5, 11, 51]
DEFAULT_EPS = [round(0.05 * k, 2) for k in range(1, 20)]


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=Path("curves.csv"))
    ap.add_argument("--sizes", type=int, nargs="+", default=DEFAULT_SIZES)
    ap.add_argument("--eps", type=float, nargs="+", default=DEFAULT_EPS)
    ap.add_argument("--steps", type=int, default=200_000,
                    help="Monte Carlo length per grid point")
    ap.add_argument("--replicas", type=int, default=2)
    ap.add_argument("--seed", type=int, default=20260815)
    ap.add_argument("--threads", type=int, default=1)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    grid = json.dumps({"N": args.sizes, "epsilon": args.eps})
    code = cli_main([
        "sweep", "--set", "model=discrete", "--set", f"grid={grid}",
        "--set", f"steps={args.steps}", "--set", f"replicas={args.replicas}",
        "--seed", str(args.seed), "--threads", str(args.threads),
        "--out", str(args.out),
    ])
    if code == 0:
        rows = len(args.sizes) * len(args.eps)
        print(f"wrote {args.out} ({rows} grid points)")
    return code


if __name__ == "__main__":
    sys.exit(main())
