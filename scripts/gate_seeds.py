#!/usr/bin/env python3
"""Run the acceptance gate at a range of master seeds.

Prints one CSV row per seed: the seed, each check's pass flag (1 or 0)
in gate order, then the equilibrium-uniformity check's pass counts out
of 100 lattice and 100 continuum replicas.  Use it to see how often a
check fails across seeds, or that a change leaves the gate's verdicts
where they were.

    python3 scripts/gate_seeds.py --first 20260815 --count 30 --threads 2
"""
import argparse
import sys

from ringrelay import validation

COUNTS = ["discrete_passes", "continuous_passes"]


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--first", type=int, default=validation.DEFAULT_SEED,
                    help="first master seed")
    ap.add_argument("--count", type=int, default=30, help="number of seeds")
    ap.add_argument("--threads", type=int, default=2, help="gate worker processes")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.count < 1 or args.threads < 1:
        print("error: --count and --threads must be >= 1", file=sys.stderr)
        return 2
    for seed in range(args.first, args.first + args.count):
        results = validation.run_all(seed, args.threads)
        if seed == args.first:
            print(",".join(["seed", *(r.name for r in results), *COUNTS]))
        uniformity = next(r for r in results if r.name == "equilibrium-uniformity")
        print(",".join(map(str, [seed, *(int(r.passed) for r in results),
                                 *(uniformity.measured[c] for c in COUNTS)])),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
