#!/usr/bin/env python3
"""Measure how both engines scale with the number of walkers m.

Prints one CSV row per m, each time the best of REPEATS runs in this
process at seed SEED: lattice walker-rounds per second (N=101, flip
probability 0.1, --steps rounds) and continuum simulated time per
second (circumference 5m, v = r = 1, horizon --horizon).  Wall times depend on the machine;
compare rows only within one run of the script.

    python3 scripts/walker_scaling.py --walkers 3 5 10 20 50
"""
import argparse
import sys
import time

from ringrelay.continuous import simulate_continuous
from ringrelay.discrete import simulate_discrete
from ringrelay.errors import RelayError
from ringrelay.model import ContinuousConfig, DiscreteConfig, SeedSpec

HEADER = ["m", "lattice_s", "lattice_walker_rounds_per_s",
          "continuum_s", "continuum_time_per_s"]
REPEATS = 3
SEED = 7


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--walkers", type=int, nargs="+", default=[3, 5, 10, 20, 50])
    ap.add_argument("--steps", type=int, default=200_000, help="lattice rounds")
    ap.add_argument("--horizon", type=float, default=2e3, help="continuum time")
    return ap.parse_args(argv)


def best_of(run) -> float:
    """The shortest wall time of REPEATS calls of run()."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return min(times)


def main(argv=None) -> int:
    args = parse_args(argv)
    print(",".join(HEADER))
    seed = SeedSpec(SEED)
    for m in args.walkers:
        try:
            lattice = DiscreteConfig(101, 0.1, m)
            continuum = ContinuousConfig(5.0 * m, 1.0, 1.0, m)
            t_lat = best_of(lambda: simulate_discrete(lattice, args.steps, seed))
            t_con = best_of(lambda: simulate_continuous(continuum, args.horizon, seed))
        except RelayError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        print(f"{m},{t_lat:.4g},{m * args.steps / t_lat:.4g},"
              f"{t_con:.4g},{args.horizon / t_con:.4g}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
