"""Golden digests of lattice RunReports.

Each digest is a SHA-256 over every RunReport field (name, then dtype,
shape and bytes of an array, or the repr of anything else).  The engine
that held (rounds x walkers) position and direction arrays fixed these
values; they were digested from the last engine that also recorded
walker samples, run at each case's former sample spacing, over every
field but the two sample arrays.  The model name, once a field `kind`
ahead of the others, is hashed in its place from params["model"], so
the values outlive the field.  Likewise the four per-cycle arrays that
reports carried then are rebuilt from the contacts the run folds
(oracles.CycleCapture) and hashed where its cycles record now stands.
Any rewrite of the lattice engine must reproduce every one of them bit
for bit.  Run this file as a script to print the digests of the current
engine.
"""
import dataclasses
import hashlib

import numpy as np
import pytest

from oracles import CYCLE_ARRAYS, CycleCapture
from ringrelay import discrete, model
from ringrelay.model import DiscreteConfig, SeedSpec, State

# N, epsilon, m, steps, (master, replica), initial, trace_every;
# an explicit initial is (positions, directions, carrier)
CASES = [
    (3, 0.05, 2, 1, (0, 0), "uniform-random", None),
    (3, 0.9, 2, 2, (1, 0), "regeneration", 1),
    (5, 0.3, 2, 49, (2, 0), "uniform-random", None),
    (5, 0.3, 2, 5000, (3, 1), "regeneration", 13),
    (5, 0.3, 2, 200_000, (4, 0), "uniform-random", None),
    (7, 0.5, 2, 10_000, (5, 0), ([3, 3], [-1, 1], 0), 100),
    (11, 0.1, 2, 100_000, (6, 0), ([10, 0], [1, -1], 0), None),
    (101, 0.05, 2, 200_000, (7, 2), "uniform-random", 1000),
    (999, 0.1, 2, 200_000, (8, 0), "regeneration", None),
    (999, 0.9, 2, 10_000, (9, 0), "uniform-random", None),
    (21, 0.7, 2, 30_000, (10, 0), ([0, 10], [1, 1], 1), None),
    (3, 0.5, 2, 100_000, (11, 0), "uniform-random", 1),
    (9, 0.2, 2, 777, (12, 3), "regeneration", 1),
    (5, 0.3, 2, 12_345, (13, 0), ([0, 0], [1, -1], 0), None),
    (51, 0.25, 2, 65_537, (14, 0), "uniform-random", 8192),
    (3, 0.3, 3, 1, (20, 0), "uniform-random", None),
    (5, 0.3, 3, 5000, (21, 0), "uniform-random", 11),
    (7, 0.05, 3, 200_000, (22, 0), "uniform-random", None),
    (101, 0.5, 3, 50_000, (23, 0), ([0, 50, 100], [1, -1, 1], 2), 500),
    (3, 0.9, 3, 20_000, (24, 0), ([0, 0, 0], [1, -1, 1], 1), None),
    (999, 0.2, 3, 100_000, (25, 0), "uniform-random", None),
    (11, 0.6, 3, 333, (26, 1), ([4, 4, 9], [-1, 1, 1], 0), 1),
    (3, 0.3, 5, 20_000, (30, 0), "uniform-random", None),
    (5, 0.3, 5, 200_000, (31, 0), "uniform-random", 1000),
    (101, 0.1, 5, 50_000, (32, 0), "uniform-random", None),
    (7, 0.8, 5, 10, (33, 0), "uniform-random", 1),
    (13, 0.45, 5, 30_000, (34, 0), ([0, 0, 0, 6, 6], [1, -1, -1, 1, -1], 1), 1),
    (999, 0.05, 5, 200_000, (35, 0), "uniform-random", None),
    (3, 0.05, 5, 99, (36, 0), "uniform-random", None),
    (5, 0.5, 5, 100_000, (37, 0), ([0, 1, 2, 3, 4], [1, 1, 1, 1, 1], 0), None),
]

DIGESTS = [
    "92c65cc2852dbbcb9c949f0e27b434657fa50b793af7af0df9318f78a06dff16",
    "2e5390f8cde3a93bec9bc2ad32048ad59a213bea514d3fe06cf41e27cc65d5a0",
    "bf84ba8cd0313a3935e777f791bcbc5a88fe8be978b8281d9f4342b35d9fad54",
    "4cd822aaa0ffc95ff696c05473080dcb0ec4e2567caf1bf7cb70e089f348237e",
    "0780ebd4fe79e864579acee5e2e704b134fe8e7f5777ad4212c4ed377bb8d810",
    "54da82c3d5927645985f3d800a7fc682df858627584ebcd4088efd1cbd5916e4",
    "ca5292dcbaab49b341a7dce69281bffbb6f92c8fc8627198df6507bddfafb885",
    "dac9f7d6d206cd798a0034a0095a60582c79186827caa2029c461ddbe6d6fcef",
    "b3cb51a328e7a478435fde60925696552500bf1d3a75dd01796b0e55d7aaa7a3",
    "808c24afd2ef1bfff61a3bd6ebf677e5b0709cc3f62669c7aad38e278cfe870a",
    "dd204565c5b06e1c6b81db4d3dee767c21a90d3dd2499ce63b03bce6aaacc89a",
    "624c6cc2be8b79e0938820dabe0f7499d585833eb1180bf3221a0237726c18d8",
    "93bb160a10197a8e4e50a4e5655c40f813395c6064392fb05180c95ffd5ae1b7",
    "b67248c0305bc7cadf3d13957e56373363e21cf884ebcd32b06455e5c4c1d414",
    "208195d365f0e901cc4edcd3f19bacf457f16776c75fc17d16f7f9f49a4e55da",
    "e2d1a5aa85b1f3e231cf801179b4908badc4de5427edbae1636982300ec6ae6a",
    "ea71fed41942f9e25bc5e79bdc0fe656c06fe169cdf8c43d7f3c3bb88a290665",
    "cd8b4b9605ea3f87892ea018b973bf30f3c50d27823fe57b04c2ff4c3055bb13",
    "bca3ac473e1ed6255dbbd45402acbe3213b75587b49c887c79e7f3939c39fec9",
    "8bac90bb2dd28ddbe06d289104306efb94cf5361069d88f169e31d592bcb53f5",
    "4dc2278505e1be638c8fb55e14532c1853a07a8c866f117b243ae91b27d4d3d3",
    "27c062a5f2e9d0382d803540313a4f862849ab9a4945cc08c3d6d0c793244d18",
    "7c95a381a58faa9cfc4f5f197e7ba145f6d12e52d23b70edff4a2ae7ad88173f",
    "155d37af2d8064d4bd00f00319646b7cb2aace09b0119ab0be0bb4d6883a55e6",
    "f244e743734125c1e244a2e5c9e874e6a4fbcedb083c4303c3fef4f68baa6c17",
    "8948535fcba276fa24cf51c27739757e159f4d64e718fe57cb11a2457d742dab",
    "1daf1f2e4e42be1405edfbe1051e90a64fbcd72646eded5153d2640f7ad2a12b",
    "1e460554932383219684527a5a11e9d424a40a25a040cdcba371ae10b6e1dab4",
    "7dece3a20138029e384bf22e3e2a98b4341dbdfcb60a0d629711f37937bc8d30",
    "c7f322c1c36c9e923b6d94f7f7dc8c3467f06b304324ed9f38745db99da967e6",
]


def report_digest(report, arrays) -> str:
    """The digest of every field of report, the arrays of its cycles in
    place of the record."""
    names = [f.name for f in dataclasses.fields(report)]
    at = names.index("cycles")
    names[at:at + 1] = CYCLE_ARRAYS
    fields = {**vars(report), **vars(arrays)}
    h = hashlib.sha256()
    h.update(b"kind" + repr(report.params["model"]).encode())
    for name in names:
        value = fields[name]
        h.update(name.encode())
        if isinstance(value, np.ndarray):
            h.update(f"{value.dtype}{value.shape}".encode())
            h.update(np.ascontiguousarray(value).tobytes())
        else:
            h.update(repr(value).encode())
    return h.hexdigest()


def run_case(n, eps, m, steps, seed, initial, trace_every):
    if not isinstance(initial, str):
        positions, directions, carrier = initial
        initial = State(
            np.array(positions), np.array(directions), carrier
        )
    return discrete.simulate_discrete(
        DiscreteConfig(n, eps, m), steps, SeedSpec(*seed), initial,
        trace_every=trace_every,
    )


@pytest.mark.parametrize("case,digest", zip(CASES, DIGESTS), ids=range(len(CASES)))
def test_report_matches_golden_digest(cycle_arrays, case, digest):
    report = run_case(*case)
    assert report_digest(report, cycle_arrays(report)) == digest


def test_one_digest_per_case():
    assert len(DIGESTS) == len(CASES)


if __name__ == "__main__":
    capture = model.fold_cycles = CycleCapture(model.fold_cycles)
    for case in CASES:
        report = run_case(*case)
        print(f'    "{report_digest(report, capture.arrays(report))}",')
