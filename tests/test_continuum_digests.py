"""Golden digests of the counts in continuum RunReports.

Each digest is a SHA-256 over the count fields of a RunReport: the
handoffs, per batch and per cycle, the cycle displacements (whole laps),
the sampled directions and the traced handoff rate.  The float sums
(displacement, clockwise time, cycle lengths, sampled positions) are left
out: rewrites of the engine may move them by roundoff.  The digests were
recorded from the engine that held a (segments x walkers) direction
matrix and read its totals from cumulative sums over a merged timeline
of switches and meetings.  Every case is run at the default chunk size
and, except the long run, in chunks of SWITCH_CHUNK = 7, and must match
its digest bit for bit either way.  Run this file as a script to print
the digests of the current engine.
"""
import hashlib

import numpy as np
import pytest

from ringrelay import continuous
from ringrelay.model import ContinuousConfig, SeedSpec, State

COUNTS = ["jump_count", "batch_jumps", "cycle_jumps", "cycle_displacements",
          "sample_directions", "trace_cost"]

# (N, v, r, m), horizon, (master, replica), initial, sample_every, trace_every;
# an explicit initial is (positions, directions, carrier)
CASES = [
    ((1.0, 1.0, 1.0, 2), 2000.0, (40, 0), "uniform-random", 2.5, 5.0),
    ((1.7, 0.6, 2.3, 2), 3000.0, (41, 0), "regeneration", None, 7.0),
    ((1.0, 1.0, 1.0, 2), 2000.0, (42, 0), ([0.0, 1.0 - 1e-13], [1, -1], 0), 1.0, None),
    ((0.5, 2.0, 3.0, 2), 1500.0, (43, 1), "uniform-random", None, 0.5),
    ((1.0, 1.0, 1.0, 2), 500.0, (44, 0), ([0.4, 0.4], [1, 1], 0), None, None),
    ((2.0, 1.0, 1.0, 2), 1e6, (45, 0), "uniform-random", None, None),
    ((1.0, 1.0, 1.0, 3), 2000.0, (50, 0), "uniform-random", 3.0, 4.0),
    ((1.0, 1.0, 1.0, 3), 300.0, (96, 0), ([0.4, 0.4, 0.9], [1, 1, -1], 2), None, 1.0),
    ((1.0, 1.0, 1.0, 5), 1000.0, (51, 0), "uniform-random", None, 2.0),
    ((1.7, 0.6, 2.3, 5), 500.0, (52, 0), "uniform-random", 1.5, None),
    ((10.0, 1.0, 1.0, 20), 200.0, (53, 0), "uniform-random", 5.0, 2.0),
]

DIGESTS = [
    "2b8c54e9c495a8abd7abd60e4acf47d9aa9e423186f60cd0363ead83dc81b6b7",
    "d05c8a9b1fac851d21b6b72c2bdf731acd3d21577dcf586b2b6d1b9c06acc355",
    "a35d397c3cec7ae8062d065f73d2ed09c949a1586237faf8882a2d38606e15b2",
    "7b92977d115dc3e4f23bcbdf35878f4dc8a01198f0ddc9ad7ba7c4a724c54180",
    "0497896fa941e1aa6c14082b067d00f8dff1745c0a84a24758c1a634941271de",
    "3dbe3100fa329a97386ac6e67c842da55a9bc552a39fad0b85ed9acee9c868cc",
    "0e87f268906bbcb5c51a928815122204d0ae110c96d11567f2dd1fb00cdc2edb",
    "4014b2d18a1838f85cd04c76f96ca00f96fd17159f7d5e53bad87136476a65e8",
    "53986eec138102bbdadd14a65a0d358eed779b03a023602d4dd4d39fccb0e891",
    "52cd1f5cb9e3b34c3329b5e92d8361ffc16bc1360a6127bbb57472e2c595bcf7",
    "4aeccc474dcf16e75676b7bb1bd5c2906b5d3a816edf857607e2f7423aebcca4",
]

LONG = 1e5  # runs at least this long are not repeated in tiny chunks


def counts_digest(report) -> str:
    h = hashlib.sha256()
    for name in COUNTS:
        value = getattr(report, name)
        h.update(name.encode())
        if isinstance(value, np.ndarray):
            h.update(f"{value.dtype}{value.shape}".encode())
            h.update(np.ascontiguousarray(value).tobytes())
        else:
            h.update(repr(value).encode())
    return h.hexdigest()


def run_case(params, horizon, seed, initial, sample_every, trace_every):
    if not isinstance(initial, str):
        positions, directions, carrier = initial
        initial = State(
            np.array(positions), np.array(directions), carrier
        )
    return continuous.simulate_continuous(
        ContinuousConfig(*params[:3], n_walkers=params[3]), horizon,
        SeedSpec(*seed), initial,
        sample_every=sample_every, trace_every=trace_every,
    )


RUNS = [
    pytest.param(case, digest, chunk, id=f"{i}-{label}")
    for i, (case, digest) in enumerate(zip(CASES, DIGESTS))
    for chunk, label in ((None, "default-chunk"), (7, "chunk-7"))
    if chunk is None or case[1] < LONG
]


@pytest.mark.parametrize("case,digest,chunk", RUNS)
def test_counts_match_golden_digest(monkeypatch, case, digest, chunk):
    if chunk is not None:
        monkeypatch.setattr(continuous, "SWITCH_CHUNK", chunk)
    assert counts_digest(run_case(*case)) == digest


def test_one_digest_per_case():
    assert len(DIGESTS) == len(CASES)


if __name__ == "__main__":
    for case in CASES:
        print(f'    "{counts_digest(run_case(*case))}",')
