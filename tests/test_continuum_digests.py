"""Golden digests of the counts in continuum RunReports.

Each digest is a SHA-256 over the count fields of a RunReport: the
handoffs, per batch and per cycle, the cycle displacements (whole laps)
and the traced handoff rate.  The float sums (displacement, clockwise
time, cycle lengths) are left out: rewrites of the engine may move them
by roundoff.  The engine that held a (segments x walkers) direction
matrix and read its totals from cumulative sums over a merged timeline
of switches and meetings fixed these counts; they were digested from
the last engine that also recorded walker samples, run at each case's
former sample spacing.  Every case is run at the default chunk size
and, except the long run, in chunks of SWITCH_CHUNK = 7, and must match
its digest bit for bit either way.  The per-cycle arrays are rebuilt
from the contacts the run folds (oracles.CycleCapture), as reports
carried them then.  Run this file as a script to print the digests of
the current engine.
"""
import hashlib

import numpy as np
import pytest

from oracles import CycleCapture
from ringrelay import continuous, model
from ringrelay.model import ContinuousConfig, SeedSpec, State

COUNTS = ["jump_count", "batch_jumps", "cycle_jumps", "cycle_displacements",
          "trace_cost"]

# (N, v, r, m), horizon, (master, replica), initial, trace_every;
# an explicit initial is (positions, directions, carrier)
CASES = [
    ((1.0, 1.0, 1.0, 2), 2000.0, (40, 0), "uniform-random", 5.0),
    ((1.7, 0.6, 2.3, 2), 3000.0, (41, 0), "regeneration", 7.0),
    ((1.0, 1.0, 1.0, 2), 2000.0, (42, 0), ([0.0, 1.0 - 1e-13], [1, -1], 0), None),
    ((0.5, 2.0, 3.0, 2), 1500.0, (43, 1), "uniform-random", 0.5),
    ((1.0, 1.0, 1.0, 2), 500.0, (44, 0), ([0.4, 0.4], [1, 1], 0), None),
    ((2.0, 1.0, 1.0, 2), 1e6, (45, 0), "uniform-random", None),
    ((1.0, 1.0, 1.0, 3), 2000.0, (50, 0), "uniform-random", 4.0),
    ((1.0, 1.0, 1.0, 3), 300.0, (96, 0), ([0.4, 0.4, 0.9], [1, 1, -1], 2), 1.0),
    ((1.0, 1.0, 1.0, 5), 1000.0, (51, 0), "uniform-random", 2.0),
    ((1.7, 0.6, 2.3, 5), 500.0, (52, 0), "uniform-random", None),
    ((10.0, 1.0, 1.0, 20), 200.0, (53, 0), "uniform-random", 2.0),
]

DIGESTS = [
    "6a900bcd8fb800a8c4dcbb4ae9240137a3bfb57c07ba793430fb1d01c6a65acd",
    "a31ce80c6d8abc7a03d1047146b75c7ba90da437a4b01f8260e79db4c753a9d0",
    "8d875bf2d4569c2851e0b4b9a96e1bbce85b26569ffd957b6be9779258a226f5",
    "e4b5b88fb07ce31de45f583653662957e4826681c0252de8fe69df6cea419b1c",
    "b1245e20573800ea945cea07347e97b1fb6afaff3d3149f3dff1b0185ba64860",
    "0a62009ffd09f5c523a3f3af96562d5204ae3605b9d1b22e94ce3794729c4ac5",
    "63fb63fc7ebcb39c095a6fb8bd0177f2125775bfd0c433f3a8e3470b8a76f45b",
    "bd42f88a8bf93226c812722ea0671f0729b480ad5e1a7be4beecbb3fb00a2520",
    "a5da05953816f11dd3ded80acee0174fe9770f30178983e7b34688ac92548825",
    "9a57e9c5ee5e0edfb42d847c16a1ccfa092266a051bb4aa93d62e38cb98c91c8",
    "9adf428beb55ef2f6549b9f3c21b3ac82226128405befdc99e3142b6f9a3eed4",
]

LONG = 1e5  # runs at least this long are not repeated in tiny chunks


def counts_digest(report, arrays) -> str:
    """The digest of the COUNTS of report, those of its cycles from arrays."""
    fields = {**vars(report), **vars(arrays)}
    h = hashlib.sha256()
    for name in COUNTS:
        value = fields[name]
        h.update(name.encode())
        if isinstance(value, np.ndarray):
            h.update(f"{value.dtype}{value.shape}".encode())
            h.update(np.ascontiguousarray(value).tobytes())
        else:
            h.update(repr(value).encode())
    return h.hexdigest()


def run_case(params, horizon, seed, initial, trace_every):
    if not isinstance(initial, str):
        positions, directions, carrier = initial
        initial = State(
            np.array(positions), np.array(directions), carrier
        )
    return continuous.simulate_continuous(
        ContinuousConfig(*params[:3], n_walkers=params[3]), horizon,
        SeedSpec(*seed), initial,
        trace_every=trace_every,
    )


RUNS = [
    pytest.param(case, digest, chunk, id=f"{i}-{label}")
    for i, (case, digest) in enumerate(zip(CASES, DIGESTS))
    for chunk, label in ((None, "default-chunk"), (7, "chunk-7"))
    if chunk is None or case[1] < LONG
]


@pytest.mark.parametrize("case,digest,chunk", RUNS)
def test_counts_match_golden_digest(monkeypatch, cycle_arrays, case, digest, chunk):
    if chunk is not None:
        monkeypatch.setattr(continuous, "SWITCH_CHUNK", chunk)
    report = run_case(*case)
    assert counts_digest(report, cycle_arrays(report)) == digest


def test_one_digest_per_case():
    assert len(DIGESTS) == len(CASES)


if __name__ == "__main__":
    capture = model.fold_cycles = CycleCapture(model.fold_cycles)
    for case in CASES:
        report = run_case(*case)
        print(f'    "{counts_digest(report, capture.arrays(report))}",')
