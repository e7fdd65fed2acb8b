"""Golden digests of the start state of both models.

The continuum digests in test_continuum_digests.py hold counts only, so
they do not pin the floats of a continuum start.  Here each case runs a
simulation up to the point where model.relay receives the start state,
and digests what it receives over ten seeds: the dtype and bytes of the
positions and directions, on the continuum those of each walker's first
switch time, drawn from its own stream, the carrier, and whether the
start is a contact.  An explicit start is built as the command line
builds it from a config.  Run this file as a script to print the
digests of the current code.
"""
import hashlib
import inspect

import numpy as np
import pytest

from ringrelay import cli, continuous, discrete, model
from ringrelay.model import ContinuousConfig, DiscreteConfig, SeedSpec, WalkerStreams

SEEDS = [SeedSpec(2026, k) for k in range(10)]
RATE = 0.7  # the continuum switch rate

# explicit starts per model and m; each has a carrier moving
# counter-clockwise on top of clockwise movers, two of them from m = 3 on
EXPLICIT = {
    ("discrete", 2): ([3, 3], [-1, 1], 0),
    ("discrete", 3): ([4, 4, 4], [-1, 1, 1], 0),
    ("discrete", 5): ([2, 2, 2, 2, 6], [-1, 1, 1, 1, -1], 0),
    ("continuous", 2): ([0.5, 0.5], [-1, 1], 0),
    ("continuous", 3): ([1.25, 1.25 + 1e-13, 2.0], [-1, 1, 1], 0),
    ("continuous", 5): ([0.0, 0.0, 2.5 - 1e-13, 1.0, 1.0], [-1, 1, 1, 1, -1], 0),
}

# model, m, start mode
CASES = [
    (model, m, mode)
    for model in ("discrete", "continuous")
    for m in (2, 3, 5)
    for mode in ("explicit", "uniform-random", "regeneration")
    if mode != "regeneration" or m == 2
]

DIGESTS = [
    "b6aad787afdedf98a4adef0a46ec98edb59a84f1962f42aac2c0b9b54c59676d",
    "bb0df77a2a9196a13a97d22717189c9e3d5e8f3c788c29f42fae9fd3e06423bb",
    "7f0366ae24b7c660389a3c5f982e45b70281a4370257dadd47975378e0b1010b",
    "bf5539bec44cd4b983052cec1c1920a43c1e5bf4d333808f8e0d5a3b1bdfb024",
    "903c97a5c79cacfd1c4fcd894cd9e67fc818cf8f6681169aa7e6c08e942ee988",
    "170f4afbf460e77bd852b2a6e98eabdf3c8cdd5d89ebc99fea051676ed969211",
    "acbe329111eb2ac7a52c8a62bed3c69dd35323b35016bafd9402d5533f23ac35",
    "f49f6525ec862992534e75956f2f5fb78e0743d0a1e9787f6390a37c0a45a060",
    "528966b288357b018fcc32d9076c631849df0c9e7125f1cd349350d24b40219c",
    "b5063ea050f3bc56499a777603502df1293967b9c7882015ac949d7c4c61726d",
    "bf875a08d17e28232dbd57252ba03f7fe443001224cedae6da5a1733be87fcec",
    "3933dfc5c86748996091944e721d4dd0df6cf29f03ceb89aca198258a5008496",
    "d294ef073b559c9c6971556c1404aeedf3d7c5e6020abb5f5878fb6297ec680a",
    "d8afbb70cd212157e72d919b61579459c808c99a289d60c72793ecc6da822cdd",
]


class _Started(Exception):
    """Carries the arguments model.relay received, by parameter name."""


def _capture(*args, **kwargs):
    raise _Started(inspect.signature(model.relay).bind(*args, **kwargs).arguments)


def start_of(model, m, mode, seed):
    """The state and contact flag that the relay of one run starts from."""
    if model == "discrete":
        module, config, length = discrete, DiscreteConfig(13, 0.3, m), 1
        simulate = discrete.simulate_discrete
    else:
        module, config, length = continuous, ContinuousConfig(2.5, 1.5, RATE, m), 1.0
        simulate = continuous.simulate_continuous
    initial = mode
    if mode == "explicit":
        positions, directions, carrier = EXPLICIT[model, m]
        initial = cli._build_initial(
            {"positions": positions, "directions": directions, "carrier": carrier},
            model,
        )
    relay = module.relay
    module.relay = _capture
    try:
        simulate(config, length, seed, initial)
    except _Started as started:
        args = started.args[0]
    finally:
        module.relay = relay
    return args["state"], args["contact"]


def first_switches(m, seed):
    """Each continuum walker's first switch time, the first draw of its
    stream, at start_of's switch rate."""
    streams = WalkerStreams(seed, m)
    return np.array([streams.walker[j].exponential(1.0 / RATE) for j in range(m)])


def start_digest(model, m, mode) -> str:
    h = hashlib.sha256()
    for seed in SEEDS:
        state, contact = start_of(model, m, mode, seed)
        switches = first_switches(m, seed) if model == "continuous" else None
        for value in (state.positions, state.directions, switches):
            if value is None:
                h.update(b"None")
            else:
                h.update(f"{value.dtype}{value.shape}".encode())
                h.update(np.ascontiguousarray(value).tobytes())
        h.update(repr((int(state.carrier), bool(contact))).encode())
    return h.hexdigest()


@pytest.mark.parametrize(
    "case,digest", zip(CASES, DIGESTS), ids=["-".join(map(str, c)) for c in CASES]
)
def test_start_matches_golden_digest(case, digest):
    assert start_digest(*case) == digest


def test_one_digest_per_case():
    assert len(DIGESTS) == len(CASES)


if __name__ == "__main__":
    for case in CASES:
        print(f'    "{start_digest(*case)}",')
