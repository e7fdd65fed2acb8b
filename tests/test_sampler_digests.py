"""Golden digests of the walker samples that the equilibrium-uniformity
check reads.

Each digest is a SHA-256 over the dtype, shape and bytes of arrays: on
the lattice, the positions and directions at the given rounds; on the
continuum, the directions and the 8-arc index of each position, binned
as estimators.chi_square_uniformity bins them (the float positions
themselves may move by roundoff).  The gate's cases are its own replicas
at its default master seed; the lattice rounds are those the gate reads,
2100, 2150, .. up to 205000.  The samplers that preceded model.walk
fixed these values: the lattice one counted parity prefixes over the
rounds after a run's burn-in, the continuum one was continuous._walk.
Run this file as a script to print the digests of the current samplers.
"""
import hashlib

import numpy as np
import pytest

from ringrelay import continuous, discrete
from ringrelay.model import ContinuousConfig, DiscreteConfig, SeedSpec

GATE = 20260815
ARCS = 8

# (N, epsilon, m), rounds, seed: the gate's replicas, then m = 3 and 5
LATTICE_CASES = [
    *(((5, 0.3, 2), (2100, 205_001, 50), SeedSpec(GATE, 1000 + k)) for k in range(10)),
    ((7, 0.2, 3), (3013, 300_001, 13), SeedSpec(5, 3)),
    ((11, 0.05, 5), (1503, 150_001, 3), SeedSpec(6, 5)),
]
CONTINUUM_SEEDS = [SeedSpec(GATE, 2000 + k) for k in range(10)]
CONTINUUM_TIMES = 10.0 + 10.0 * np.arange(1, 6001)

LATTICE_DIGESTS = [
    "bc0b9bc6cfe9b7a480b5c6d49566b58893c2f30df5d9eafee056a144f1e0e4b9",
    "5d94fa074469f70e0f1ced177843ea58ab47fddb6090f0897f8b44532c51fd54",
    "a94175d497ec9fb24ac0b1ed7a6ffe5c1aa6a3c726b4c630f97867a0077d303b",
    "27732d88f6c3e579d52d86c23eed88dc2645b2770cd66ff1ba6c62896a428a33",
    "1a61c874763ec77c2fe1dd6d8feeed6057fe83d5e26dd28bd03d4800a04416ec",
    "7ff374e954b7e2cb7e3b3e79452b64cf454d665d19a6ae51d0f8a36638fd8983",
    "1db308f8b2cd8e718ba5ce310d65d609b8e6ea85f4299ace08d8a97308e12d09",
    "be4a375ee532916bc625be94158e0d8272f3579861a30fcde16b350912501f0f",
    "0fccd423b3e7393fc114dbb22555feff490ac468822b94502a9c1f9658693925",
    "8df8d6e68c086b6682a676cd54a86db5f531ed18bcf2b6655d3ab685f0baf288",
    "43d2a78a43f9b918e19606376cec55b0c51dccb8905ddbc519a1f40fd718b4f5",
    "31e4b6d5768c7c920f1241f81504b66d52a537c7f13440b7c8c0f4e8ae6b1653",
]
CONTINUUM_DIGESTS = [
    "56b10b6d0e1ea8bfa77bae10038e843d2d725ba56de04892f6e4d52b93de3f19",
    "700fc72a994b32cf9f752af2aaee71d928120905b4460a4d2cf41a02d13f0ac1",
    "4cee6332bd65e934e81b8f9a88e1b9b01b8e0af77a77e4cca955a6fc178082e1",
    "c2a174a35bc28caba0ed29ecee552cb03285479c7d9fe610efe50c2df9f07673",
    "71f9fb5ec44145c1914e5c06f91df2b444ff3a3924e7b907a102272af5b6bdfb",
    "af90bcdb478ce367391373f5222bdaea1771e8675be8f61ff298e542a5934a24",
    "2d100ee22304dccd7bfe98fa4e01593df7da3a7e85d4f78958ae981461197008",
    "03c3e0f333c2af4dd50f514ce3c4bbef6e48414ee05f4998c9863197a1635ddc",
    "e5225b0b69899b89801578bd2b6022ed154e1fe81bb47ffc74c04241a5065797",
    "9ba07fc8b1845143cea345df5d14e1ff04887d916dc0358459c9fbc691bc5ffe",
]


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def lattice_digest(case) -> str:
    (n, eps, m), rounds, seed = case
    return digest(*discrete.sample_walker_states(
        DiscreteConfig(n, eps, m), np.arange(*rounds), seed))


def continuum_digest(seed) -> str:
    config = ContinuousConfig(1.0)
    pos, dirs = continuous.sample_walker_states(config, CONTINUUM_TIMES, seed)
    arcs = np.minimum((pos / config.circumference * ARCS).astype(int), ARCS - 1)
    return digest(dirs, arcs)


@pytest.mark.parametrize("case, expected", list(zip(LATTICE_CASES, LATTICE_DIGESTS)))
def test_lattice_digest(case, expected):
    assert lattice_digest(case) == expected


@pytest.mark.parametrize("seed, expected",
                         list(zip(CONTINUUM_SEEDS, CONTINUUM_DIGESTS)))
def test_continuum_digest(seed, expected):
    assert continuum_digest(seed) == expected


def test_every_case_has_a_digest():
    assert len(LATTICE_DIGESTS) == len(LATTICE_CASES)
    assert len(CONTINUUM_DIGESTS) == len(CONTINUUM_SEEDS)


if __name__ == "__main__":
    for case in LATTICE_CASES:
        print(f'    "{lattice_digest(case)}",')
    print()
    for seed in CONTINUUM_SEEDS:
        print(f'    "{continuum_digest(seed)}",')
