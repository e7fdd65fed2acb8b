"""Golden digests of lattice RunReports.

Each digest is a SHA-256 over every RunReport field (name, then dtype,
shape and bytes of an array, or the repr of anything else), recorded
from the engine that held (rounds x walkers) position and direction
arrays.  Any rewrite of the lattice engine must reproduce every one of
them bit for bit.  Run this file as a script to print the digests of
the current engine.
"""
import dataclasses
import hashlib

import numpy as np
import pytest

from ringrelay import discrete
from ringrelay.model import DiscreteConfig, SeedSpec, State

# N, epsilon, m, steps, (master, replica), initial, sample_every, trace_every;
# an explicit initial is (positions, directions, carrier)
CASES = [
    (3, 0.05, 2, 1, (0, 0), "uniform-random", None, None),
    (3, 0.9, 2, 2, (1, 0), "regeneration", 1, 1),
    (5, 0.3, 2, 49, (2, 0), "uniform-random", None, None),
    (5, 0.3, 2, 5000, (3, 1), "regeneration", 7, 13),
    (5, 0.3, 2, 200_000, (4, 0), "uniform-random", None, None),
    (7, 0.5, 2, 10_000, (5, 0), ([3, 3], [-1, 1], 0), None, 100),
    (11, 0.1, 2, 100_000, (6, 0), ([10, 0], [1, -1], 0), 1000, None),
    (101, 0.05, 2, 200_000, (7, 2), "uniform-random", None, 1000),
    (999, 0.1, 2, 200_000, (8, 0), "regeneration", None, None),
    (999, 0.9, 2, 10_000, (9, 0), "uniform-random", 1, None),
    (21, 0.7, 2, 30_000, (10, 0), ([0, 10], [1, 1], 1), 3, None),
    (3, 0.5, 2, 100_000, (11, 0), "uniform-random", 1, 1),
    (9, 0.2, 2, 777, (12, 3), "regeneration", None, 1),
    (5, 0.3, 2, 12_345, (13, 0), ([0, 0], [1, -1], 0), None, None),
    (51, 0.25, 2, 65_537, (14, 0), "uniform-random", 4096, 8192),
    (3, 0.3, 3, 1, (20, 0), "uniform-random", None, None),
    (5, 0.3, 3, 5000, (21, 0), "uniform-random", 5, 11),
    (7, 0.05, 3, 200_000, (22, 0), "uniform-random", None, None),
    (101, 0.5, 3, 50_000, (23, 0), ([0, 50, 100], [1, -1, 1], 2), None, 500),
    (3, 0.9, 3, 20_000, (24, 0), ([0, 0, 0], [1, -1, 1], 1), 1, None),
    (999, 0.2, 3, 100_000, (25, 0), "uniform-random", None, None),
    (11, 0.6, 3, 333, (26, 1), ([4, 4, 9], [-1, 1, 1], 0), None, 1),
    (3, 0.3, 5, 20_000, (30, 0), "uniform-random", None, None),
    (5, 0.3, 5, 200_000, (31, 0), "uniform-random", None, 1000),
    (101, 0.1, 5, 50_000, (32, 0), "uniform-random", 100, None),
    (7, 0.8, 5, 10, (33, 0), "uniform-random", 1, 1),
    (13, 0.45, 5, 30_000, (34, 0), ([0, 0, 0, 6, 6], [1, -1, -1, 1, -1], 1), 1, 1),
    (999, 0.05, 5, 200_000, (35, 0), "uniform-random", None, None),
    (3, 0.05, 5, 99, (36, 0), "uniform-random", None, None),
    (5, 0.5, 5, 100_000, (37, 0), ([0, 1, 2, 3, 4], [1, 1, 1, 1, 1], 0), None, None),
]

DIGESTS = [
    "9a57495dd9fe593dabc1ba7a88113111c5e8b386a2c050becd198654dddad2f6",
    "eaab8cf9da31f0a8a6a26935fffaf2ca85da2d9191e9268c7335a96efface558",
    "2bd231dac1a5c6905da2dd821b26377a2b6ac8ef4ab7c641295c7d3146923996",
    "88358627df62fdfe4b72e8bcd822ddb9955d11090d853362bdf4b486c07cdad7",
    "3c324896da7045720453c9a9eb026d93e2d41fb6a2a7f3cea44b526ce84bd034",
    "9c2ae6510bd5782f96d1e810fe70a1f177d6a3d3464fed56c5fc1702a4585792",
    "e1d1728e7afc32e2099b2fbafcd6cc774918638b7400d70e1ff4310ab7875855",
    "acfbb8fc3a14fc463a4546f50da71b9775d0fb14f599080c29d3841570a3066c",
    "62b5c963cbaae6bd09c3c5f499dbfee20a3ebc91d18fcb3992c0104c7735bbbf",
    "bf79b53d91e7a4b462fa6adca2d1c0506b7917e94d53a7d16a4cfc02f472d9f4",
    "a6a4142b530eca41bca78ed7496a8dfc97951590e361973c0c313e6c22bfdb30",
    "4e5bd58b5511aedd8c15ebdb6e114371209e3139895de458d2e3fc7988d3b293",
    "e508e3986bfc1525f7ef05d4906be51f9df0963adb35d1eacaf5a48aa0013ea2",
    "0328a87072ae9985187e0a27bb71457ed4a1d3a98faf432a4c0bda49d3634710",
    "36b568c545b229ffb1f89b2463e1220f6994b04343f8174354564e537da5bfda",
    "bdf268deff056697d76ae0293be7bb8235b657bbb73910777a298edf9c64e6d5",
    "3b96697807a82c30180e12f148156cf6e9614d7cf586d96d9de8f7748851a13f",
    "3fee72155bcbf4af5c07986b1221dd6109da5683c309179cfe6f57cd1813c92c",
    "be8595c803b2c32a21e6fb9d863f48038265e9ad92799574eb4593fdfe88c432",
    "06d653547e12fcf41514158869a09e1a1762cc2f94905278eca3fe7380d1a887",
    "929633e4953b5586356dc63dc31426b794c21d282fad30f34ce11e74fccff4c0",
    "be3c6d1eb4296f6e4fc8dc91c857ff7515e39c2011cf57f1c3130b877ab76c69",
    "8105ea60e077d16f14c52f6f400cd8dd4688eb473c947cdf49cf12687b8f9afc",
    "c80d8010e155da9ac1c0013778330b97c8bb0e6b0172e26f47708566944b01a8",
    "30a7e605514fcaeb631b505f29263cb0dd1322c497c186302e4e69b2d2974f2f",
    "d8f0e00ad9bc4b816331cafcb9b9a3f50248871a28101ef8e78f853e134832b7",
    "6e757f2e43bc0c6c538c8ac69a289d2ee2ac973bbeea7d38a4722d2179d9a210",
    "a8315d70d9265381831c6bf89fffc5e21ca9e5e1c8f0a4047e0ae555a7dbbbba",
    "697ee0daffa0b8904ba15744350aa8e9d05862d24c308db1038c8cca2417a32a",
    "0050268e030afbcdffeab337c4b12f8f9cf119927ee652e10defef8a38f25860",
]


def report_digest(report) -> str:
    h = hashlib.sha256()
    for f in dataclasses.fields(report):
        value = getattr(report, f.name)
        h.update(f.name.encode())
        if isinstance(value, np.ndarray):
            h.update(f"{value.dtype}{value.shape}".encode())
            h.update(np.ascontiguousarray(value).tobytes())
        else:
            h.update(repr(value).encode())
    return h.hexdigest()


def run_case(n, eps, m, steps, seed, initial, sample_every, trace_every):
    if not isinstance(initial, str):
        positions, directions, carrier = initial
        initial = State(
            np.array(positions), np.array(directions), carrier
        )
    return discrete.simulate_discrete(
        DiscreteConfig(n, eps, m), steps, SeedSpec(*seed), initial,
        sample_every=sample_every, trace_every=trace_every,
    )


@pytest.mark.parametrize("case,digest", zip(CASES, DIGESTS), ids=range(len(CASES)))
def test_report_matches_golden_digest(case, digest):
    assert report_digest(run_case(*case)) == digest


def test_one_digest_per_case():
    assert len(DIGESTS) == len(CASES)


if __name__ == "__main__":
    for case in CASES:
        print(f'    "{report_digest(run_case(*case))}",')
