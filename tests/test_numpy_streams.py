"""The numpy stream canary: a few pinned draws of each Generator method
the engines read.

Byte-identical reruns rest on numpy's streams.  NEP 19 keeps the bit
generators' streams (PCG64 from a SeedSequence) stable across numpy
releases, but not those of the Generator methods built on them.  The
lattice flips come from random, the continuum switch times from
exponential, and the starts and tie-breaks from integers, so a release
that changes one of these fails every golden digest of the models that
read it at once.  These tests name the method instead.  The values were
drawn with numpy 2.4.6, on walker 0's stream of replica 0 at the default
seed, as model.WalkerStreams makes it.
"""
import numpy as np

from ringrelay.model import SeedSpec, WalkerStreams


def stream():
    return WalkerStreams(SeedSpec(20260815, 0), 1).walker[0]


def test_pcg64_stream_of_the_default_seed():
    bits = np.random.PCG64(np.random.SeedSequence(20260815, spawn_key=(0, 1)))
    assert stream().bit_generator.state == bits.state


def test_random_draws():
    # the lattice flips: a round flips where its draw is below epsilon
    assert stream().random(3).tolist() == [
        0.3354496281190976, 0.79170894857097, 0.5582428161122344]


def test_exponential_draws():
    # the continuum switch gaps, of scale 1 / r
    assert stream().exponential(0.5, 3).tolist() == [
        0.16111691119972557, 1.9550370069526393, 0.28899489014526664]


def test_integers_draws():
    # fair directions, a carrier, and uniform sites on a ring
    assert stream().integers(0, 2, size=5).tolist() == [0, 0, 0, 1, 0]
    assert stream().integers(7) == 1
    assert stream().integers(0, 1000003, size=3).tolist() == [226887, 335450, 62862]
