"""Runs without cycle records: `cycles=False` on either simulator.

The message never changes how the walkers move, and with two walkers
the relay draws nothing, so a run that keeps no contacts is the same run
as one that does: every field of its RunReport equals the default run's
bit for bit, except the four cycle arrays, which are None.  Not keeping
them is what saves memory on the runs whose cycles nobody reads.
"""
import dataclasses
import tracemalloc

import numpy as np
import pytest

from ringrelay import validation
from ringrelay.continuous import simulate_continuous
from ringrelay.discrete import simulate_discrete
from ringrelay.model import ContinuousConfig, DiscreteConfig, SeedSpec, State

CYCLE_FIELDS = {"cycle_lengths", "cycle_displacements", "cycle_carrier_sums",
                "cycle_jumps"}

LATTICE = DiscreteConfig(11, 0.3)
CONTINUUM = ContinuousConfig(2.5, 1.5, 0.7)

# (simulate, config, run length, start, trace_every); the explicit starts
# are contacts, a counter-clockwise carrier on top of a clockwise mover
CASES = {
    "discrete-uniform": (simulate_discrete, LATTICE, 20_000, "uniform-random", None),
    "discrete-regeneration": (simulate_discrete, LATTICE, 20_000, "regeneration", None),
    "discrete-contact": (simulate_discrete, LATTICE, 20_000,
                         State(np.array([3, 3]), np.array([-1, 1]), 0), None),
    "discrete-traced": (simulate_discrete, LATTICE, 20_000, "uniform-random", 100),
    "discrete-m3": (simulate_discrete, DiscreteConfig(11, 0.3, 3), 20_000,
                    "uniform-random", None),
    "continuous-uniform": (simulate_continuous, CONTINUUM, 2000.0, "uniform-random",
                           None),
    "continuous-regeneration": (simulate_continuous, CONTINUUM, 2000.0,
                                "regeneration", None),
    "continuous-contact": (simulate_continuous, CONTINUUM, 2000.0,
                           State(np.array([0.5, 0.5]), np.array([-1, 1]), 0), None),
    "continuous-traced": (simulate_continuous, CONTINUUM, 2000.0, "uniform-random",
                          10.0),
    "continuous-m3": (simulate_continuous, ContinuousConfig(2.5, 1.5, 0.7, 3), 2000.0,
                      "uniform-random", None),
}


def same(a, b) -> bool:
    """Equal bit for bit: arrays by dtype, shape and bytes, the rest by
    type and repr (so 0.1 + 0.2 is not 0.3, and -0.0 is not 0.0)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (type(a) is type(b) and a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    return type(a) is type(b) and repr(a) == repr(b)


@pytest.mark.parametrize("case", CASES)
def test_no_cycles_changes_nothing_else(case):
    simulate, config, length, initial, trace_every = CASES[case]
    seed = SeedSpec(2026, 5)
    kept = simulate(config, length, seed, initial, trace_every=trace_every)
    dropped = simulate(config, length, seed, initial, trace_every=trace_every,
                       cycles=False)
    for f in dataclasses.fields(kept):
        if f.name not in CYCLE_FIELDS:
            assert same(getattr(kept, f.name), getattr(dropped, f.name)), f.name
    assert all(getattr(dropped, name) is None for name in CYCLE_FIELDS)
    assert dropped.n_cycles == 0
    if config.n_walkers == 2:  # the default run did keep cycles
        assert kept.n_cycles > 0
        assert all(getattr(kept, name) is not None for name in CYCLE_FIELDS)
    else:
        assert all(getattr(kept, name) is None for name in CYCLE_FIELDS)
    if isinstance(initial, State) or initial == "regeneration":
        assert kept.burn_in == 0  # a contact start: no burn-in
    if trace_every is not None:
        assert kept.trace_times is not None and len(kept.trace_times) > 0


def _peak_mib(run) -> float:
    """tracemalloc's peak over one call, which counts numpy's buffers."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("simulate,config,length", [
    # about 200 000 contacts; the engine's own chunks stay near 4 MiB
    (simulate_continuous, ContinuousConfig(2.0), 4e5),
    (simulate_discrete, DiscreteConfig(11, 0.1), 2_000_000),
])
def test_no_cycles_lowers_the_peak(simulate, config, length):
    seed = SeedSpec(7)
    simulate(config, length // 100, seed)  # first-call allocations out of the way
    kept = _peak_mib(lambda: simulate(config, length, seed))
    dropped = _peak_mib(lambda: simulate(config, length, seed, cycles=False))
    assert dropped <= 0.6 * kept, (kept, dropped)


def test_gate_keeps_cycles_only_where_a_check_reads_them():
    table = validation.run_table(validation.DEFAULT_SEED)
    no_cycles = {name for name, (func, _) in table.items()
                 if getattr(func, "keywords", {}).get("cycles") is False}
    assert no_cycles == {"continuous_reference", "discrete_reference", "independence"}
    assert table["discrete_regen"][0] is simulate_discrete
    assert table["continuous_regen"][0] is simulate_continuous
