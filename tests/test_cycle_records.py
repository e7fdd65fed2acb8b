"""The regeneration cycles of a two-walker run as one running record.

model.relay folds each block's contacts into a model.Cycles record as
it goes (model.fold_cycles) and keeps only the latest contact between
blocks, so memory does not grow with the horizon.  The record must hold
what the per-cycle arrays that reports once carried would give, at any
block size: oracles.CycleCapture rebuilds those arrays from the contacts
the fold receives, and oracles.cycle_record takes their moments afresh.
The message never changes how the walkers move, and with two walkers the
relay draws nothing, so folding the cycles changes no other field of a
RunReport: a run whose fold keeps nothing is the same run, bit for bit.
"""
import dataclasses
import inspect
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import NO_CONTACT, CycleCapture, assert_cycles_match, cycle_record
from ringrelay import continuous, discrete, estimators, model, validation
from ringrelay.continuous import simulate_continuous
from ringrelay.discrete import simulate_discrete
from ringrelay.model import (
    ContinuousConfig, Cycles, DiscreteConfig, Moments, SeedSpec, State,
)

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


def small_blocks(monkeypatch, simulate) -> None:
    """Blocks of 64 walker-rounds or chunks of 7 switches per walker."""
    if simulate is simulate_discrete:
        monkeypatch.setattr(discrete, "WALKER_ROUNDS", 64)
    else:
        monkeypatch.setattr(continuous, "SWITCH_CHUNK", 7)


def same(a, b) -> bool:
    """Equal bit for bit: arrays by dtype, shape and bytes, the rest by
    type and repr (so 0.1 + 0.2 is not 0.3, and -0.0 is not 0.0)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (type(a) is type(b) and a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    return type(a) is type(b) and repr(a) == repr(b)


@pytest.mark.parametrize("case", CASES)
def test_no_cycles_changes_nothing_else(monkeypatch, case):
    simulate, config, length, initial, trace_every = CASES[case]
    seed = SeedSpec(2026, 5)
    kept = simulate(config, length, seed, initial, trace_every=trace_every)
    # the same run with a fold that keeps no cycle
    monkeypatch.setattr(model, "fold_cycles", lambda cycles, last, *_: (cycles, last))
    dropped = simulate(config, length, seed, initial, trace_every=trace_every)
    for f in dataclasses.fields(kept):
        if f.name != "cycles":
            assert same(getattr(kept, f.name), getattr(dropped, f.name)), f.name
    assert dropped.n_cycles == 0
    if config.n_walkers == 2:  # the default run did keep cycles
        assert kept.n_cycles > 0
        assert dropped.cycles == Cycles()
    else:
        assert kept.cycles is None and dropped.cycles is None
    if isinstance(initial, State) or initial == "regeneration":
        assert kept.burn_in == 0  # a contact start: no burn-in
    if trace_every is not None:
        assert kept.trace_times is not None and len(kept.trace_times) > 0


@pytest.mark.parametrize("blocks", ["default", "small"])
@pytest.mark.parametrize("case", CASES)
def test_record_matches_its_arrays(monkeypatch, cycle_arrays, case, blocks):
    simulate, config, length, initial, trace_every = CASES[case]
    if blocks == "small":
        small_blocks(monkeypatch, simulate)
    report = simulate(config, length, SeedSpec(2026, 5), initial,
                      trace_every=trace_every)
    arrays = cycle_arrays(report)
    if config.n_walkers > 2:  # regeneration cycles are a two-walker construction
        assert report.cycles is None and report.n_cycles == 0
        assert all(value is None for value in vars(arrays).values())
        return
    assert report.n_cycles == len(arrays.cycle_lengths) > 0
    assert_cycles_match(report.cycles, cycle_record(arrays, report.lap_length),
                        exact_sums=simulate is simulate_discrete)


@pytest.mark.parametrize("simulate,config,length", [
    (simulate_discrete, DiscreteConfig(5, 0.3), 30_000),
    (simulate_continuous, ContinuousConfig(1.0), 3000.0),
], ids=["lattice", "continuum"])
def test_merge_equals_the_record_of_the_pooled_cycles(cycle_arrays, simulate, config,
                                                      length):
    runs = [simulate(config, length, SeedSpec(8, k), "regeneration") for k in range(2)]
    first, second = (cycle_arrays(r) for r in runs)
    pooled = SimpleNamespace(**{name: np.concatenate((values, vars(second)[name]))
                                for name, values in vars(first).items()})
    merged = estimators.merge(runs)
    assert merged.n_cycles == sum(r.n_cycles for r in runs)
    assert_cycles_match(merged.cycles, cycle_record(pooled, runs[0].lap_length),
                        exact_sums=simulate is simulate_discrete)


def test_capture_keeps_runs_apart(monkeypatch):
    # one capture over runs of other rings and burn-ins, as the digest
    # files use when run as scripts, rebuilds each as a capture of it alone
    fold, shared, pairs = model.fold_cycles, CycleCapture(model.fold_cycles), []
    for case in ("continuous-contact", "discrete-uniform", "discrete-regeneration"):
        simulate, config, length, initial, _ = CASES[case]
        monkeypatch.setattr(model, "fold_cycles", shared)
        together = simulate(config, length, SeedSpec(2026, 5), initial)
        alone = CycleCapture(fold)
        monkeypatch.setattr(model, "fold_cycles", alone)
        pairs.append((together, alone.arrays(simulate(config, length, SeedSpec(2026, 5),
                                                      initial))))
    for together, apart in pairs:
        for name, values in vars(shared.arrays(together)).items():
            np.testing.assert_array_equal(values, vars(apart)[name])


def test_moments_pool_and_read_as_numpy_does():
    rng = np.random.default_rng(3)
    values = rng.normal(1e3, 2.0, size=1001)
    whole = Moments.of(values)
    # any split pools to the moments of the whole, the empty part included
    for cut in (0, 1, 500, 1000, 1001):
        pooled = Moments.of(values[:cut]).pooled(Moments.of(values[cut:]))
        assert pooled.count == whole.count == 1001
        assert pooled.total == pytest.approx(whole.total, rel=1e-14)
        assert pooled.squares == pytest.approx(whole.squares, rel=1e-12)
    assert whole.mean() == pytest.approx(values.mean(), rel=1e-15)
    assert whole.stderr() == pytest.approx(values.std(ddof=1) / np.sqrt(1001), rel=1e-12)
    # integer values, as lattice lengths are, sum exactly
    rounds = rng.integers(1, 50, size=999)
    assert Moments.of(rounds).total == float(rounds.sum())
    assert Moments.of(rounds).squares == pytest.approx(
        ((rounds - rounds.mean()) ** 2).sum(), rel=1e-14)


def test_contacts_before_burn_in_never_enter():
    # rounds 0 .. 9 hold contacts in two whole blocks and part of a third;
    # with burn-in 10 the first cycle runs from round 12 to 15
    time = np.array([0, 3, 5, 8, 9, 12, 15, 21])
    level = np.array([0, 2, 2, 4, 6, 6, 8, 8])
    car = np.array([1, 0, 1, 1, 0, 1, 1, 0])
    blocks = [(time[i:i + 2], time[i:i + 2], level[i:i + 2], car[i:i + 2])
              for i in range(0, len(time), 2)]
    cycles, last, lasts = Cycles(), NO_CONTACT, []
    for block in blocks:
        cycles, last = model.fold_cycles(cycles, last, block, 10, 5, 10.0)
        lasts.append(last[0].tolist())
    assert lasts == [[], [], [12], [21]]
    after = (time[5:], time[5:], level[5:], car[5:])
    kept, _ = model.fold_cycles(Cycles(), NO_CONTACT, after, 0, 5, 10.0)
    assert cycles == kept
    assert cycles.lengths.count == 2 and cycles.lengths.total == 9.0


def test_runs_drop_the_contacts_before_burn_in(monkeypatch):
    # a start off contact has contacts in its burn-in; none of them is folded
    capture = CycleCapture(model.fold_cycles)
    monkeypatch.setattr(model, "fold_cycles", capture)
    report = simulate_discrete(DiscreteConfig(5, 0.3), 20_000, SeedSpec(4),
                               State(np.array([0, 2]), np.array([1, -1]), 0))
    times = np.concatenate([call[3][0] for call in capture.calls])
    before = times < report.burn_in
    assert report.burn_in == 200 and before.sum() > 10
    assert report.n_cycles == (~before).sum() - 1


def _peak_mib(run) -> float:
    """tracemalloc's peak over one call, which counts numpy's buffers."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("simulate,config,length", [
    # about 200 000 and 2 000 000 contacts; the engines' own blocks stay
    # near 4 MiB
    (simulate_continuous, ContinuousConfig(2.0), 4e5),
    (simulate_discrete, DiscreteConfig(11, 0.1), 400_000),
], ids=["continuum", "lattice"])
def test_peak_is_flat_in_the_horizon(simulate, config, length):
    seed = SeedSpec(1)
    simulate(config, length // 100, seed)  # first-call allocations out of the way
    short = _peak_mib(lambda: simulate(config, length, seed))
    long = _peak_mib(lambda: simulate(config, 10 * length, seed))
    assert long <= 1.1 * short, (short, long)


def test_no_cycles_switch_remains():
    # every run of the gate reads its simulator plain, and no simulator
    # or the relay takes a switch to keep cycles or not
    table = validation.run_table(validation.DEFAULT_SEED)
    simulators = {name: func for name, (func, _) in table.items()
                  if name != "uniformity"}
    assert simulators == {
        "continuous_reference": simulate_continuous,
        "discrete_reference": simulate_discrete,
        "discrete_regen": simulate_discrete,
        "continuous_regen": simulate_continuous,
        "independence": simulate_discrete,
    }
    for func in (simulate_discrete, simulate_continuous, model.relay):
        assert "cycles" not in inspect.signature(func).parameters
