"""Config validation, ring geometry helpers, and the seeding contract."""
import re
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import circle_delta, in_contact, loop_pass_message, resolve_handoff
from ringrelay import closed_form, continuous, discrete, errors, exact
from ringrelay.model import (
    MAX_WALKERS,
    ContinuousConfig,
    DiscreteConfig,
    SeedSpec,
    State,
    WalkerStreams,
    as_seed,
    pass_message,
)


class TestConfigs:
    def test_discrete_accepts_valid(self):
        cfg = DiscreteConfig(11, 0.1)
        assert cfg.n_walkers == 2

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            (dict(n_sites=4, flip_prob=0.1), "must be odd"),
            (dict(n_sites=1, flip_prob=0.1), "at least 3 sites"),
            (dict(n_sites=5, flip_prob=0.0), "flip probability must lie in"),
            (dict(n_sites=5, flip_prob=1.0), "flip probability must lie in"),
            (dict(n_sites=5, flip_prob=0.1, n_walkers=1), "at least 2 walkers"),
            (dict(n_sites=5, flip_prob=0.1, n_walkers=MAX_WALKERS + 1),
             f"at most {MAX_WALKERS} walkers"),
            (dict(n_sites=2**62 + 1, flip_prob=0.1), r"below 2\*\*62"),
        ],
        # each id names the cause its row tells apart by message
        ids=["kwargs0-EvenN", "kwargs1-NOutOfRange", "kwargs2-EpsilonOutOfRange",
             "kwargs3-EpsilonOutOfRange", "kwargs4-MTooSmall", "kwargs5-RelayError",
             "kwargs6-NOutOfRange"],
    )
    def test_discrete_rejects(self, kwargs, match):
        with pytest.raises(errors.RelayError, match=match):
            DiscreteConfig(**kwargs)

    def test_discrete_rejects_non_integer_sites(self):
        with pytest.raises(errors.RelayError):
            DiscreteConfig(5.5, 0.1)

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            (dict(circumference=0.0), "circumference must be > 0"),
            (dict(circumference=1.0, speed=0.0), "speed must be > 0"),
            (dict(circumference=1.0, switch_rate=-1.0), "switch rate must be > 0"),
            (dict(circumference=1.0, n_walkers=0), "at least 2 walkers"),
            (dict(circumference=1.0, n_walkers=10**12), "at most"),
        ],
        ids=["kwargs0-NOutOfRange", "kwargs1-SpeedOutOfRange", "kwargs2-RateOutOfRange",
             "kwargs3-MTooSmall", "kwargs4-RelayError"],
    )
    def test_continuous_rejects(self, kwargs, match):
        with pytest.raises(errors.RelayError, match=match):
            ContinuousConfig(**kwargs)

    def test_continuous_accepts_valid(self):
        cfg = ContinuousConfig(2.0, 1.0, 1.0, 3)
        assert cfg.n_walkers == 3

    @pytest.mark.parametrize(
        "make,match",
        [
            (lambda: DiscreteConfig(5, 0.3, 2.5), "walker count must be an integer"),
            (lambda: ContinuousConfig(2.0, 1.0, 1.0, 2.5),
             "walker count must be an integer"),
            (lambda: DiscreteConfig(5, 0.3, True), "walker count must be an integer"),
            (lambda: ContinuousConfig("2"), "circumference must be a number"),
            (lambda: ContinuousConfig(True), "circumference must be a number"),
            (lambda: ContinuousConfig(1.0, speed=False), "speed must be a number"),
            (lambda: ContinuousConfig(1.0, switch_rate="1"),
             "switch rate must be a number"),
            (lambda: DiscreteConfig(5, "0.3"), "flip probability must be a number"),
            (lambda: DiscreteConfig(5, True), "flip probability must be a number"),
            (lambda: DiscreteConfig(True, 0.3), "site count must be an integer, got True"),
            # ints past the float range raised OverflowError where first used
            (lambda: ContinuousConfig(10**400), "circumference must be > 0 and finite"),
            (lambda: ContinuousConfig(2.0, speed=10**400), "speed must be > 0 and finite"),
            (lambda: ContinuousConfig(2.0, 1.0, 10**400),
             "switch rate must be > 0 and finite"),
        ],
        ids=["lattice-float-m", "continuum-float-m", "bool-m", "str-circumference",
             "bool-circumference", "bool-speed", "str-rate", "str-epsilon",
             "bool-epsilon", "bool-N", "huge-int-circumference", "huge-int-speed",
             "huge-int-rate"],
    )
    def test_rejects_wrong_types_at_construction(self, make, match):
        with pytest.raises(errors.RelayError, match=match):
            make()

    def test_accepts_numpy_numbers(self):
        cfg = DiscreteConfig(np.int64(5), np.float64(0.3), np.int32(3))
        assert cfg.n_walkers == 3
        cfg = ContinuousConfig(np.float32(2.0), np.int64(1), 1.0, np.int64(2))
        assert cfg.speed == 1

    def test_holds_checked_values_as_python_numbers(self):
        cfg = DiscreteConfig(np.int64(5), np.float32(0.25))
        assert (type(cfg.n_sites), type(cfg.flip_prob)) == (int, float)
        assert (cfg.n_sites, cfg.flip_prob) == (5, 0.25)
        cfg = ContinuousConfig(2, np.int64(3), np.float32(0.5))
        assert [type(x) for x in (cfg.circumference, cfg.speed, cfg.switch_rate)] == [
            float] * 3
        assert (cfg.circumference, cfg.speed, cfg.switch_rate) == (2.0, 3.0, 0.5)

    @pytest.mark.parametrize("eps", [5e-324, 1e-312, np.nextafter(sys.float_info.min, 0)])
    def test_rejects_subnormal_flip_prob(self, eps):
        # a subnormal flip probability has fewer than 53 significant bits
        with pytest.raises(errors.RelayError,
                           match=f"at least {re.escape(repr(sys.float_info.min))}"):
            DiscreteConfig(5, eps)

    def test_smallest_normal_flip_prob_accepted(self):
        assert DiscreteConfig(5, sys.float_info.min).flip_prob == sys.float_info.min


def scaling_limit_at(n_sites, flip_prob):
    """closed_form.scaling_limit_error on the continuum whose lattice has
    flip probability flip_prob at n_sites = 5 (speed and circumference 1,
    switch rate 10 flip_prob); at any other n_sites, at switch rate 1."""
    if n_sites != 5:
        return closed_form.scaling_limit_error(n_sites, 1.0, 1.0)
    return closed_form.scaling_limit_error(5, 10 * flip_prob, 1.0)


# the lattice entry points that take (N, eps) and check them with DiscreteConfig
LATTICE_ENTRIES = {
    "speed": closed_form.speed_discrete,
    "cost": closed_form.cost_discrete,
    "direction": closed_form.direction_prob_discrete,
    "chain": exact.build_reduced_chain,
    "metrics": exact.exact_metrics,
    "bvp": exact.solve_trace_bvp,
    "oracle": exact.hitting_prob_oracle,
    "scaling": scaling_limit_at,
}
BAD_SITES = [True, 4, 2**62, "a"]
BAD_FLIP_PROBS = [0.0, 1.0, 5e-324, "0.3", float("nan"), "x"]
# the scaling limit's flip probability is derived from positive finite
# continuum numbers, so only these of the bad ones arise there
SCALING_FLIP_PROBS = [1.0, 5e-324]
BAD_PAIRS = [(n, 0.3) for n in BAD_SITES] + [(5, eps) for eps in BAD_FLIP_PROBS]


@pytest.mark.parametrize(
    "entry,n_sites,flip_prob",
    [pytest.param(entry, n, eps, id=f"{entry}-N={n!r}-eps={eps!r}")
     for entry in LATTICE_ENTRIES for n, eps in BAD_PAIRS
     if not (entry == "scaling" and n == 5 and eps not in SCALING_FLIP_PROBS)])
def test_lattice_entry_points_check_with_the_config(entry, n_sites, flip_prob):
    with pytest.raises(errors.RelayError) as want:
        DiscreteConfig(n_sites, flip_prob)
    with pytest.raises(errors.RelayError) as got:
        LATTICE_ENTRIES[entry](n_sites, flip_prob)
    assert str(got.value) == str(want.value)


def lattice_candidates(positions, directions, carrier):
    """The lattice engine's candidate rule before oracles.resolve_handoff."""
    if directions[carrier] != -1:
        return np.zeros(0, dtype=np.int64)
    return np.nonzero((positions == positions[carrier]) & (directions == 1))[0]


def continuum_candidates(positions, directions, carrier, circumference, tol):
    """The continuum engine's candidate rule before oracles.resolve_handoff."""
    if directions[carrier] != -1:
        return np.zeros(0, dtype=np.int64)
    gaps = (positions - positions[carrier]) % circumference
    dist = np.minimum(gaps, circumference - gaps)
    return np.nonzero((dist <= tol) & (directions == 1))[0]


def same_aux(a: WalkerStreams, b: WalkerStreams) -> bool:
    return a.aux.bit_generator.state == b.aux.bit_generator.state


class TestRelayRule:
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 8, 20])
    @pytest.mark.parametrize("window", [0.0, 0.25])
    def test_pass_message_matches_the_loop(self, m, window):
        rng = np.random.default_rng(m)
        pj, pk = np.triu_indices(m, 1)
        mixed = supplied = 0
        for case in range(100):
            if case < 60:
                size = int(rng.integers(0, 120))
                # whole times repeat (exact ties); offsets of 0.1 fall inside
                # a window of 0.25 and offsets of 0.6 outside it
                when = np.sort(rng.integers(0, size // 3 + 1, size)
                               + rng.choice([0.0, 0.1, 0.6], size))
            else:
                # dense ties, 300 meetings on 60 whole times: within one
                # call, deciding meetings with one candidate (no draw) and
                # with several (a draw from aux) alternate
                size = 300
                when = np.sort(rng.integers(0, 60, size)).astype(float)
            pair = rng.integers(0, len(pj), size)
            up = rng.random(size) < 0.5
            cw = np.where(up, pk[pair], pj[pair])
            ccw = np.where(up, pj[pair], pk[pair])
            car = int(rng.integers(m))
            a, b = (WalkerStreams(SeedSpec(case, m), m) for _ in range(2))
            expected, source = loop_pass_message(car, when, cw, ccw, window, a)
            hit, after, given = pass_message(car, when, cw, ccw, window, b)
            # the carrier after each meeting is the one after its last
            # deciding meeting
            held = np.concatenate(([car], after))
            now = np.searchsorted(hit, np.arange(size), side="right")
            np.testing.assert_array_equal(held[now], expected)
            assert np.all(held[1:] != held[:-1]) or m == 2
            # each handoff's supplying meeting is the loop's: one of the
            # old carrier's meetings within window, with the new carrier
            jumped = held[1:] != held[:-1]
            np.testing.assert_array_equal(given[jumped], source[hit[jumped]])
            assert np.all(ccw[given[jumped]] == held[:-1][jumped])
            assert np.all(cw[given] == after)
            assert np.all((given >= hit) & (when[given] - when[hit] <= window))
            supplied += int(np.sum(given != hit))
            assert same_aux(a, b)
            # the candidates of each deciding meeting
            same = ((np.arange(size) >= hit[:, None]) & (ccw == ccw[hit, None])
                    & (when - when[hit, None] <= window))
            cands = [len(set(cw[row])) for row in same]
            mixed += case >= 60 and min(cands) == 1 and max(cands) > 1
        # in at least half of the 40 dense calls
        assert mixed >= 20 or m == 2
        # and some tie-breaks pick a walker the deciding meeting did not bring
        assert supplied > 0 or m == 2

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_resolve_handoff_matches_the_lattice_rule(self, m):
        rng = np.random.default_rng(10 + m)
        n = 5
        for case in range(300):
            positions = rng.integers(0, n, m)
            directions = rng.choice([-1, 1], m)
            carrier = int(rng.integers(m))
            a, b = (WalkerStreams(SeedSpec(case, m), m) for _ in range(2))
            cands = lattice_candidates(positions, directions, carrier)
            expected = int(cands[a.choose(len(cands))]) if len(cands) else carrier
            got = resolve_handoff(positions, directions, carrier, n, b)
            assert got == (expected, len(cands) > 0)
            assert same_aux(a, b)

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_resolve_handoff_matches_the_continuum_rule(self, m):
        rng = np.random.default_rng(20 + m)
        n, tol = 2.5, 1e-9
        for case in range(300):
            # walkers on three points, each moved by less than tol or by
            # more, across 0 as well
            points = rng.choice([0.0, 1.0, n - 1e-10], m)
            moves = rng.choice([0.0, 0.4 * tol, -0.4 * tol, 3 * tol], m)
            positions = (points + moves) % n
            directions = rng.choice([-1, 1], m)
            carrier = int(rng.integers(m))
            a, b = (WalkerStreams(SeedSpec(case, m), m) for _ in range(2))
            cands = continuum_candidates(positions, directions, carrier, n, tol)
            expected = int(cands[a.choose(len(cands))]) if len(cands) else carrier
            got = resolve_handoff(positions, directions, carrier, n, b, tol)
            assert got == (expected, len(cands) > 0)
            assert same_aux(a, b)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    @pytest.mark.parametrize("kind", ["discrete", "continuous"])
    def test_start_resolves_as_resolve_handoff(self, kind, m):
        # explicit starts with the carrier moving counter-clockwise and
        # 0 .. m-1 clockwise movers within tol of it: the start rule,
        # through pass_message, hands over as the instant rule does, with
        # the same draws, and tells a contact as in_contact does
        rng = np.random.default_rng(40 + m)
        if kind == "discrete":
            cfg, start = DiscreteConfig(5, 0.3, m), discrete._start
            size, tol = 5, 0
            offsets = [0]  # on the lattice, within tol is on one site
        else:
            cfg, start = ContinuousConfig(2.5, n_walkers=m), continuous._start
            size, tol = 2.5, continuous.default_tol(cfg)
            offsets = [0.0, 0.4 * tol, -0.4 * tol]
        counts = set()
        for case in range(200):
            carrier = int(rng.integers(m))
            point = rng.choice([0, 1, size - 1]) if kind == "discrete" else rng.choice(
                [0.0, 1.0, size - 1e-13])
            k = int(rng.integers(m))  # clockwise movers within tol
            others = rng.permutation([w for w in range(m) if w != carrier])
            directions = rng.choice([-1, 1], m)
            directions[carrier] = -1
            directions[others[:k]] = 1
            near = rng.random(m) < 0.5  # the rest, within tol moving ccw or away
            positions = np.array([
                (point + rng.choice(offsets)) % size
                if w == carrier or w in others[:k] or (near[w] and directions[w] == -1)
                else (point + size / 2 + rng.choice(offsets)) % size
                for w in range(m)])
            if kind == "discrete":
                positions = positions.astype(np.int64)
            state = State(positions, directions, carrier)
            a, b = (WalkerStreams(SeedSpec(case, m), m) for _ in range(2))
            expected, jumped = resolve_handoff(positions, directions, carrier, size, a,
                                               tol)
            got, contact = start(cfg, b, state)
            assert got.carrier == expected and jumped == (k > 0)
            assert contact == in_contact(got, size, tol)
            assert a.aux.random() == b.aux.random()
            counts.add(k)
        assert counts == set(range(m))


def check_state(state, m, size):
    """An explicit start on a circle of the given size through the run
    check, which checks it."""
    continuous.check_run(ContinuousConfig(size, n_walkers=m), 10.0, state)


class TestCheckState:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5, 5.0])
    def test_position_outside_ring_rejected(self, bad):
        state = State(np.array([0.0, bad]), np.array([1, -1]), 0)
        with pytest.raises(errors.RelayError, match="positions must lie in"):
            check_state(state, 2, 5.0)

    def test_valid_state_accepted(self):
        check_state(State(np.array([0.0, 4.5]), np.array([1, -1]), 1), 2, 5.0)

    @pytest.mark.parametrize("kind", ["discrete", "continuous"])
    @pytest.mark.parametrize(
        "state,match",
        [
            (State(np.array([0, 3]), np.array([1, -1]), 1.5), "carrier must be an integer"),
            (State(np.array([0, 3]), np.array([1, -1]), np.float64(1.0)),
             "carrier must be an integer"),
            (State(np.array([0, 3]), np.array([1, -1]), True), "carrier must be an integer"),
            (State(np.array(["0", "3"]), np.array([1, -1]), 0), "positions must lie in"),
            # True == 1, so bool directions passed the +1 / -1 check and ran
            (State(np.array([0, 2]), np.array([True, True]), 0),
             r"directions must be \+1 or -1"),
        ],
        ids=["float-carrier", "numpy-float-carrier", "bool-carrier", "str-positions",
             "bool-directions"],
    )
    def test_explicit_start_checked_on_both_models(self, kind, state, match):
        # each reached an IndexError, a TypeError or ran as carrier 1
        config = DiscreteConfig(5, 0.3) if kind == "discrete" else ContinuousConfig(5.0)
        module = discrete if kind == "discrete" else continuous
        with pytest.raises(errors.RelayError, match=match):
            module.check_run(config, 100 if kind == "discrete" else 100.0, state)

    @pytest.mark.parametrize("positions", [[0.5, 1.0], [2.0, 4.999]])
    def test_lattice_start_needs_whole_sites(self, positions):
        # the engine's int64 sites would truncate these silently
        state = State(np.array(positions), np.array([1, -1]), 0)
        with pytest.raises(errors.RelayError, match="whole sites"):
            discrete.simulate_discrete(DiscreteConfig(5, 0.3), 10, 0, state)

    def test_lattice_start_takes_whole_floats(self):
        state = State(np.array([2.0, 4.0]), np.array([1, -1]), 0)
        want = discrete.simulate_discrete(
            DiscreteConfig(5, 0.3), 100, 0, State(np.array([2, 4]), state.directions, 0))
        got = discrete.simulate_discrete(DiscreteConfig(5, 0.3), 100, 0, state)
        assert got.displacement_sum == want.displacement_sum
        assert got.jump_count == want.jump_count


class TestCircleDelta:
    def test_basic(self):
        assert circle_delta(0.0, 0.25, 1.0) == 0.25
        assert circle_delta(0.75, 0.25, 1.0) == 0.5
        assert circle_delta(0.25, 0.0, 1.0) == 0.75

    @given(
        x=st.floats(min_value=0, max_value=10, exclude_max=True),
        y=st.floats(min_value=0, max_value=10, exclude_max=True),
    )
    def test_range_and_additivity(self, x, y):
        d = circle_delta(x, y, 10.0)
        assert 0 <= d < 10.0
        back = circle_delta(y, x, 10.0)
        total = d + back
        assert total == pytest.approx(0.0, abs=1e-9) or total == pytest.approx(
            10.0, abs=1e-9
        )

    def test_float_edge_never_returns_circumference(self):
        # (x - tiny) mod x can round up to x itself in float arithmetic
        eps = 1e-18
        d = circle_delta(eps, 0.0, 1.0)
        assert 0 <= d < 1.0


class TestSeeding:
    def test_replicas_and_walkers_independent(self):
        a = WalkerStreams(SeedSpec(1, 0), 2)
        b = WalkerStreams(SeedSpec(1, 1), 2)
        assert a.walker[0].random(4).tolist() != b.walker[0].random(4).tolist()
        assert a.walker[0].random(4).tolist() != a.walker[1].random(4).tolist()

    def test_same_seed_reproduces(self):
        a = WalkerStreams(SeedSpec(7, 3), 2)
        b = WalkerStreams(SeedSpec(7, 3), 2)
        assert a.aux.random(8).tolist() == b.aux.random(8).tolist()
        assert a.walker[1].random(8).tolist() == b.walker[1].random(8).tolist()

    def test_block_draws_equal_scalar_draws(self):
        # the vectorised engines rely on this PCG64 property
        a = WalkerStreams(SeedSpec(5, 0), 2)
        b = WalkerStreams(SeedSpec(5, 0), 2)
        block = a.walker[0].random(100)
        scalars = [b.walker[0].random() for _ in range(100)]
        np.testing.assert_array_equal(block, scalars)

    def test_choose_draws_nothing_for_single_candidate(self):
        a = WalkerStreams(SeedSpec(9, 0), 2)
        b = WalkerStreams(SeedSpec(9, 0), 2)
        assert a.choose(1) == 0
        # a's aux stream must be untouched by the trivial choice
        assert a.aux.random() == b.aux.random()

    def test_as_seed_accepts_int_and_spec(self):
        assert as_seed(12).master == 12
        spec = SeedSpec(3, 4)
        assert as_seed(spec) is spec

    def test_numpy_integer_seeds_become_ints(self):
        spec = SeedSpec(np.int64(3), np.uint8(4))
        assert (spec.master, spec.replica) == (3, 4)
        assert type(spec.master) is int and type(as_seed(np.int32(5)).master) is int

    @pytest.mark.parametrize(
        "make",
        [lambda: as_seed(-1), lambda: as_seed("a"), lambda: as_seed(1.5),
         lambda: as_seed(True), lambda: SeedSpec(1, -1), lambda: SeedSpec(1, 0.5)],
        ids=["negative", "str", "float", "bool", "negative-replica", "float-replica"],
    )
    def test_seed_checked_on_construction(self, make):
        with pytest.raises(errors.RelayError, match="seed .* must be an integer >= 0"):
            make()

    def test_child_indices_distinct(self):
        spec = SeedSpec(11, 2)
        g0 = np.random.Generator(np.random.PCG64(spec.child(0)))
        g1 = np.random.Generator(np.random.PCG64(spec.child(1)))
        assert g0.random(4).tolist() != g1.random(4).tolist()


class TestRunArguments:
    @pytest.mark.parametrize(
        "run,match",
        [
            (lambda: discrete.simulate_discrete(DiscreteConfig(5, 0.3), True, 0),
             "steps must be an integer"),
            (lambda: continuous.simulate_continuous(ContinuousConfig(1.0), "10", 0),
             "horizon must be"),
            (lambda: continuous.simulate_continuous(ContinuousConfig(1.0), True, 0),
             "horizon must be"),
            (lambda: continuous.check_run(ContinuousConfig(2.0), 10**400),
             "horizon must be finite and > 0"),
            (lambda: discrete.check_run(DiscreteConfig(5, 0.3), 0),
             "steps must be an integer >= 1, got 0"),
            (lambda: discrete.check_run(DiscreteConfig(5, 0.3, 4), 2**51),
             r"2251799813685248 steps of 4 walkers are at least 2\*\*53 walker-rounds"),
            # the int raised OverflowError at end / trace_every
            (lambda: continuous.simulate_continuous(ContinuousConfig(2.0), 100.0, 0,
                                                    trace_every=10**400),
             r"trace_every must be 0 \(off\) or a finite number > 0"),
        ],
        ids=["bool-steps", "str-horizon", "bool-horizon", "huge-int-horizon",
             "zero-steps", "walker-rounds-past-2**53", "huge-int-trace-spacing"],
    )
    def test_run_arguments_checked(self, run, match):
        with pytest.raises(errors.RelayError, match=match):
            run()

    @pytest.mark.parametrize(
        "reals,horizon",
        [((2, 1, 10**200), 10**200), ((10**300, 10**300, 1), 10**10)],
        ids=["switches-past-2**53", "travel-past-the-float-range"],
    )
    def test_int_run_is_checked_as_the_equal_float(self, reals, horizon):
        # each raised OverflowError in int arithmetic: formatting the switch
        # count, and speed * horizon / N_BATCHES
        messages = []
        for kind in (int, float):
            with pytest.raises(errors.RelayError) as refused:
                continuous.check_run(ContinuousConfig(*map(kind, reals)), kind(horizon))
            messages.append(str(refused.value))
        assert messages[0] == messages[1]
