"""Lattice simulator: single-round semantics and the vectorised engine.

The one-round step() of tests/oracles.py is simple enough to eyeball;
the block engine used by simulate_discrete for any number of walkers is
not, so the central test here replays the same seed through both and
demands the identical trajectory, round by round.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import OracleState, in_contact, resolve_handoff, step
from ringrelay import discrete, errors, estimators, model
from ringrelay.model import DiscreteConfig, SeedSpec, WalkerStreams

TINY = 1e-12  # flip probability small enough to make rounds deterministic


def run_reference_loop(config, steps, seed, initial):
    """Per-round states via step(): positions, directions, carrier and
    whether the message just changed hands, row t after t rounds (row 0
    is the start, its handoff resolved uncounted as simulate_discrete
    does), plus the rounds in the regeneration set."""
    streams = WalkerStreams(SeedSpec(*seed), config.n_walkers)
    state = OracleState.of(initial)
    state.carrier, _ = resolve_handoff(
        state.positions, state.directions, state.carrier, config.n_sites, streams
    )
    rows = [(state.positions, state.directions, state.carrier, False)]
    for _ in range(steps):
        state, jumped = step(state, config, streams)
        rows.append((state.positions, state.directions, state.carrier, jumped))
    visits = [
        t for t, (x, d, c, _) in enumerate(rows)
        if in_contact(model.State(x, d, c), config.n_sites)
    ]
    positions, directions, carriers, jumps = map(np.array, zip(*rows))
    return positions, directions, carriers, jumps, visits


class TestStep:
    def test_plain_move(self):
        cfg = DiscreteConfig(5, TINY)
        state = OracleState(np.array([1, 3]), np.array([-1, 1]), 0)
        out, jumped = step(state, cfg, WalkerStreams(SeedSpec(0, 0), 2))
        assert out.positions.tolist() == [0, 4]
        assert not jumped
        assert out.carrier == 0
        assert out.clock == 1

    def test_positions_wrap(self):
        cfg = DiscreteConfig(5, TINY)
        state = OracleState(np.array([4, 0]), np.array([1, -1]), 1)
        out, _ = step(state, cfg, WalkerStreams(SeedSpec(0, 0), 2))
        assert out.positions.tolist() == [0, 4]

    def test_handoff_on_contact(self):
        # walkers collide head-on; the counter-clockwise carrier hands off
        cfg = DiscreteConfig(5, TINY)
        state = OracleState(np.array([1, 4]), np.array([-1, 1]), 0)
        out, jumped = step(state, cfg, WalkerStreams(SeedSpec(0, 0), 2))
        assert out.positions.tolist() == [0, 0]
        assert jumped and out.carrier == 1

    def test_no_handoff_when_carrier_clockwise(self):
        cfg = DiscreteConfig(5, TINY)
        state = OracleState(np.array([1, 4]), np.array([-1, 1]), 1)
        out, jumped = step(state, cfg, WalkerStreams(SeedSpec(0, 0), 2))
        assert not jumped and out.carrier == 1

    def test_crossing_without_meeting_keeps_message(self):
        # adjacent walkers swap sites without ever sharing one
        cfg = DiscreteConfig(5, TINY)
        state = OracleState(np.array([1, 2]), np.array([1, -1]), 1)
        out, jumped = step(state, cfg, WalkerStreams(SeedSpec(0, 0), 2))
        assert out.positions.tolist() == [2, 1]
        assert not jumped

    def test_handoff_tie_break_is_random_and_uniform(self):
        cfg = DiscreteConfig(5, TINY, n_walkers=3)
        picks = []
        for rep in range(200):
            state = OracleState(
                np.array([1, 4, 4]), np.array([-1, 1, 1]), 0
            )
            out, jumped = step(
                state, cfg, WalkerStreams(SeedSpec(17, rep), 3)
            )
            assert jumped
            picks.append(out.carrier)
        counts = np.bincount(picks, minlength=3)
        assert counts[0] == 0
        assert counts[1] > 60 and counts[2] > 60  # both chosen often

    @given(
        n=st.sampled_from([3, 5, 7]),
        eps=st.floats(min_value=0.05, max_value=0.95),
        seed=st.integers(min_value=0, max_value=2**32),
        m=st.integers(min_value=2, max_value=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_step_preserves_invariants(self, n, eps, seed, m):
        cfg = DiscreteConfig(n, eps, m)
        streams = WalkerStreams(SeedSpec(seed, 0), m)
        state = OracleState(
            streams.aux.integers(0, n, size=m),
            1 - 2 * streams.aux.integers(0, 2, size=m),
            int(streams.aux.integers(m)),
        )
        for _ in range(60):
            prev_carrier = state.carrier
            state, jumped = step(state, cfg, streams)
            assert np.all((0 <= state.positions) & (state.positions < n))
            assert np.all(np.isin(state.directions, (1, -1)))
            if jumped:
                assert state.carrier != prev_carrier
                assert (
                    state.positions[state.carrier]
                    == state.positions[prev_carrier]
                )
                assert state.directions[state.carrier] == 1


class TestRegenerationLaw:
    def test_sample_nu_properties(self):
        cfg = DiscreteConfig(7, 0.3)
        variants = set()
        sites = set()
        for rep in range(300):
            streams = WalkerStreams(SeedSpec(23, rep), 2)
            state, contact = discrete._start(cfg, streams, "regeneration")
            assert contact and in_contact(state, cfg.n_sites)
            assert state.positions[0] == state.positions[1]
            assert state.directions[state.carrier] == 1
            variants.add(state.carrier)
            sites.add(int(state.positions[0]))
        assert variants == {0, 1}
        assert sites == set(range(7))

    def test_regeneration_set_membership(self):
        cfg = DiscreteConfig(5, 0.3)
        yes = model.State(np.array([2, 2]), np.array([1, -1]), 0)
        no_dir = model.State(np.array([2, 2]), np.array([1, 1]), 0)
        no_pos = model.State(np.array([2, 3]), np.array([1, -1]), 0)
        assert in_contact(yes, cfg.n_sites)
        assert not in_contact(no_dir, cfg.n_sites)
        assert not in_contact(no_pos, cfg.n_sites)

    def test_sample_nu_needs_two_walkers(self):
        with pytest.raises(errors.RelayError, match="defined for 2 walkers"):
            discrete.check_run(DiscreteConfig(5, 0.3, 3), 100, "regeneration")


# a head-on contact in round 1, the first row of a block of any size
BLOCK_START_CONTACT = ((17, 0), (5, [0, 2], [1, -1], 0))
# both walkers cross the wrap at once, so every contact has x1 - x0 < 0
NEGATIVE_LEVEL = ((20, 0), (5, [4, 0], [1, -1], 0))
# the largest ring, walkers two sites apart across the wrap and heading
# for each other: an even gap closes, so they meet from round 1 on and
# hand the message over at unwrapped sites near 2**62
HUGE = 2**62 - 1
WRAP_HANDOFFS = [
    ((10, 0), (HUGE, [1, HUGE - 1], [-1, 1], 0)),
    ((11, 0), (HUGE, [1, HUGE - 1, HUGE - 1], [-1, 1, -1], 0)),
]


class TestEngineAgainstStepLoop:
    @pytest.mark.parametrize(
        "seed,init",  # init: N, positions, directions, carrier
        [
            ((42, 0), (5, [0, 2], [1, -1], 0)),
            ((7, 1), (5, [4, 4], [1, -1], 0)),  # regeneration start
            ((7, 2), (5, [1, 3], [-1, -1], 1)),
            ((1234, 5), (5, [2, 0], [-1, 1], 1)),
            # more walkers; six on three sites often give a handoff
            # several candidates, so tie-break draws occur
            ((3, 0), (3, [0, 0, 1, 1, 2, 2], [1, -1, 1, -1, 1, -1], 1)),
            ((5, 1), (5, [0, 2, 4], [1, 1, -1], 2)),
            ((8, 3), (5, [1, 1, 3, 4], [1, -1, -1, 1], 0)),
            ((6, 2), (7, [0, 3, 3, 5], [-1, 1, -1, 1], 2)),
            BLOCK_START_CONTACT,
            NEGATIVE_LEVEL,
            # the largest ring, walkers one site apart across the wrap: an
            # odd gap never closes, so no two of them meet
            ((10, 0), (HUGE, [0, HUGE - 1], [-1, 1], 0)),
            ((11, 0), (HUGE, [0, HUGE - 1, HUGE - 1], [-1, 1, -1], 0)),
            *WRAP_HANDOFFS,
        ],
    )
    def test_trajectory_equality(self, seed, init, monkeypatch, later_supplies,
                                 cycle_arrays):
        n, positions, directions, carrier = init
        cfg = DiscreteConfig(n, 0.3, len(positions))
        steps = 1500
        initial = model.State(
            np.array(positions), np.array(directions), carrier
        )
        pos, dirs, car, jumped, visits = run_reference_loop(
            cfg, steps, seed, initial
        )
        # round t moves the message by the carrier's direction in state t;
        # running totals over the rounds before t, handoffs up to state t
        cdir = dirs[np.arange(steps + 1), car]
        disp = np.concatenate(([0], np.cumsum(cdir)))
        cw = np.concatenate(([0], np.cumsum(cdir == 1)))
        hops = np.cumsum(jumped)
        ts = np.arange(1, steps + 1)

        # the engine in its own blocks, then in blocks of 17, 7 and 1 rounds
        m = cfg.n_walkers
        for walker_rounds in (discrete.WALKER_ROUNDS, 17 * m, 7 * m, 1):
            monkeypatch.setattr(discrete, "WALKER_ROUNDS", walker_rounds)
            report = discrete.simulate_discrete(
                cfg, steps, SeedSpec(*seed), initial, trace_every=1
            )
            burn = int(report.burn_in)
            edges = burn + int(report.batch_duration) * np.arange(51)

            assert report.displacement_sum == disp[steps] - disp[burn]
            assert report.clockwise_time == cw[steps] - cw[burn]
            assert report.jump_count == hops[steps] - hops[burn]
            np.testing.assert_array_equal(report.batch_displacement, np.diff(disp[edges]))
            np.testing.assert_array_equal(report.batch_clockwise, np.diff(cw[edges]))
            np.testing.assert_array_equal(report.batch_jumps, np.diff(hops[edges]))
            np.testing.assert_array_equal(report.trace_speed, disp[ts] / ts)
            np.testing.assert_array_equal(report.trace_cost, hops[ts] / ts)

            if cfg.n_walkers > 2:
                assert report.cycles is None
                # a tie-break hands the message to a walker that the
                # deciding meeting did not bring, save on the huge ring,
                # where walkers meet too seldom in these rounds
                assert later_supplies() > 0 or n > steps
                continue
            # regeneration cycle boundaries
            vs = [t for t in visits if t >= burn]
            np.testing.assert_array_equal(cycle_arrays(report).cycle_lengths,
                                          np.diff(vs))
            # carrier never changes strictly inside a cycle: handoffs land
            # exactly on regeneration visits
            assert set(np.flatnonzero(jumped)) <= set(visits)

    def test_edge_cases_cover_what_they_name(self):
        def reference(case):
            seed, (n, positions, directions, carrier) = case
            initial = model.State(
                np.array(positions), np.array(directions), carrier
            )
            config = DiscreteConfig(n, 0.3, len(positions))
            return run_reference_loop(config, 1500, seed, initial)

        *_, visits = reference(BLOCK_START_CONTACT)
        assert visits[0] == 1  # the first row of the first block

        _, (n, positions, _, _) = NEGATIVE_LEVEL
        _, dirs, _, _, visits = reference(NEGATIVE_LEVEL)
        # unwrapped positions: each round moves by the directions before it
        x = positions + np.vstack(([0, 0], np.cumsum(dirs[:-1], axis=0)))
        levels = (x[visits, 1] - x[visits, 0]) // n
        assert len(levels) > 100 and np.all(levels < 0)

        for case in WRAP_HANDOFFS:
            pos, _, _, jumped, _ = reference(case)
            assert np.all(pos[1, :2] == 0)  # the meeting in round 1
            assert jumped.sum() > 0

    def test_cycle_displacements_are_zero_or_full_laps(self, cycle_arrays):
        cfg = DiscreteConfig(5, 0.3)
        report = discrete.simulate_discrete(
            cfg, 60_000, SeedSpec(99, 0), "regeneration"
        )
        kept = cycle_arrays(report)
        disp = kept.cycle_displacements
        lap = report.lap_length
        assert lap == 10
        assert np.all((disp == 0) | (disp == lap))

        # wrap fraction must match the crossing probability, and on the
        # non-wrapping excursions the final flip hands the message over
        # with probability 1 - eps
        n_cyc = len(disp)
        wrap = (disp == lap).mean()
        a = 0.7 / 1.9  # (1-eps)/(1+3 eps) at N=5, eps=0.3
        assert abs(wrap - a) <= 3 * np.sqrt(a * (1 - a) / n_cyc)
        jumped = kept.cycle_jumps
        on_zero = jumped[disp == 0]
        se = np.sqrt(0.7 * 0.3 / len(on_zero))
        assert abs(on_zero.mean() - 0.7) <= 3 * se

    def test_three_walker_engine_runs(self):
        cfg = DiscreteConfig(7, 0.2, n_walkers=3)
        report = discrete.simulate_discrete(cfg, 3000, SeedSpec(5, 0))
        assert report.total_time == 3000 - report.burn_in
        assert report.cycles is None
        s = estimators.speed_estimate(report)
        assert -1 <= s.point <= 1

    def test_relabeled_start_converges_to_same_speed(self):
        cfg = DiscreteConfig(5, 0.3)
        a = model.State(np.array([1, 3]), np.array([1, -1]), 0)
        b = model.State(np.array([3, 1]), np.array([-1, 1]), 1)
        ra = discrete.simulate_discrete(cfg, 200_000, SeedSpec(3, 0), a)
        rb = discrete.simulate_discrete(cfg, 200_000, SeedSpec(3, 1), b)
        ea = estimators.speed_estimate(ra)
        eb = estimators.speed_estimate(rb)
        assert abs(ea.point - eb.point) <= 3 * np.hypot(ea.stderr, eb.stderr)

    def test_deterministic_given_seed(self):
        cfg = DiscreteConfig(11, 0.1)
        r1 = discrete.simulate_discrete(cfg, 5000, SeedSpec(8, 0))
        r2 = discrete.simulate_discrete(cfg, 5000, SeedSpec(8, 0))
        assert r1.displacement_sum == r2.displacement_sum
        assert r1.jump_count == r2.jump_count
        np.testing.assert_array_equal(r1.batch_displacement, r2.batch_displacement)

    def test_uniform_random_initial_resolves_contact(self):
        # a uniform draw may land on a co-located pair with the message
        # on the counter-clockwise mover; the engine must resolve that
        # handoff before counting anything
        cfg = DiscreteConfig(3, 0.4)
        for rep in range(50):
            report = discrete.simulate_discrete(
                cfg, 40, SeedSpec(1000 + rep, 0)
            )
            assert report.total_time == 40

    def test_rejects_bad_initial(self):
        cfg = DiscreteConfig(5, 0.3)
        bad = model.State(np.array([9, 0]), np.array([1, -1]), 0)
        with pytest.raises(errors.RelayError):
            discrete.simulate_discrete(cfg, 10, SeedSpec(0, 0), bad)
        with pytest.raises(errors.RelayError):
            discrete.simulate_discrete(cfg, 10, SeedSpec(0, 0), "nonsense")


    @pytest.mark.parametrize("steps", [0, 10.5, 2**52])
    def test_rejects_bad_step_count(self, steps):
        with pytest.raises(errors.RelayError):
            discrete.simulate_discrete(DiscreteConfig(5, 0.3), steps, SeedSpec(0, 0))


class TestFlips:
    @pytest.mark.parametrize(
        "eps", [1e-300, 2.0**-53, 1e-9, 0.1, 0.25, 0.3, 0.5, 1 / 3, 0.9,
                1 - 1e-9, 1 - 2.0**-53],
    )
    def test_raw_threshold_equals_uniform_threshold(self, eps):
        # the engines draw flips in blocks; step() draws them as
        # random() < eps, one at a time
        for seed in range(25):
            a = WalkerStreams(SeedSpec(seed, 4), 1).walker[0]
            b = WalkerStreams(SeedSpec(seed, 4), 1).walker[0]
            for size in (1, 1000, 4099):
                np.testing.assert_array_equal(
                    discrete._flips(a, size, eps), b.random(size) < eps
                )


class TestWalkerSampler:
    """sample_walker_states against the walker states of the step() loop
    from the same uniform-random start, at given rounds."""

    def check(self, cfg, seed, *round_sets, upto=None):
        """The sampler's rows at each set of rounds are step()'s states
        after those rounds, compared up to round upto (all by default);
        returns the start."""
        streams = WalkerStreams(seed, cfg.n_walkers)
        states = [OracleState.of(discrete._start(cfg, streams, "uniform-random")[0])]
        for _ in range(upto or max(int(r[-1]) for r in round_sets if len(r))):
            states.append(step(states[-1], cfg, streams)[0])
        for rounds in round_sets:
            pos, dirs = discrete.sample_walker_states(cfg, rounds, seed)
            assert pos.shape == dirs.shape == (len(rounds), cfg.n_walkers)
            assert pos.dtype == dirs.dtype == np.int64
            seen = np.asarray(rounds)[np.asarray(rounds) < len(states)]
            for got, field in ((pos, "positions"), (dirs, "directions")):
                want = [getattr(states[t], field) for t in seen]
                np.testing.assert_array_equal(
                    got[:len(seen)], np.reshape(want, (len(seen), cfg.n_walkers)))
        return states[0]

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    @pytest.mark.parametrize("walker_rounds", [discrete.WALKER_ROUNDS, 37])
    def test_equals_engine_samples(self, m, walker_rounds, monkeypatch):
        # small blocks make every run straddle many of them, and sample
        # rounds land on block ends (36, 37, 74) and on walker 0's flips
        monkeypatch.setattr(discrete, "WALKER_ROUNDS", walker_rounds)
        for n, eps in ((3, 0.4), (5, 0.3), (11, 0.05)):
            for seed in (SeedSpec(0, m), SeedSpec(1, m)):
                flips = 1 + np.flatnonzero(
                    discrete._flips(WalkerStreams(seed, m).walker[0], 600, eps))
                self.check(DiscreteConfig(n, eps, m), seed, np.arange(601),
                           np.arange(0, 601, 10 * n), [0, 0, 36, 37, 74, 74, 600],
                           flips, [600])

    def test_gate_setting(self):
        # the equilibrium-uniformity check's rounds at a replica whose
        # start is a contact (1006) and one whose start is not, held to
        # step() over 5000 rounds
        cfg, rounds = DiscreteConfig(5, 0.3), np.arange(2100, 205_001, 50)
        starts = [self.check(cfg, SeedSpec(20260815, 1000 + k), rounds, upto=5000)
                  for k in (0, 6)]
        assert [in_contact(s, cfg.n_sites) for s in starts] == [False, True]

    def test_no_samples(self):
        pos, dirs = discrete.sample_walker_states(
            DiscreteConfig(5, 0.3, 3), [], SeedSpec(1, 0)
        )
        assert pos.shape == dirs.shape == (0, 3)
        assert pos.dtype == dirs.dtype == np.int64

    @pytest.mark.parametrize("rounds", [
        [10.5], [1.0, 2.0], [2**52], [-1], [5, 3], [[1, 2]], [np.nan], ["7"],
        np.array([2**63], dtype=np.uint64),
    ], ids=str)
    def test_rejects_bad_rounds(self, rounds):
        # floats even when whole, 2 walkers x 2**52 rounds, negative,
        # unsorted, 2-D, nan, text, and integers that do not fit int64
        with pytest.raises(errors.RelayError):
            discrete.sample_walker_states(DiscreteConfig(5, 0.3), rounds, SeedSpec(0))


class TestTraces:
    def test_running_averages_match_definition(self):
        cfg = DiscreteConfig(5, 0.3)
        report = discrete.simulate_discrete(
            cfg, 4000, SeedSpec(21, 0), "regeneration", trace_every=100
        )
        # trace is cumulative from t=0 (burn-in is zero here)
        assert report.burn_in == 0
        ts = report.trace_times
        np.testing.assert_array_equal(ts, np.arange(100, 4001, 100))
        full = discrete.simulate_discrete(cfg, 4000, SeedSpec(21, 0), "regeneration")
        assert report.trace_speed[-1] == pytest.approx(
            full.displacement_sum / 4000
        )
        assert report.trace_cost[-1] == pytest.approx(full.jump_count / 4000)

    @pytest.mark.parametrize("spacing", ["trace_every"])
    def test_negative_spacing_rejected(self, spacing):
        with pytest.raises(errors.RelayError, match=rf"{spacing} must be 0 \(off\)"):
            discrete.simulate_discrete(
                DiscreteConfig(5, 0.3), 500, SeedSpec(0, 0), trace_every=-5)
