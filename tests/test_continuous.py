"""Continuum simulators: pure event ops, then the engine checked by them.

simulate_continuous resolves the relay over walker paths drawn in
blocks, without stepping from event to event, so the suite drives the
pure operations of tests/oracles.py (next_event / advance_to /
handle_event) as an independent reference simulator and checks the
engine against it on a shared seed, for two walkers and for more.
"""
import numpy as np
import pytest

from oracles import (
    EventSkipped,
    OracleState,
    advance_to,
    event_start,
    handle_event,
    in_contact,
    meeting_time,
    next_event,
)
from ringrelay import continuous, errors, estimators, model
from ringrelay.continuous import (
    default_tol,
    sample_walker_states,
    simulate_continuous,
)
from ringrelay.model import (
    MAX_WALKERS,
    ContinuousConfig,
    SeedSpec,
    State,
    WalkerStreams,
)

CFG1 = ContinuousConfig(1.0, 1.0, 1.0)


class TestMeetingTime:
    def test_head_on(self):
        assert meeting_time(0.25, 1, -1, CFG1) == pytest.approx(0.125)

    def test_separating_pair_meets_around_the_ring(self):
        assert meeting_time(0.25, -1, 1, CFG1) == pytest.approx(0.375)

    def test_same_direction_never_meets(self):
        assert meeting_time(0.25, 1, 1, CFG1) is None
        assert meeting_time(0.25, -1, -1, CFG1) is None

    def test_colocated_pair_needs_half_a_lap(self):
        assert meeting_time(0.0, 1, -1, CFG1) == pytest.approx(0.5)
        assert meeting_time(1.0 - 1e-15, -1, 1, CFG1) == pytest.approx(0.5)

    def test_speed_scales(self):
        cfg = ContinuousConfig(2.0, 4.0, 1.0)
        assert meeting_time(1.0, 1, -1, cfg) == pytest.approx(1.0 / 8.0)

    def test_rejects_gap_outside_ring(self):
        with pytest.raises(errors.RelayError, match="gap must lie in"):
            meeting_time(1.5, 1, -1, CFG1)


class TestEventOps:
    def make_state(self, positions, directions, carrier, switches):
        return OracleState(
            np.array(positions, dtype=float),
            np.array(directions, dtype=np.int64),
            carrier,
            clock=0.0,
            next_switch=np.array(switches, dtype=float),
        )

    def test_next_event_picks_earliest(self):
        state = self.make_state([0.0, 0.5], [1, -1], 0, [10.0, 10.0])
        ev = next_event(state, CFG1)
        assert ev.kind == "meeting" and ev.time == pytest.approx(0.25)
        state.next_switch = np.array([0.1, 10.0])
        ev = next_event(state, CFG1)
        assert ev.kind == "switch" and ev.walkers == (0,)

    def test_switch_wins_ties(self):
        state = self.make_state([0.0, 0.5], [1, -1], 0, [0.25, 10.0])
        assert next_event(state, CFG1).kind == "switch"

    def test_advance_transports_and_wraps(self):
        state = self.make_state([0.9, 0.5], [1, -1], 0, [10.0, 10.0])
        out = advance_to(state, 0.2, CFG1)
        assert out.positions[0] == pytest.approx(0.1)
        assert out.positions[1] == pytest.approx(0.3)
        assert out.clock == 0.2
        # the original state is untouched
        assert state.positions[0] == 0.9 and state.clock == 0.0

    def test_advance_refuses_to_skip_switch(self):
        state = self.make_state([0.0, 0.5], [1, -1], 0, [0.05, 10.0])
        with pytest.raises(EventSkipped):
            advance_to(state, 0.2, CFG1)

    def test_advance_refuses_backwards(self):
        state = self.make_state([0.0, 0.5], [1, -1], 0, [10.0, 10.0])
        state.clock = 1.0
        with pytest.raises(errors.RelayError):
            advance_to(state, 0.5, CFG1)

    def test_handle_switch_flips_and_reschedules(self):
        state = self.make_state([0.0, 0.5], [1, -1], 0, [0.3, 10.0])
        state = advance_to(state, 0.3, CFG1)
        ev = next_event(state, CFG1)
        assert ev.kind == "switch"
        out, jumped = handle_event(
            state, ev, CFG1, WalkerStreams(SeedSpec(0, 0), 2)
        )
        assert not jumped
        assert out.directions[0] == -1
        assert out.next_switch[0] > 0.3

    def test_handle_meeting_hands_off(self):
        # carrier moves counter-clockwise into a clockwise partner
        state = self.make_state([0.5, 0.0], [-1, 1], 0, [10.0, 10.0])
        ev = next_event(state, CFG1)
        assert ev.kind == "meeting" and ev.time == pytest.approx(0.25)
        state = advance_to(state, ev.time, CFG1)
        out, jumped = handle_event(
            state, ev, CFG1, WalkerStreams(SeedSpec(0, 0), 2)
        )
        assert jumped and out.carrier == 1
        assert out.positions[0] == out.positions[1]

    def test_handle_meeting_without_handoff(self):
        # the clockwise carrier keeps the message through a meeting
        state = self.make_state([0.5, 0.0], [-1, 1], 1, [10.0, 10.0])
        ev = next_event(state, CFG1)
        state = advance_to(state, ev.time, CFG1)
        out, jumped = handle_event(
            state, ev, CFG1, WalkerStreams(SeedSpec(0, 0), 2)
        )
        assert not jumped and out.carrier == 1

    def test_handle_rejects_stale_clock(self):
        state = self.make_state([0.5, 0.0], [-1, 1], 0, [10.0, 10.0])
        ev = next_event(state, CFG1)
        with pytest.raises(EventSkipped):
            handle_event(state, ev, CFG1, WalkerStreams(SeedSpec(0, 0), 2))

    def test_contact_sampler(self):
        carriers = set()
        for rep in range(100):
            streams = WalkerStreams(SeedSpec(3, rep), 2)
            state, contact = continuous._start(CFG1, streams, "regeneration")
            assert contact and in_contact(state, CFG1.circumference, default_tol(CFG1))
            assert state.directions[state.carrier] == 1
            carriers.add(state.carrier)
        assert carriers == {0, 1}


def reference_simulation(config, horizon, seed, initial, checkpoints=()):
    """Drive the pure ops one event at a time.

    Returns the windowed totals (displacement, handoffs, clockwise time)
    under the simulator's burn-in rule, the (length, handoff) record of
    every contact-to-contact cycle the simulator keeps, and the
    cumulative (displacement, handoffs) at each extra checkpoint.  As in
    the simulator, a checkpoint comes before an event at the same time.
    """
    streams = WalkerStreams(SeedSpec(*seed), config.n_walkers)
    state = event_start(config, streams, initial)
    in_f = in_contact(state, config.circumference, default_tol(config))
    burn = 0.0 if in_f else 0.01 * horizon
    marks = sorted({burn, horizon, *checkpoints})
    totals = {}
    disp = cw = 0.0
    jumps = 0
    last_contact = 0.0 if in_f else None
    cycles = []

    def transport(state, t):
        nonlocal disp, cw
        seg = t - state.clock
        d = state.directions[state.carrier]
        disp += config.speed * d * seg
        cw += seg if d == 1 else 0.0
        return advance_to(state, t, config)

    while marks:
        ev = next_event(state, config)
        while marks and marks[0] <= ev.time:
            state = transport(state, marks[0])
            totals[marks.pop(0)] = (disp, jumps, cw)
        if not marks:
            break
        state = transport(state, ev.time)
        state, jumped = handle_event(state, ev, config, streams)
        jumps += jumped
        if ev.kind == "meeting":
            if last_contact is not None and last_contact >= burn:
                cycles.append((ev.time - last_contact, jumped))
            last_contact = ev.time
    window = tuple(e - b for b, e in zip(totals[burn], totals[horizon]))
    return window, cycles, [totals[t][:2] for t in checkpoints]


ORACLE_CASES = {
    "regeneration": (ContinuousConfig(1.0, 1.0, 1.0), (77, 0), "regeneration"),
    "uniform-with-burn-in": (
        ContinuousConfig(1.0, 1.0, 1.0), (78, 0), "uniform-random"
    ),
    "co-located-same-direction": (
        ContinuousConfig(1.0, 1.0, 1.0), (79, 0),
        State(np.array([0.4, 0.4]), np.array([1, 1]), 0),
    ),
    "non-unit-v-and-r": (ContinuousConfig(1.7, 0.6, 2.3), (80, 0), "uniform-random"),
    # a contact state whose gap is a hair short of the full circle
    "contact-across-the-wrap": (
        ContinuousConfig(1.0, 1.0, 1.0), (81, 0),
        State(np.array([0.0, 1.0 - 1e-13]), np.array([1, -1]), 0),
    ),
    "m3-uniform": (
        ContinuousConfig(1.0, 1.0, 1.0, n_walkers=3), (82, 0), "uniform-random"
    ),
    "m5-uniform": (
        ContinuousConfig(1.0, 1.0, 1.0, n_walkers=5), (83, 0), "uniform-random"
    ),
    "m4-non-unit-v-and-r": (
        ContinuousConfig(1.7, 0.6, 2.3, n_walkers=4), (84, 0), "uniform-random"
    ),
    # the carrier meets two co-located clockwise walkers at once; at this
    # seed the tie-break draw hands the message to the second of them,
    # and the first would change the totals
    "m3-co-located-tie-break": (
        ContinuousConfig(1.0, 1.0, 1.0, n_walkers=3), (96, 0),
        State(np.array([0.4, 0.4, 0.9]), np.array([1, 1, -1]), 2),
    ),
}


class TestSimulateContinuous:
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_matches_pure_op_reference(self, case, later_supplies, cycle_arrays):
        config, seed, initial = ORACLE_CASES[case]
        horizon = 200.0
        times = 7.0 * np.arange(1, 29)  # checkpoints read along the run
        (disp, jumps, cw), cycles, at = reference_simulation(
            config, horizon, seed, initial, list(times)
        )
        report = simulate_continuous(
            config, horizon, SeedSpec(*seed), initial, trace_every=7.0
        )
        in_contact = case in ("regeneration", "contact-across-the-wrap")
        assert report.burn_in == (0.0 if in_contact else 0.01 * horizon)
        assert report.jump_count == jumps > 0
        assert report.displacement_sum == pytest.approx(disp, abs=1e-9)
        assert report.clockwise_time == pytest.approx(cw, abs=1e-9)
        np.testing.assert_array_equal(report.trace_times, times)
        at_disp, at_jumps = np.array(at).T
        np.testing.assert_array_equal(report.trace_cost, at_jumps / times)
        np.testing.assert_allclose(report.trace_speed * times, at_disp, atol=1e-9)
        if case == "m3-co-located-tie-break":
            # the engine's tie-break hands over from the later meeting
            assert later_supplies() > 0
        if config.n_walkers > 2:
            # regeneration cycles are a two-walker construction
            assert report.cycles is None
            return
        assert report.n_cycles == len(cycles) > 0
        kept = cycle_arrays(report)
        np.testing.assert_array_equal(kept.cycle_jumps, [j for _, j in cycles])
        np.testing.assert_allclose(
            kept.cycle_lengths, [length for length, _ in cycles], atol=1e-9
        )
        # two walkers: a cycle wraps the ring exactly when it ends without
        # a handoff
        np.testing.assert_array_equal(
            kept.cycle_displacements,
            np.where(kept.cycle_jumps, 0.0, config.circumference),
        )

    def test_twenty_walkers_match_pure_op_reference(self):
        # chunks of 16 switches per walker: the horizon spans several
        config = ContinuousConfig(10.0, 1.0, 1.0, n_walkers=20)
        (disp, jumps, cw), _, _ = reference_simulation(
            config, 40.0, (85, 0), "uniform-random"
        )
        report = simulate_continuous(config, 40.0, SeedSpec(85, 0))
        assert report.jump_count == jumps > 0
        assert report.displacement_sum == pytest.approx(disp, abs=1e-9)
        assert report.clockwise_time == pytest.approx(cw, abs=1e-9)

    def test_checkpoint_at_a_meeting_reads_before_it(self):
        # walkers half a lap apart close head-on and meet at t = 0.25 and
        # 0.75 exactly, where trace checkpoints fall; the first meeting
        # hands the message on, and the checkpoint reads the state before
        config = ContinuousConfig(1.0, 1.0, 0.01)
        state = State(np.array([0.25, 0.75]), np.array([1, -1]), 1)
        times = [0.25, 0.5, 0.75, 1.0]
        _, _, at = reference_simulation(config, 1.0, (3, 0), state, times)
        report = simulate_continuous(
            config, 1.0, SeedSpec(3, 0), state, trace_every=0.25
        )
        np.testing.assert_array_equal(report.trace_cost * times, [0, 1, 1, 1])
        np.testing.assert_array_equal(
            report.trace_cost * times, [jumps for _, jumps in at]
        )
        np.testing.assert_allclose(
            report.trace_speed * times, [disp for disp, _ in at], atol=1e-12
        )

    @pytest.mark.parametrize("m", [pytest.param(2, id="m2"), pytest.param(4, id="m4")])
    def test_chunk_size_changes_nothing(self, monkeypatch, cycle_arrays, m):
        # the engine carries walker state, pair gaps, the carrier and the
        # open cycle between chunks of switches; cutting the run into many
        # small chunks must give the same counts and, up to roundoff, the
        # same sums
        config = ContinuousConfig(1.0, 1.0, 1.0, n_walkers=m)
        initial = "regeneration" if m == 2 else "uniform-random"

        def run():
            return simulate_continuous(
                config, 500.0, SeedSpec(12, 0), initial, trace_every=5.0
            )

        whole = run()
        monkeypatch.setattr(continuous, "SWITCH_CHUNK", 7)
        cut = run()
        assert cut.jump_count == whole.jump_count > 0
        counts = ["batch_jumps", "trace_cost"]
        sums = ["batch_displacement", "batch_clockwise", "trace_speed"]
        if m == 2:
            counts += ["cycle_jumps", "cycle_displacements"]
            sums += ["cycle_lengths", "cycle_carrier_sums"]
        # the per-cycle arrays rebuilt from the contacts each run folded
        cut, whole = ({**vars(cycle_arrays(r)), **vars(r)} for r in (cut, whole))
        for key in counts:
            np.testing.assert_array_equal(cut[key], whole[key])
        for key in sums:
            np.testing.assert_allclose(cut[key], whole[key], rtol=1e-12, atol=1e-12)

    def test_chunk_rule(self):
        # two walkers keep SWITCH_CHUNK switches each; m up to 10 take at
        # most the 2 SWITCH_CHUNK (segment, pair) cells of two walkers,
        # about m^2 (m - 1) k / 2; from m = 20 on the 16-switch floor holds
        chunk = continuous._chunk_switches
        assert chunk(2, 1.0) == chunk(2, 40.0) == continuous.SWITCH_CHUNK
        for m in range(3, 11):
            k = chunk(m, 1.0)
            assert 16 < k and m**2 * (m - 1) * k / 2 <= 2 * continuous.SWITCH_CHUNK
        assert chunk(5, 1.0) == 655
        for m in (20, 50, MAX_WALKERS):
            assert chunk(m, 1.0) == 16
        # small rings take fewer switches, but always at least one
        assert chunk(5, 0.5) == 327 and chunk(50, 1e-9) == 1

    def test_deterministic_given_seed(self):
        r1 = simulate_continuous(CFG1, 500.0, SeedSpec(5, 0))
        r2 = simulate_continuous(CFG1, 500.0, SeedSpec(5, 0))
        assert r1.displacement_sum == r2.displacement_sum
        assert r1.jump_count == r2.jump_count
        np.testing.assert_array_equal(r1.batch_displacement, r2.batch_displacement)

    def test_cycle_displacements_exactly_zero_or_lap(self, cycle_arrays):
        # taken from the gap's level crossings, so no drift with horizon
        for horizon in (3000.0, 2e5):
            report = simulate_continuous(
                CFG1, horizon, SeedSpec(11, 0), "regeneration"
            )
            kept = cycle_arrays(report)
            assert set(kept.cycle_displacements) == {0.0, report.lap_length}

    def test_jump_happens_exactly_on_non_wrapping_cycles(self, cycle_arrays):
        # without a flip at the meeting, the class of the excursion
        # decides the handoff deterministically
        report = simulate_continuous(CFG1, 2000.0, SeedSpec(13, 0), "regeneration")
        kept = cycle_arrays(report)
        wrapped = kept.cycle_displacements > report.lap_length / 2
        np.testing.assert_array_equal(kept.cycle_jumps, ~wrapped)

    def test_explicit_initial_state(self):
        state = State(
            np.array([0.1, 0.7]), np.array([1, -1]), 0
        )
        report = simulate_continuous(CFG1, 300.0, SeedSpec(2, 0), state)
        assert report.burn_in == pytest.approx(3.0)
        assert report.total_time == pytest.approx(297.0)

    def test_speed_against_closed_form(self):
        cfg = ContinuousConfig(0.5, 2.0, 3.0)
        report = simulate_continuous(cfg, 3000.0, SeedSpec(31, 0))
        est = estimators.speed_estimate(report)
        target = 4.0 / (4.0 + 1.5)  # v^2/(2v+rN)
        assert abs(est.point - target) <= 4 * est.stderr

    @pytest.mark.parametrize("horizon", [np.inf, np.nan, 0.0, -1.0])
    def test_rejects_bad_horizon(self, horizon):
        with pytest.raises(errors.RelayError):
            simulate_continuous(CFG1, horizon, SeedSpec(0, 0))

    @pytest.mark.parametrize("spacing", ["sample_every", "trace_every"])
    def test_rejects_negative_spacing(self, spacing):
        # sample times are the sampler's, spaced -2.5 apart here; trace
        # points are the engine's
        if spacing == "sample_every":
            with pytest.raises(errors.RelayError, match="nonnegative and sorted"):
                sample_walker_states(CFG1, 50.0 - 2.5 * np.arange(3), SeedSpec(0, 0))
            return
        with pytest.raises(errors.RelayError, match=r"trace_every must be 0 \(off\)"):
            simulate_continuous(CFG1, 50.0, SeedSpec(0, 0), trace_every=-2.5)

    def test_rejects_bad_initial(self):
        bad = State(np.array([0.1, 1.7]), np.array([1, -1]), 0)
        with pytest.raises(errors.RelayError):
            simulate_continuous(CFG1, 10.0, SeedSpec(0, 0), bad)

    def test_three_walkers_run(self):
        cfg = ContinuousConfig(2.0, 1.0, 1.0, n_walkers=3)
        report = simulate_continuous(cfg, 200.0, SeedSpec(9, 0))
        assert report.cycles is None
        assert report.params["m"] == 3


def oracle_walkers(config, times, seed):
    """Walker positions and directions at the given sorted times, from
    the uniform-random start, one event at a time through the event ops;
    as in the simulator, a time comes before an event at the same time."""
    streams = WalkerStreams(seed, config.n_walkers)
    state = event_start(config, streams, "uniform-random")
    positions, directions = [], []
    for t in times:
        while (ev := next_event(state, config)).time < t:
            state = advance_to(state, ev.time, config)
            state, _ = handle_event(state, ev, config, streams)
        at = advance_to(state, t, config)
        positions.append(at.positions)
        directions.append(at.directions)
    return np.array(positions), np.array(directions)


class TestFastSampler:
    def test_agrees_with_simulator_on_shared_seed(self):
        # the event-op simulator: equal directions, and positions within
        # 1e-9 of it around the ring
        times = 0.8 + 0.35 * np.arange(1, 226)
        for case in ("uniform-with-burn-in", "non-unit-v-and-r", "m3-uniform",
                     "m4-non-unit-v-and-r"):
            cfg, seed, _ = ORACLE_CASES[case]
            pos, dirs = sample_walker_states(cfg, times, SeedSpec(*seed))
            want_pos, want_dirs = oracle_walkers(cfg, times, SeedSpec(*seed))
            np.testing.assert_array_equal(dirs, want_dirs)
            n = cfg.circumference
            assert np.abs((pos - want_pos + n / 2) % n - n / 2).max() < 1e-9

    def test_traces_match_oracle(self):
        cfg = ContinuousConfig(1.0, 1.0, 1.0)
        report = simulate_continuous(cfg, 80.0, SeedSpec(99, 0), trace_every=0.5)
        times = report.trace_times
        np.testing.assert_array_equal(times, 0.5 * np.arange(1, 161))
        _, _, at = reference_simulation(
            cfg, 80.0, (99, 0), "uniform-random", list(times)
        )
        disp, jumps = np.array(at).T
        np.testing.assert_array_equal(report.trace_cost, jumps / times)
        np.testing.assert_allclose(report.trace_speed * times, disp, atol=1e-9)

    def test_block_switch_times_equal_event_scheduling(self):
        # the block engine and the sampler rely on this: switch times
        # drawn in blocks equal the event ops' one-at-a-time schedule
        a = WalkerStreams(SeedSpec(8, 0), 2)
        b = WalkerStreams(SeedSpec(8, 0), 2)
        first = a.walker[1].exponential(1 / 0.7)
        blocks = [continuous._draw_switches(a.walker[1], first, 0.7, 5)]
        blocks.append(continuous._draw_switches(a.walker[1], blocks[0][-1], 0.7, 300))
        t = b.walker[1].exponential(1 / 0.7)
        scalars = []
        for _ in range(305):
            t = t + b.walker[1].exponential(1 / 0.7)
            scalars.append(t)
        np.testing.assert_array_equal(np.concatenate(blocks), scalars)

    def test_walk_matches_segment_formula(self):
        # the old formula, a sign for every segment, as the oracle: float
        # times read a reversal at its time with the old direction, integer
        # rounds with the new one, in integer arithmetic
        def walk(x0, d0, bounds, times, speed, circumference):
            signs = np.where(np.arange(len(bounds)) % 2 == 0, d0, -d0)
            disp = np.concatenate(([0], np.cumsum(signs[:-1] * np.diff(bounds))))
            side = "right" if times.dtype.kind == "i" else "left"
            idx = np.searchsorted(bounds[1:], times, side=side)
            positions = (
                x0 + speed * (disp[idx] + signs[idx] * (times - bounds[idx]))
            ) % circumference
            return positions, signs[idx]

        rng = np.random.default_rng(17)
        for whole in np.arange(400) % 2 == 1:
            size, count = int(rng.integers(1, 2000)), int(rng.integers(1, 300))
            if whole:
                bounds = rng.integers(0, 5) + np.concatenate(
                    ([0], np.cumsum(rng.integers(1, 5, size - 1))))
                times = rng.integers(bounds[0], bounds[-1] + 3, count)
                x0, speed, circumference = rng.integers(0, 7), 1, 7
            else:
                bounds = rng.uniform(0, 5) + np.concatenate(
                    ([0.0], np.cumsum(rng.exponential(0.7, size - 1))))
                times = rng.uniform(bounds[0], bounds[-1] + 1, count)
                x0, speed, circumference = rng.uniform(0, 3), 1.3, 3.0
            times = np.sort(np.concatenate((times, rng.choice(bounds, 3))))
            args = (x0, np.int64(rng.choice([1, -1])), bounds, times, speed,
                    circumference)
            got = model.walk(*args)
            for g, w in zip(got, walk(*args)):
                assert g.dtype == w.dtype
                np.testing.assert_array_equal(g, w)
            assert got[0].dtype == (np.int64 if whole else np.float64)

    def test_no_samples(self):
        pos, dirs = sample_walker_states(ContinuousConfig(1.0, 1.0, 1.0, 3), [], 0)
        assert pos.shape == dirs.shape == (0, 3)

    @pytest.mark.parametrize("times", [
        [[1.0, 2.0]], [np.nan], [np.inf], [1.0, np.nan], [-1.0], [2.0, 1.0], ["a"],
        [True],
    ], ids=str)
    def test_rejects_bad_times(self, times):
        with pytest.raises(errors.RelayError, match="sample times must be"):
            sample_walker_states(ContinuousConfig(1.0), times, 0)

    def test_rejects_switch_counts_past_bound(self):
        # r t = 1e300 asks for more than 2**53 switches; the check comes
        # before any switch is drawn
        with pytest.raises(errors.RelayError, match=r"2\*\*53"):
            sample_walker_states(ContinuousConfig(1.0, 1.0, 1e300), [1.0], 0)

    def test_direction_marginal_is_balanced(self):
        cfg = ContinuousConfig(2.0, 1.0, 0.5)
        times = 5.0 + 7.7 * np.arange(4000)
        _, dirs = sample_walker_states(cfg, times, SeedSpec(4, 0))
        frac = (dirs == 1).mean()
        assert abs(frac - 0.5) < 3 / np.sqrt(dirs.size)

    def test_positions_in_range(self):
        cfg = ContinuousConfig(3.0, 1.3, 0.7)
        pos, _ = sample_walker_states(
            cfg, np.linspace(0.5, 200.0, 500), SeedSpec(6, 0)
        )
        assert np.all((0 <= pos) & (pos < 3.0))
