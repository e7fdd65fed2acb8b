"""Estimator layer on synthetic reports with known answers."""
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.special
import scipy.stats

from oracles import CYCLE_ARRAYS, NO_CONTACT, assert_cycles_match, cycle_record
from ringrelay import cli, errors, estimators, validation
from ringrelay.continuous import simulate_continuous
from ringrelay.discrete import simulate_discrete
from ringrelay.model import Cycles, Moments, Readings, fold_cycles
from ringrelay.estimators import (
    RunReport,
    build_report,
    chi_square_tail,
    chi_square_uniformity,
    cost_estimate,
    direction_estimate,
    excursion_classifier,
    kac_check,
    merge,
    speed_estimate,
    uniformity_test,
)
from ringrelay.model import ContinuousConfig, DiscreteConfig, SeedSpec


def make_report(
    batch_disp,
    batch_jumps=None,
    batch_cw=None,
    batch_duration=10.0,
    cycles=None,
    model="discrete",
    lap=10.0,
):
    batch_disp = np.asarray(batch_disp, dtype=float)
    nb = len(batch_disp)
    if batch_jumps is None:
        batch_jumps = np.zeros(nb)
    if batch_cw is None:
        batch_cw = np.full(nb, batch_duration / 2)
    if cycles is None:
        cycles = [np.array([])] * 4
    arrays = SimpleNamespace(**dict(zip(CYCLE_ARRAYS, cycles)))
    total = nb * batch_duration
    return RunReport(
        params={"model": model, "N": 5},
        total_time=total,
        burn_in=0.0,
        displacement_sum=float(np.sum(batch_disp)),
        jump_count=int(np.sum(batch_jumps)),
        clockwise_time=float(np.sum(batch_cw)),
        lap_length=lap,
        batch_duration=batch_duration,
        batch_displacement=batch_disp,
        batch_jumps=np.asarray(batch_jumps, dtype=float),
        batch_clockwise=np.asarray(batch_cw, dtype=float),
        cycles=cycle_record(arrays, lap),
    )


class TestBatchEstimates:
    def test_point_and_stderr_known_case(self):
        rng = np.random.default_rng(0)
        sums = rng.normal(3.0, 0.5, size=50)
        report = make_report(sums, batch_duration=10.0)
        est = speed_estimate(report)
        assert est.point == pytest.approx(sums.sum() / 500.0)
        means = sums / 10.0
        assert est.stderr == pytest.approx(means.std(ddof=1) / np.sqrt(50))
        assert est.n_batches == 50

    def test_constant_batches_have_zero_error(self):
        report = make_report(np.full(50, 2.0))
        assert speed_estimate(report).stderr == pytest.approx(0.0, abs=1e-15)

    def test_too_few_batches_raises(self):
        report = make_report(np.ones(10))
        with pytest.raises(errors.RelayError, match="at least 20 batches"):
            speed_estimate(report)

    def test_cost_and_direction_use_their_own_columns(self):
        report = make_report(
            np.ones(25), batch_jumps=np.full(25, 3.0), batch_cw=np.full(25, 7.0)
        )
        assert cost_estimate(report).point == pytest.approx(3.0 / 10.0)
        assert direction_estimate(report).point == pytest.approx(0.7)


def synthetic_run(end, in_contact=False, contacts=None):
    """build_report over an engine whose carrier moves clockwise at unit
    speed and hands off every 10 time units, on a ring of 5 sites whose
    wraps move 10, folding the blocks of contacts (None: m > 2)."""

    def engine(checkpoints, burn, lap_length):
        t = checkpoints.astype(float)
        cycles, last = None, NO_CONTACT
        if contacts is not None:
            cycles = Cycles()
            for block in contacts:
                cycles, last = fold_cycles(cycles, last, block, burn, 5, lap_length)
        return Readings(t, t // 10, cycles)

    return build_report(
        engine, params={"model": "discrete", "N": 5}, seed=SeedSpec(1, 0),
        lap_length=10.0, end=end, in_contact=in_contact,
    )


def contacts_of(time, disp, level, car, split=2):
    """Contacts as model.relay folds them: blocks of split, each a
    (time, disp, level, car) tuple of arrays."""
    return [tuple(np.asarray(field[i:i + split]) for field in (time, disp, level, car))
            for i in range(0, max(len(time), 1), split)]


class TestBuildReport:
    @pytest.mark.parametrize(
        "end, in_contact, burn",
        [(1000, False, 10), (1099, False, 10), (1000, True, 0),
         (1000.0, False, 10.0), (1099.0, False, 10.99), (1000.0, True, 0.0)],
    )
    def test_burn_in(self, end, in_contact, burn):
        report = synthetic_run(end, in_contact)
        assert report.burn_in == burn
        assert report.total_time == end - burn
        assert report.displacement_sum == pytest.approx(end - burn, rel=1e-15)

    def test_whole_round_batches_leave_the_tail_out(self):
        report = synthetic_run(1099)  # window 10 .. 1099, 1089 rounds
        assert report.batch_duration == 21.0  # 1089 // 50
        assert len(report.batch_displacement) == 50
        np.testing.assert_array_equal(report.batch_displacement, 21.0)
        np.testing.assert_array_equal(report.batch_clockwise, 21.0)
        # the 39 rounds after the last batch count only in the totals
        assert report.batch_displacement.sum() == 1050.0
        assert report.displacement_sum == 1089.0

    def test_time_batches_cover_the_window(self):
        report = synthetic_run(1099.0)
        assert len(report.batch_displacement) == 50
        assert report.batch_duration == pytest.approx(1088.01 / 50, rel=1e-15)
        assert report.batch_displacement.sum() == pytest.approx(1088.01, rel=1e-14)

    def test_run_too_short_for_batches(self):
        report = synthetic_run(40)
        assert len(report.batch_displacement) == 0
        assert report.batch_duration == 0.0

    def test_cycles_from_contacts(self):
        for split in (1, 2, 5):  # contacts folded in blocks of 1, 2 and 5
            contacts = contacts_of(
                time=[0, 4, 10, 30, 60],
                disp=[0, 3, 5, 12, 20],
                level=[0, 0, 2, 4, 4],
                car=[1, 0, 1, 0, 0],
                split=split,
            )
            report = synthetic_run(1000, contacts=contacts)  # burn-in 10
            # the contact at round 10 is kept and opens the first cycle:
            # lengths 20 and 30, carrier sums 7 and 8, one handoff, and the
            # carrier (walker 1) moves a whole lap of 10 around walker 0
            assert report.cycles == Cycles(
                Moments(2, 50.0, 50.0), Moments(2, 15.0, 0.5),
                wraps=1, handoffs=1, max_deviation=0.0)
            assert isinstance(report.cycles.lengths.total, float)

    def test_partner_displacement_sign_follows_the_carrier(self):
        # walker 1 carrying moves around walker 0 as x1 - x0 does, and
        # walker 0 carrying as x0 - x1 does; N = 5 sites
        contacts = contacts_of(
            time=[0, 1, 2, 3, 4],
            disp=[0, 0, 0, 0, 0],
            level=[0, 2, 0, -2, -2],
            car=[1, 0, 1, 0, 1],
        )
        report = synthetic_run(50, in_contact=True, contacts=contacts)
        # displacements 10, 10, -10 and 0: two wrap, and -10 lies 10 from 0
        assert report.cycles.wraps == 2
        assert report.cycles.max_deviation == 10.0
        assert report.cycles.handoffs == 4

    def test_start_contact_opens_a_cycle_only_without_burn_in(self):
        def contacts():
            return contacts_of(time=[0, 40], disp=[0, 7], level=[0, 2], car=[1, 1])

        assert synthetic_run(1000, True, contacts()).n_cycles == 1
        assert synthetic_run(1000, False, contacts()).n_cycles == 0

    def test_no_contacts_no_cycles(self):
        report = synthetic_run(1000, contacts=contacts_of([], [], [], []))
        assert report.n_cycles == 0
        assert report.cycles == Cycles()
        with pytest.raises(errors.RelayError, match="no completed cycles"):
            excursion_classifier(report)

    def test_many_walkers_carry_no_cycles(self):
        report = synthetic_run(1000, contacts=None)
        assert report.cycles is None and report.n_cycles == 0


class TestMerge:
    def draw(self, seed):
        """Per-cycle arrays and batch sums of one replica."""
        rng = np.random.default_rng(seed)
        cycles = (
            rng.integers(1, 20, size=30).astype(float),
            rng.choice([0.0, 10.0], size=30),
            rng.normal(size=30),
            rng.integers(0, 2, size=30).astype(bool),
        )
        return cycles, rng.normal(5, 1, size=50)

    def run(self, seed):
        cycles, batches = self.draw(seed)
        return make_report(batches, cycles=cycles)

    @property
    def pooled(self):
        """The per-cycle arrays of runs 1 and 2 together."""
        return SimpleNamespace(**{key: np.concatenate(pair) for key, pair in zip(
            CYCLE_ARRAYS, zip(self.draw(1)[0], self.draw(2)[0]))})

    def test_merge_pools_everything(self):
        a, b = self.run(1), self.run(2)
        m = merge([a, b])
        assert m.total_time == a.total_time + b.total_time
        assert m.displacement_sum == pytest.approx(
            a.displacement_sum + b.displacement_sum
        )
        assert m.n_cycles == 60
        assert len(m.batch_displacement) == 100
        # the record of the 60 cycles pooled
        assert_cycles_match(m.cycles, cycle_record(self.pooled, 10.0))

    def test_merge_is_associative_on_estimates(self):
        a, b, c = self.run(1), self.run(2), self.run(3)
        left = speed_estimate(merge([merge([a, b]), c]))
        right = speed_estimate(merge([a, merge([b, c])]))
        assert left.point == pytest.approx(right.point, rel=1e-14)
        assert left.stderr == pytest.approx(right.stderr, rel=1e-12)

    def test_merge_pools_replicas_with_different_burn_in(self):
        # replica 5's uniform start is a contact state, so it skips
        # burn-in and its batches are longer than the other seven's
        runs = [
            simulate_discrete(DiscreteConfig(11, 0.1), 10**4, SeedSpec(20260817, k))
            for k in range(8)
        ]
        assert [k for k, r in enumerate(runs) if r.burn_in == 0.0] == [5]
        pooled = merge(runs)
        assert pooled.batch_duration == runs[0].batch_duration
        for key in ("batch_displacement", "batch_jumps", "batch_clockwise"):
            means = np.concatenate(
                [getattr(r, key) / r.batch_duration for r in runs]
            )
            np.testing.assert_allclose(
                getattr(pooled, key) / pooled.batch_duration, means, rtol=1e-14
            )
        # replicas with equal batching pool bit for bit as before
        equal = [r for r in runs if r.burn_in > 0.0]
        np.testing.assert_array_equal(
            merge(equal).batch_displacement,
            np.concatenate([r.batch_displacement for r in equal]),
        )

    def test_merge_carries_no_trace(self):
        # a trace is one replica's running average from time 0
        runs = [
            simulate_discrete(DiscreteConfig(5, 0.3), 2000, SeedSpec(3, k),
                              trace_every=100)
            for k in range(2)
        ]
        assert all(len(r.trace_times) == 20 for r in runs)
        pooled = merge(runs)
        assert pooled.trace_times is None
        assert pooled.trace_speed is None and pooled.trace_cost is None
        assert all(r.trace_speed is not None for r in runs)

    def test_merge_pools_replicas_too_short_for_batches(self):
        # fewer rounds than batches: no batch, a zero batch duration
        runs = [
            simulate_discrete(DiscreteConfig(5, 0.3), 5, SeedSpec(20260815, k))
            for k in range(3)
        ]
        assert all(r.batch_duration == 0.0 for r in runs)
        pooled = merge(runs)
        assert pooled.batch_duration == 0.0
        assert pooled.total_time == 15.0
        assert len(pooled.batch_displacement) == 0
        assert pooled.jump_count == sum(r.jump_count for r in runs)

    @pytest.mark.parametrize("simulate,config,length,initial", [
        pytest.param(simulate_discrete, DiscreteConfig(5, 0.3), 5000,
                     "regeneration", id="lattice-m2-cycles"),
        pytest.param(simulate_discrete, DiscreteConfig(11, 0.1, 3), 5000,
                     "uniform-random", id="lattice-m3"),
        pytest.param(simulate_continuous, ContinuousConfig(1.0), 500.0,
                     "regeneration", id="continuum-m2-regeneration"),
        pytest.param(simulate_continuous, ContinuousConfig(2.0, n_walkers=3), 500.0,
                     "uniform-random", id="continuum-m3"),
    ])
    def test_merging_one_replica_keeps_its_payload(
        self, tmp_path, simulate, config, length, initial
    ):
        # simulate and sweep merge even a single replica before they report
        report = simulate(config, length, SeedSpec(20260815, 0), initial)
        assert (report.n_cycles > 0) == (initial == "regeneration")
        texts = []
        for k, r in enumerate([report, merge([report])]):
            cli._dump_json(cli._report_payload(r), tmp_path / f"{k}.json")
            texts.append((tmp_path / f"{k}.json").read_bytes())
        assert texts[0] == texts[1]

    def test_merge_rejects_mismatched_models(self):
        a = self.run(1)
        b = self.run(2)
        b.params = {"model": "discrete", "N": 7}
        with pytest.raises(errors.RelayError):
            merge([a, b])

    @pytest.mark.parametrize("change", [
        {"model": "continuous"}, {"N": 7}, {"v": 1.0},
    ], ids=["model", "N", "extra-key"])
    def test_merge_refuses_different_params(self, change):
        a, b = self.run(1), self.run(2)
        b.params = {**b.params, **change}
        with pytest.raises(errors.RelayError,
                           match="cannot merge reports with different models"):
            merge([a, b])

    def test_merge_empty_rejected(self):
        with pytest.raises(errors.RelayError):
            merge([])


class TestKac:
    def make_cycle_report(self, seed, n=500):
        # cycles with length L and sum s = 0.4 L + noise: the long-run
        # average of the summand is then 0.4 by construction
        rng = np.random.default_rng(seed)
        lengths = rng.integers(2, 30, size=n).astype(float)
        sums = 0.4 * lengths + rng.normal(0, 0.3, size=n)
        batch = np.full(50, (0.4 * lengths.sum()) / 50)
        report = make_report(
            batch,
            batch_duration=lengths.sum() / 50,
            cycles=(lengths, np.zeros(n), sums, np.zeros(n, dtype=bool)),
        )
        report.total_time = lengths.sum()
        report.displacement_sum = sums.sum()
        return report

    def test_identity_holds_on_synthetic_cycles(self):
        report = self.make_cycle_report(0)
        est = speed_estimate(report)
        check = kac_check(report, est.point, est.stderr)
        assert abs(check.gap) <= 3 * check.stderr
        product = report.cycles.lengths.mean() * est.point
        assert abs(check.gap) / product < 0.05
        assert report.n_cycles == 500

    def test_detects_a_broken_identity(self):
        report = self.make_cycle_report(1)
        check = kac_check(report, 0.6, 1e-6)
        assert abs(check.gap) > 5 * check.stderr

    def test_needs_cycles(self):
        report = make_report(np.ones(50))
        with pytest.raises(errors.RelayError, match="at least 100 cycles"):
            kac_check(report, 0.0, 0.0)


class TestExcursions:
    def test_classification_and_deviation(self):
        disp = np.array([0.0, 10.0, 1e-12, 10.0 - 1e-12, 0.0])
        report = make_report(
            np.ones(50),
            cycles=(
                np.ones(5),
                disp,
                np.zeros(5),
                np.array([1, 0, 1, 0, 1], dtype=bool),
            ),
        )
        cycles = excursion_classifier(report)
        assert cycles is report.cycles and report.n_cycles == 5
        assert cycles.wraps == 2
        assert cycles.wraps / report.n_cycles == pytest.approx(0.4)
        assert cycles.max_deviation == pytest.approx(1e-12, rel=1)

    def test_empty_raises(self):
        report = make_report(np.ones(50))
        with pytest.raises(errors.RelayError, match="no completed cycles"):
            excursion_classifier(report)


def assert_counted(pvalue, counts):
    """pvalue is the chi-square tail of the statistic of these cell
    counts: exactly, at scipy's statistic, and within 1e-12 of scipy's
    p-value (the oracle; the package sums the tail in closed form)."""
    stat, expected = scipy.stats.chisquare(counts)
    assert pvalue == chi_square_tail(stat, len(counts) - 1)
    assert pvalue == pytest.approx(expected, rel=1e-12)


def cell_counts(bins, dirs, cells_per_walker):
    """Explicit cell counts, one cell per walker bin and direction sign,
    (cells_per_walker)^m cells."""
    cell = np.zeros(len(bins), dtype=np.int64)
    for j in range(bins.shape[1]):
        cell = cell * cells_per_walker + bins[:, j] * 2 + (dirs[:, j] > 0)
    return np.bincount(cell, minlength=cells_per_walker ** bins.shape[1])


class TestChiSquare:
    def test_uniform_data_passes(self):
        rng = np.random.default_rng(5)
        k = 4000
        pos = rng.uniform(0, 5, size=(k, 2))
        dirs = rng.choice([-1, 1], size=(k, 2))
        pvalue = chi_square_uniformity(pos, dirs, 5.0, 5)
        assert_counted(pvalue, cell_counts((pos / 5.0 * 5).astype(int), dirs, 10))
        assert pvalue > 0.01

    def test_skewed_data_fails(self):
        rng = np.random.default_rng(6)
        k = 4000
        pos = rng.uniform(0, 2.5, size=(k, 2))  # half the ring only
        dirs = rng.choice([-1, 1], size=(k, 2))
        assert chi_square_uniformity(pos, dirs, 5.0, 5) < 1e-6

    def test_direction_skew_detected(self):
        rng = np.random.default_rng(7)
        k = 4000
        pos = rng.uniform(0, 5, size=(k, 2))
        dirs = rng.choice([-1, 1], size=(k, 2), p=[0.35, 0.65])
        assert chi_square_uniformity(pos, dirs, 5.0, 5) < 1e-6

    def test_sparse_cells_rejected(self):
        pos = np.zeros((100, 2))
        dirs = np.ones((100, 2))
        with pytest.raises(errors.RelayError, match="expected count"):
            chi_square_uniformity(pos, dirs, 5.0, 5)

    def test_false_positive_rate_near_nominal(self):
        # under the null the p-value is approximately uniform
        rng = np.random.default_rng(8)
        rejections = 0
        for _ in range(60):
            pos = rng.uniform(0, 1, size=(2000, 2))
            dirs = rng.choice([-1, 1], size=(2000, 2))
            if chi_square_uniformity(pos, dirs, 1.0, 4) <= 0.01:
                rejections += 1
        assert rejections <= 3

    def test_matches_scipy_chisquare(self):
        # one walker at cell centres: cell c is arc c // 2 with direction
        # sign c % 2, so the count vector is known and scipy is the oracle
        rng = np.random.default_rng(10)
        for n_cells in (10, 100, 256):
            for alpha in (1e4, 50.0, 5.0) * 23:
                cells = rng.choice(n_cells, size=int(rng.integers(20, 60)) * n_cells,
                                   p=rng.dirichlet(np.full(n_cells, alpha)))
                pvalue = chi_square_uniformity(
                    (cells // 2 + 0.5)[:, None], np.where(cells % 2, 1, -1)[:, None],
                    n_cells / 2, n_cells // 2,
                )
                assert_counted(pvalue, np.bincount(cells, minlength=n_cells))

    def test_report_level_wiring(self):
        # one cell per site on the lattice, 8 equal arcs on the continuum
        rng = np.random.default_rng(9)
        dirs = rng.choice([-1, 1], size=(6000, 2))
        sites = rng.integers(0, 5, size=(3000, 2)).astype(float)
        pvalue = uniformity_test(DiscreteConfig(5, 0.3), sites, dirs[:3000])
        assert pvalue == chi_square_uniformity(sites, dirs[:3000], 5, 5)
        assert_counted(pvalue, cell_counts(sites.astype(int), dirs[:3000], 10))
        points = rng.uniform(0, 2.5, size=(6000, 2))
        pvalue = uniformity_test(ContinuousConfig(2.5), points, dirs)
        assert pvalue == chi_square_uniformity(points, dirs, 2.5, 8)
        assert_counted(pvalue, cell_counts((points / 2.5 * 8).astype(int), dirs, 16))

    def test_report_without_samples_rejected(self):
        # no samples, or too few for the lattice's 100 cells
        for k in (0, 1999):
            with pytest.raises(errors.RelayError, match="expected count"):
                uniformity_test(DiscreteConfig(5, 0.3), np.zeros((k, 2)),
                                np.ones((k, 2)))


class TestChiSquareTail:
    def test_matches_scipy_chdtrc(self):
        # every odd df the gate could reach on 256 cells, stat 0 to 6 df
        worst = 0.0
        for df in range(1, 256, 2):
            stats = np.linspace(0.0, 6.0 * df, 97)
            expected = scipy.special.chdtrc(df, stats)
            got = np.array([chi_square_tail(x, df) for x in stats])
            kept = expected > 1e-300
            worst = max(worst, np.max(np.abs(got - expected)[kept] / expected[kept]))
        assert worst < 1e-12

    @pytest.mark.parametrize("stat", [1e-6, 0.3, 1.0, 2.5, 7.0, 40.0, 100.0])
    def test_exact_identities(self, stat):
        y = stat / 2
        assert chi_square_tail(stat, 1) == math.erfc(math.sqrt(y))
        assert chi_square_tail(stat, 3) == pytest.approx(
            math.erfc(math.sqrt(y)) + 2 * math.sqrt(y / math.pi) * math.exp(-y),
            rel=1e-13)

    @pytest.mark.parametrize("df", [1, 3, 99, 255, 4095])
    def test_edges_and_monotone(self, df):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert chi_square_tail(0.0, df) == 1.0
            assert chi_square_tail(1e6, df) == 0.0
            tail = np.array([chi_square_tail(x, df)
                             for x in np.linspace(0.0, 8.0 * df, 400)])
        # decreasing, up to the terms' rounding near 1 (a few 1e-13 at df 4095)
        assert np.all((tail >= 0) & (tail <= 1))
        assert np.all(np.diff(tail) <= 1e-12 * tail[1:])

    @pytest.mark.parametrize("master_seed", [20260815, 20260817, 20260824])
    def test_gate_verdicts_match_scipy(self, monkeypatch, master_seed):
        # every equilibrium-uniformity replica passes or fails as it
        # would on scipy's p-value
        pairs = []

        def both(stat, df):
            pairs.append((chi_square_tail(stat, df), scipy.special.chdtrc(df, stat)))
            return pairs[-1][0]

        monkeypatch.setattr(estimators, "chi_square_tail", both)
        func, jobs = validation.run_table(master_seed)["uniformity"]
        verdicts = [func(*job) for job in jobs]
        assert len(pairs) == len(verdicts) == 200
        assert verdicts == [ours > 0.01 for ours, _ in pairs]
        assert [ours > 0.01 for ours, _ in pairs] == [ref > 0.01 for _, ref in pairs]
