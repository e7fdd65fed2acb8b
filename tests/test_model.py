"""Config validation, ring geometry helpers, and the seeding contract."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ringrelay import errors
from ringrelay.continuous import ContinuousState
from ringrelay.model import (
    ContinuousConfig,
    DiscreteConfig,
    SeedSpec,
    WalkerStreams,
    as_seed,
    check_state,
    circle_delta,
    validate_continuous,
    validate_discrete,
)


class TestConfigs:
    def test_discrete_accepts_valid(self):
        cfg = DiscreteConfig(11, 0.1)
        validate_discrete(cfg)
        assert cfg.n_walkers == 2

    @pytest.mark.parametrize(
        "kwargs,exc",
        [
            (dict(n_sites=4, flip_prob=0.1), errors.EvenN),
            (dict(n_sites=1, flip_prob=0.1), errors.NOutOfRange),
            (dict(n_sites=5, flip_prob=0.0), errors.EpsilonOutOfRange),
            (dict(n_sites=5, flip_prob=1.0), errors.EpsilonOutOfRange),
            (dict(n_sites=5, flip_prob=0.1, n_walkers=1), errors.MTooSmall),
        ],
    )
    def test_discrete_rejects(self, kwargs, exc):
        with pytest.raises(exc):
            validate_discrete(DiscreteConfig(**kwargs))

    def test_discrete_rejects_non_integer_sites(self):
        with pytest.raises(errors.RelayError):
            validate_discrete(DiscreteConfig(5.5, 0.1))

    @pytest.mark.parametrize(
        "kwargs,exc",
        [
            (dict(circumference=0.0), errors.NOutOfRange),
            (dict(circumference=1.0, speed=0.0), errors.SpeedOutOfRange),
            (dict(circumference=1.0, switch_rate=-1.0), errors.RateOutOfRange),
            (dict(circumference=1.0, n_walkers=0), errors.MTooSmall),
        ],
    )
    def test_continuous_rejects(self, kwargs, exc):
        with pytest.raises(exc):
            validate_continuous(ContinuousConfig(**kwargs))

    def test_continuous_accepts_valid(self):
        validate_continuous(ContinuousConfig(2.0, 1.0, 1.0, 3))


class TestCheckState:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5, 5.0])
    def test_position_outside_ring_rejected(self, bad):
        state = ContinuousState(np.array([0.0, bad]), np.array([1, -1]), 0)
        with pytest.raises(errors.NOutOfRange):
            check_state(state, 2, 5.0)

    def test_valid_state_accepted(self):
        check_state(ContinuousState(np.array([0.0, 4.5]), np.array([1, -1]), 1), 2, 5.0)


class TestCircleDelta:
    def test_basic(self):
        assert circle_delta(0.0, 0.25, 1.0) == 0.25
        assert circle_delta(0.75, 0.25, 1.0) == 0.5
        assert circle_delta(0.25, 0.0, 1.0) == 0.75

    def test_vectorized(self):
        a = np.array([0.0, 0.75, 0.25])
        b = np.array([0.25, 0.25, 0.0])
        np.testing.assert_allclose(circle_delta(a, b, 1.0), [0.25, 0.5, 0.75])

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

    def test_child_indices_distinct(self):
        spec = SeedSpec(11, 2)
        g0 = np.random.Generator(np.random.PCG64(spec.child(0)))
        g1 = np.random.Generator(np.random.PCG64(spec.child(1)))
        assert g0.random(4).tolist() != g1.random(4).tolist()
