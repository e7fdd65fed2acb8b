"""Closed forms against exact rational arithmetic and frozen values.

The rational oracles below were derived by hand with fractions.Fraction
before the float implementations existed; the frozen decimal values are
their float images.  If a formula regresses, these catch it without any
simulation noise.
"""
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ringrelay import closed_form as cf
from ringrelay import errors


def rational_speed(n: int, eps: Fraction) -> Fraction:
    return (1 - eps) / (2 * (1 + eps * (n - 2)))


def rational_direction(n: int, eps: Fraction) -> Fraction:
    return (3 + eps * (2 * n - 5)) / (4 * (1 + eps * (n - 2)))


class TestDiscreteForms:
    @pytest.mark.parametrize("n", [3, 5, 11, 101, 1001])
    @pytest.mark.parametrize("eps_num,eps_den", [(1, 20), (1, 10), (3, 10), (1, 2), (9, 10)])
    def test_speed_matches_rational(self, n, eps_num, eps_den):
        eps = Fraction(eps_num, eps_den)
        got = cf.speed_discrete(n, float(eps))
        assert got == pytest.approx(float(rational_speed(n, eps)), abs=1e-15)

    def test_cost_is_flip_prob_times_speed(self):
        for n in (3, 7, 25):
            for eps in (0.1, 0.5, 0.9):
                assert cf.cost_discrete(n, eps) == pytest.approx(
                    eps * cf.speed_discrete(n, eps), rel=1e-15
                )

    def test_frozen_values(self):
        # these exact decimals are pinned by the acceptance targets
        assert cf.speed_discrete(11, 0.1) == pytest.approx(
            0.23684210526315788, abs=1e-15
        )
        assert cf.cost_discrete(11, 0.1) == pytest.approx(
            0.023684210526315788, abs=1e-15
        )
        assert cf.direction_prob_discrete(5, 0.3) == pytest.approx(
            0.5921052631578947, abs=1e-15
        )
        assert cf.speed_discrete(301, 0.2) == pytest.approx(
            0.8 / (2 * 60.8), abs=1e-15
        )

    def test_direction_matches_rational(self):
        for n in (3, 5, 11):
            for num, den in [(1, 10), (3, 10), (7, 10)]:
                eps = Fraction(num, den)
                assert cf.direction_prob_discrete(n, float(eps)) == pytest.approx(
                    float(rational_direction(n, eps)), abs=1e-15
                )

    @given(
        n=st.integers(min_value=1, max_value=200).map(lambda k: 2 * k + 1),
        eps=st.floats(min_value=1e-6, max_value=1 - 1e-6),
    )
    def test_ranges(self, n, eps):
        s = cf.speed_discrete(n, eps)
        p = cf.direction_prob_discrete(n, eps)
        assert 0 < s < 0.5
        assert 0.5 < p < 1  # the carrier is biased clockwise
        assert 0 < cf.cost_discrete(n, eps) < s

    def test_speed_decreasing_in_eps_and_n(self):
        for n in (5, 11):
            eps_grid = [0.05 * k for k in range(1, 20)]
            vals = [cf.speed_discrete(n, e) for e in eps_grid]
            assert all(a > b for a, b in zip(vals, vals[1:]))
        for eps in (0.1, 0.5):
            vals = [cf.speed_discrete(n, eps) for n in (3, 5, 7, 11, 25)]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_cost_concave_in_eps(self):
        # second differences of a concave function are negative
        for n in (5, 11, 51):
            eps_grid = [0.05 * k for k in range(1, 20)]
            vals = [cf.cost_discrete(n, e) for e in eps_grid]
            second = [a - 2 * b + c for a, b, c in zip(vals, vals[1:], vals[2:])]
            assert all(d < 0 for d in second)

    def test_validation(self):
        with pytest.raises(errors.RelayError, match="must be odd"):
            cf.speed_discrete(4, 0.1)
        with pytest.raises(errors.RelayError, match="at least 3 sites"):
            cf.speed_discrete(1, 0.1)
        with pytest.raises(errors.RelayError, match="flip probability must lie in"):
            cf.speed_discrete(5, 0.0)
        with pytest.raises(errors.RelayError, match="flip probability must lie in"):
            cf.speed_discrete(5, 1.0)


class TestContinuousForms:
    def test_frozen_values(self):
        assert cf.speed_continuous(2.0, 1.0, 1.0) == pytest.approx(0.25, abs=0)
        assert cf.cost_continuous(2.0, 1.0, 1.0) == pytest.approx(0.25, abs=0)
        assert cf.direction_prob_continuous(2.0, 1.0, 1.0) == pytest.approx(
            0.625, abs=0
        )
        assert cf.speed_continuous(1.0, 1.0, 1.0) == pytest.approx(1 / 3)
        assert cf.cost_continuous(1.0, 1.0, 1.0) == pytest.approx(1 / 3)

    @given(
        n=st.floats(min_value=0.01, max_value=100),
        v=st.floats(min_value=0.01, max_value=100),
        r=st.floats(min_value=0.01, max_value=100),
    )
    def test_dimensionless_collapse(self, n, v, r):
        alpha = r * n / v
        d = cf.dimensionless(alpha)
        assert cf.speed_continuous(n, v, r) == pytest.approx(v * d, rel=1e-12)
        assert cf.cost_continuous(n, v, r) == pytest.approx(r * d, rel=1e-12)
        assert d == pytest.approx(1 / (2 + alpha), rel=1e-12)

    def test_direction_prob_range(self):
        for alpha in (0.01, 1.0, 100.0):
            p = cf.direction_prob_continuous(alpha, 1.0, 1.0)
            assert 0.5 < p < 0.75 + 1e-12

    def test_validation(self):
        with pytest.raises(errors.RelayError, match="circumference must be > 0"):
            cf.speed_continuous(0.0, 1.0, 1.0)
        with pytest.raises(errors.RelayError, match="speed must be > 0"):
            cf.speed_continuous(1.0, -1.0, 1.0)
        with pytest.raises(errors.RelayError, match="switch rate must be > 0"):
            cf.speed_continuous(1.0, 1.0, 0.0)
        with pytest.raises(errors.RelayError, match="alpha must be > 0"):
            cf.dimensionless(0.0)

    @pytest.mark.parametrize(
        "form", [cf.speed_continuous, cf.cost_continuous, cf.direction_prob_continuous])
    def test_int_parameters_give_the_equal_floats_value(self, form):
        # v * v and r * v past the float range raised OverflowError in ints
        got = form(2, 10**300, 10**300)
        assert got == form(2.0, 1e300, 1e300) and type(got) is float
        assert form(3, 2, 1) == form(3.0, 2.0, 1.0)

    @pytest.mark.parametrize("alpha", ["a", math.inf, True, None, 10**400],
                             ids=["str", "inf", "bool", "none", "huge-int"])
    def test_dimensionless_takes_only_a_finite_positive_real(self, alpha):
        # alpha = r N / v is finite for every valid config
        with pytest.raises(errors.RelayError, match="alpha must be > 0 and finite"):
            cf.dimensionless(alpha)


def cost_error(n, rate, circ, v=1.0):
    """Relative gap between the rate-normalised lattice cost and the
    continuum cost, from the closed forms."""
    eps = circ * rate / (2 * n * v)
    target = cf.cost_continuous(circ, v, rate)
    return abs((rate / eps) * cf.cost_discrete(n, eps) - target) / target


class TestScalingLimit:
    def test_error_is_one_over_6n_minus_4(self):
        # with eps = rN_c/(2Nv) the relative speed gap telescopes to 1/(6N-4);
        # the cost gap equals it, since cost = eps speed and (r/v) speed
        for n in (5, 21, 101, 1001):
            err = cf.scaling_limit_error(n, 1.0, 1.0)
            target = float(Fraction(1, 6 * n - 4))
            assert err == pytest.approx(target, abs=1e-12)
            assert cost_error(n, 1.0, 1.0) == pytest.approx(err, abs=1e-12)

    def test_frozen_display_values(self):
        assert round(cf.scaling_limit_error(5, 1.0, 1.0), 4) == 0.0385
        assert round(cf.scaling_limit_error(101, 1.0, 1.0), 5) == 0.00166

    def test_decreasing_in_n(self):
        errs = [cf.scaling_limit_error(n, 1.0, 1.0) for n in (5, 21, 101, 1001)]
        assert all(a > b for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 0.002

    def test_general_parameters(self):
        # same telescoping with non-unit rate and circumference
        n, rate, circ, v = 25, 0.7, 2.0, 1.3
        eps = circ * rate / (2 * n * v)
        s_lattice = cf.speed_discrete(n, eps)
        s_limit = cf.speed_continuous(circ, v, rate) / v
        expected = abs(s_lattice / s_limit - 1.0)
        got = cf.scaling_limit_error(n, rate, circ, v)
        assert got == pytest.approx(expected, rel=1e-12)
        assert cost_error(n, rate, circ, v) == pytest.approx(got, abs=1e-12)

    def test_rejects_unusable_lattice(self):
        # flip probability must stay inside (0, 1)
        with pytest.raises(errors.RelayError, match="flip probability must lie in"):
            cf.scaling_limit_error(3, 10.0, 1.0, 0.1)


def test_infinite_n_limit_vanishes():
    assert cf.speed_discrete(100001, 0.5) < 1e-4
    assert math.isclose(
        cf.direction_prob_discrete(100001, 0.5), 0.5, abs_tol=1e-4
    )
