"""Exact finite-state machinery, checked against independent oracles.

Oracles here avoid the production code paths entirely: stationary laws
come from repeated squaring of the dense transition matrix, hitting
probabilities and mean return times from their own dense linear solves,
and a couple of small cases were worked by hand (N=3 with a fair flip
gives a wrap probability of exactly 1/3).
"""
import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import fd_slope
from ringrelay import closed_form as cf
from ringrelay import errors, exact
from ringrelay.model import ContinuousConfig

EPS_GRID = (0.05, 0.3, 0.5, 0.9)


def transition_matrix(chain: exact.ReducedChain) -> scipy.sparse.csr_matrix:
    """The one-round kernel as a CSR matrix, (state, outcome) triplets in
    order, from the chain's next states and outcome probabilities."""
    k = chain.n_states
    return scipy.sparse.coo_matrix(
        (np.tile(chain.prob, k), (np.repeat(np.arange(k), 4), chain.next_state.ravel())),
        shape=(k, k),
    ).tocsr()


def dense_stationary_by_powers(chain: exact.ReducedChain) -> np.ndarray:
    p = transition_matrix(chain).toarray()
    for _ in range(60):  # P^(2^60) is stationary to double precision
        p = p @ p
        p /= p.sum(axis=1, keepdims=True)
    return p[0]


def chain_states(chain: exact.ReducedChain) -> list:
    """The chain's states (gap, d1, d2, carrier), in index order."""
    return list(zip(*(a.tolist() for a in exact._decode(chain.codes))))


def chain_index(chain: exact.ReducedChain) -> dict:
    return {state: k for k, state in enumerate(chain_states(chain))}


def loop_chain(n: int, eps: float):
    """The reduced chain enumerated state by state and outcome by outcome:
    states, index, COO triplets in (state, outcome) order, jump_prob."""
    states = [
        (gap, d1, d2, carrier)
        for gap in range(n)
        for d1 in (1, -1)
        for d2 in (1, -1)
        for carrier in (0, 1)
        if not (gap == 0 and (d1, d2) == ((-1, 1) if carrier == 0 else (1, -1)))
    ]
    index = {s: k for k, s in enumerate(states)}
    outcomes = [(1, 1, (1 - eps) * (1 - eps)), (1, -1, (1 - eps) * eps),
                (-1, 1, eps * (1 - eps)), (-1, -1, eps * eps)]
    rows, cols, vals = [], [], []
    jump_prob = np.zeros(len(states))
    for src, (gap, d1, d2, carrier) in enumerate(states):
        new_gap = (gap + d1 - d2) % n
        for s1, s2, prob in outcomes:
            nd1, nd2 = d1 * s1, d2 * s2
            new_carrier = carrier
            if new_gap == 0:
                if carrier == 0 and nd1 == -1 and nd2 == 1:
                    new_carrier = 1
                elif carrier == 1 and nd2 == -1 and nd1 == 1:
                    new_carrier = 0
            if new_carrier != carrier:
                jump_prob[src] += prob
            rows.append(src)
            cols.append(index[(new_gap, nd1, nd2, new_carrier)])
            vals.append(prob)
    return states, index, (vals, (rows, cols)), jump_prob


class TestReducedChain:
    @pytest.mark.parametrize("n", [3, 5, 11, 101, 999])
    @pytest.mark.parametrize("eps", (0.1, 1 / 3, *EPS_GRID))
    def test_matches_loop_enumeration_bit_for_bit(self, n, eps):
        chain = exact.build_reduced_chain(n, eps)
        states, index, triplets, jump_prob = loop_chain(n, eps)
        oracle = scipy.sparse.coo_matrix(triplets, shape=(len(states),) * 2).tocsr()
        assert chain_states(chain) == states and chain_index(chain) == index
        transition = transition_matrix(chain)
        for name in ("data", "indices", "indptr"):
            got, want = getattr(transition, name), getattr(oracle, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert chain.jump_prob.tobytes() == jump_prob.tobytes()

    @pytest.mark.parametrize("n", [3, 5, 11])
    def test_state_count(self, n):
        chain = exact.build_reduced_chain(n, 0.3)
        assert chain.n_states == 8 * n - 2

    def test_excluded_states_absent(self):
        index = chain_index(exact.build_reduced_chain(5, 0.3))
        assert (0, -1, 1, 0) not in index
        assert (0, 1, -1, 1) not in index
        assert (0, 1, -1, 0) in index
        assert (0, -1, 1, 1) in index

    @pytest.mark.parametrize("n", [3, 7])
    @pytest.mark.parametrize("eps", EPS_GRID)
    def test_rows_are_stochastic(self, n, eps):
        chain = exact.build_reduced_chain(n, eps)
        transition = transition_matrix(chain)
        rows = np.asarray(transition.sum(axis=1)).ravel()
        np.testing.assert_allclose(rows, 1.0, atol=1e-14)
        assert transition.min() >= 0

    @pytest.mark.parametrize("n", [3, 5, 11])
    @pytest.mark.parametrize("eps", EPS_GRID)
    def test_stationary_matches_matrix_powers(self, n, eps):
        chain = exact.build_reduced_chain(n, eps)
        pi, _ = exact.stationary(chain)
        oracle = dense_stationary_by_powers(chain)
        np.testing.assert_allclose(pi, oracle, atol=1e-12)

    @pytest.mark.parametrize("n", [3, 5, 11])
    @pytest.mark.parametrize("eps", EPS_GRID)
    def test_position_direction_marginal_is_uniform(self, n, eps):
        # summing out the carrier must leave the uniform law on
        # (gap, d1, d2): each cell carries exactly 1/(4N)
        chain = exact.build_reduced_chain(n, eps)
        pi, _ = exact.stationary(chain)
        marginal = {}
        for state, idx in chain_index(chain).items():
            key = state[:3]
            marginal[key] = marginal.get(key, 0.0) + pi[idx]
        assert len(marginal) == 4 * n
        np.testing.assert_allclose(
            sorted(marginal.values()), 1.0 / (4 * n), atol=1e-12
        )

    def test_speed_small_case_by_hand(self):
        # N=3, fair flip: s = (1-eps)/(2(1+eps)) = 1/6
        assert exact.exact_metrics(3, 0.5).speed == pytest.approx(1 / 6, abs=1e-12)

    @pytest.mark.parametrize("n", [3, 5, 25])
    @pytest.mark.parametrize("eps", EPS_GRID)
    def test_metrics_match_closed_forms(self, n, eps):
        m = exact.exact_metrics(n, eps)
        assert m.speed == pytest.approx(cf.speed_discrete(n, eps), abs=1e-12)
        assert m.cost == pytest.approx(cf.cost_discrete(n, eps), abs=1e-12)
        assert m.residual < 1e-12

    def test_large_ring_matches_closed_forms(self):
        # a large ring: cyclic reduction takes about log2(N) levels
        m = exact.exact_metrics(3001, 0.1)
        assert m.n_states == 8 * 3001 - 2
        assert m.speed == pytest.approx(cf.speed_discrete(3001, 0.1), abs=1e-10)
        assert m.cost == pytest.approx(cf.cost_discrete(3001, 0.1), abs=1e-10)
        assert m.residual < 1e-12

    @pytest.mark.parametrize("n", [5, 101, 3001])
    @pytest.mark.parametrize("eps", [1e-8, 1e-12, 1e-16, 1e-300])
    def test_small_flip_probability_matches_closed_forms(self, n, eps):
        # a same-direction state leaves itself with probability ~2 eps, so
        # a solve that formed 1 - P(s, s) would lose every digit by 1e-16
        m = exact.exact_metrics(n, eps)
        assert abs(m.speed - cf.speed_discrete(n, eps)) <= 1e-13
        assert abs(m.cost / cf.cost_discrete(n, eps) - 1) <= 1e-13
        a = 2 * cf.speed_discrete(n, eps)
        assert abs(exact.solve_trace_bvp(n, eps).crossing_prob - a) <= 1e-13
        assert abs(exact.hitting_prob_oracle(n, eps) - a) <= 1e-13

    def test_mean_return_time_is_twice_n(self):
        # independent oracle: dense first-passage solve back to the
        # post-handoff contact states; Kac then forces E(T) = 2N
        for n, eps in [(3, 0.5), (5, 0.3), (7, 0.8)]:
            chain = exact.build_reduced_chain(n, eps)
            p = transition_matrix(chain).toarray()
            index = chain_index(chain)
            regen = [index[(0, 1, -1, 0)], index[(0, -1, 1, 1)]]
            mask = np.ones(chain.n_states, dtype=bool)
            mask[regen] = False
            q = p[np.ix_(mask, mask)]
            # expected steps to reach the contact set from each state
            t_hit = np.linalg.solve(np.eye(q.shape[0]) - q, np.ones(q.shape[0]))
            full = np.zeros(chain.n_states)
            full[mask] = t_hit
            for s in regen:
                ret = 1.0 + p[s] @ full
                assert ret == pytest.approx(2 * n, rel=1e-12)

    def test_rejects_bad_parameters(self):
        with pytest.raises(errors.RelayError, match="must be odd"):
            exact.build_reduced_chain(6, 0.3)
        with pytest.raises(errors.RelayError, match="flip probability must lie in"):
            exact.build_reduced_chain(5, 1.0)


class TestTraceBvp:
    def test_hand_solved_case(self):
        sol = exact.solve_trace_bvp(3, 0.5)
        assert sol.crossing_prob == pytest.approx(1 / 3, abs=1e-14)
        np.testing.assert_allclose(sol.f, [1 / 3, 2 / 3, 1.0], atol=1e-14)
        np.testing.assert_allclose(sol.g, [-1 / 3, 0.0, 1 / 3], atol=1e-14)

    @pytest.mark.parametrize("n", [3, 5, 11, 101])
    @pytest.mark.parametrize("eps", EPS_GRID)
    def test_three_routes_agree(self, n, eps):
        sol = exact.solve_trace_bvp(n, eps)
        a = sol.crossing_prob
        assert a == pytest.approx(exact.hitting_prob_oracle(n, eps), abs=1e-12)
        assert a == pytest.approx((1 - eps) / (1 + eps * (n - 2)), abs=1e-12)
        assert exact.exact_metrics(n, eps).speed == pytest.approx(a / 2, abs=1e-12)

    @pytest.mark.parametrize("n", [3, 5, 11])
    @pytest.mark.parametrize("eps", EPS_GRID)
    def test_difference_is_constant(self, n, eps):
        # f(k) - g(k) is independent of k and equals the wrap probability
        sol = exact.solve_trace_bvp(n, eps)
        diffs = [sol.f[k] - sol.g[k + 1] for k in range(n - 1)]
        np.testing.assert_allclose(diffs, sol.crossing_prob, atol=1e-12)

    def test_boundary_values(self):
        sol = exact.solve_trace_bvp(7, 0.25)
        assert sol.g[1] == pytest.approx(0.0, abs=1e-14)
        assert sol.f[6] == pytest.approx(1.0, abs=1e-14)
        # the formal k=-1 value that closes the recursion
        a = sol.crossing_prob
        assert sol.g[0] == pytest.approx(-a * 0.25 / 0.75, abs=1e-12)

    def test_residual_small(self):
        for n, eps in [(3, 0.5), (11, 0.1), (101, 0.9)]:
            assert exact.bvp_residual(exact.solve_trace_bvp(n, eps)) < 1e-12

    @pytest.mark.parametrize("eps", [0.05, 0.3, 0.9])
    def test_large_ring_matches_closed_form(self, eps):
        n = 2999
        sol = exact.solve_trace_bvp(n, eps)
        a = (1 - eps) / (1 + eps * (n - 2))
        assert abs(sol.crossing_prob - a) <= 1e-10
        assert abs(exact.hitting_prob_oracle(n, eps) - a) <= 1e-10
        assert exact.bvp_residual(sol) < 1e-12

    def test_crossing_prob_decreasing_in_eps(self):
        vals = [exact.solve_trace_bvp(9, e).crossing_prob for e in EPS_GRID]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestPotentials:
    CFG = ContinuousConfig(1.0, 1.0, 1.0)

    @staticmethod
    def value(field, gap, d0, d1, carrier, cfg=CFG):
        """A potential's value at walker 0 a clockwise gap ahead of walker 1."""
        value, _ = field(cfg)(gap, d0, d1, carrier)
        return value

    def test_h_frozen_example(self):
        h = self.value(exact.h_field, 0.25, 1, 1, 0)
        assert h == pytest.approx(0.59375, abs=1e-15)

    def test_h_on_contact_set(self):
        h = self.value(exact.h_field, 0.0, 1, -1, 0)
        assert h == pytest.approx(-0.5, abs=1e-15)

    def test_v_frozen_example(self):
        v = self.value(exact.v_field, 0.5, 1, -1, 0)
        assert v == pytest.approx(2.5 / 3, abs=1e-15)

    def test_v_undefined_on_contact_set(self):
        with pytest.raises(errors.RelayError, match="undefined at a contact"):
            self.value(exact.v_field, 0.0, 1, -1, 0)

    def test_gap_convention(self):
        # V is linear in the carrier's gap, (r gap + v) / (r N + 2 v) here:
        # on a ring of 2, walker 1 carrying 0.5 behind walker 0 is 1.5 ahead
        cfg = ContinuousConfig(2.0)
        assert self.value(exact.v_field, 0.5, 1, 1, 0, cfg) == pytest.approx(
            1.5 / 4, abs=1e-15)
        assert self.value(exact.v_field, 0.5, 1, 1, 1, cfg) == pytest.approx(
            2.5 / 4, abs=1e-15)

    def test_v_is_a_probability(self):
        cfg = ContinuousConfig(2.0, 1.3, 0.7)
        rng = np.random.default_rng(0)
        for _ in range(200):
            v = self.value(
                exact.v_field,
                float(rng.uniform(1e-6, 2.0 - 1e-6)),
                int(1 - 2 * rng.integers(2)),
                int(1 - 2 * rng.integers(2)),
                int(rng.integers(2)),
                cfg,
            )
            assert 0.0 <= v <= 1.0

    @given(
        gap=st.floats(min_value=1e-3, max_value=0.999),
        d0=st.sampled_from([1, -1]),
        d1=st.sampled_from([1, -1]),
        carrier=st.sampled_from([0, 1]),
    )
    def test_relabel_invariance(self, gap, d0, d1, carrier):
        # swapping walker labels turns the gap into (N - gap) mod N and
        # flips the carrier index: both potentials keep their value, and
        # their slope in the gap changes sign
        for field in (exact.h_field, exact.v_field):
            potential = field(self.CFG)
            value, slope = potential(gap, d0, d1, carrier)
            swapped, swapped_slope = potential((1.0 - gap) % 1.0, d1, d0, 1 - carrier)
            assert swapped == pytest.approx(value, rel=1e-12)
            assert swapped_slope == pytest.approx(-slope, rel=1e-12)


def random_states(rng, cfg, count, low=0.01, high=0.99):
    """count off-contact states (gap, directions, carrier), the gap
    uniform on [low, high) of the circumference."""
    for _ in range(count):
        gap = float(rng.uniform(low, high)) * cfg.circumference
        yield gap, 1 - 2 * rng.integers(0, 2, size=2), int(rng.integers(2))


class TestGenerator:
    def test_known_value_on_smooth_function(self):
        # f = d0 sin(2 pi gap) at gap 1/8, directions (1, -1): the gap
        # grows at 2 v, so transport gives 2 v 2 pi cos(pi / 4); reversing
        # walker 0 takes f from sin(pi / 4) to -sin(pi / 4), walker 1
        # leaves it, so switching gives -2 r sin(pi / 4)
        cfg = ContinuousConfig(1.0, 1.0, 1.0)

        def f(gap, d0, d1, carrier):
            return d0 * np.sin(2 * np.pi * gap), 2 * np.pi * d0 * np.cos(2 * np.pi * gap)

        got = exact.apply_generator(f, 0.125, [1, -1], 0, cfg)
        assert got == pytest.approx((4 * np.pi - 2) * np.sqrt(0.5), rel=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_identities_with_analytic_partials(self, seed):
        rng = np.random.default_rng(seed)
        cfg = ContinuousConfig(
            float(rng.uniform(0.5, 4.0)),
            float(rng.uniform(0.5, 2.0)),
            float(rng.uniform(0.3, 2.0)),
        )
        h, v = exact.h_field(cfg), exact.v_field(cfg)
        for gap, d, carrier in random_states(rng, cfg, 50):
            lh = exact.apply_generator(h, gap, d, carrier, cfg)
            lv = exact.apply_generator(v, gap, d, carrier, cfg)
            assert lh == pytest.approx(-1.0, abs=1e-12)
            assert lv == pytest.approx(0.0, abs=1e-12)

    def test_finite_differences_agree_with_partials(self):
        cfg = ContinuousConfig(2.0, 1.1, 0.9)
        rng = np.random.default_rng(3)
        for field in (exact.h_field, exact.v_field):
            potential = field(cfg)
            numeric = fd_slope(lambda *state: potential(*state)[0], cfg)
            for gap, (d0, d1), carrier in random_states(rng, cfg, 20, 0.05, 0.95):
                _, analytic = potential(gap, d0, d1, carrier)
                _, slope = numeric(gap, d0, d1, carrier)
                assert slope == pytest.approx(analytic, abs=1e-6)
                assert exact.apply_generator(
                    numeric, gap, [d0, d1], carrier, cfg) == pytest.approx(
                    exact.apply_generator(potential, gap, [d0, d1], carrier, cfg),
                    abs=1e-6)

    @pytest.mark.parametrize("gap,directions,carrier", [
        pytest.param(-0.1, [1, -1], 0, id="negative-gap"),
        pytest.param(2.0, [1, -1], 0, id="gap-a-full-lap"),
        pytest.param(float("nan"), [1, -1], 0, id="nan-gap"),
        pytest.param(0.5, [1, -1, 1], 0, id="three-directions"),
        pytest.param(0.5, [1, 0], 0, id="zero-direction"),
        pytest.param(0.5, [1, -1], 2, id="carrier-2"),
    ])
    def test_rejects_malformed_state(self, gap, directions, carrier):
        cfg = ContinuousConfig(2.0)
        with pytest.raises(errors.RelayError, match="the generator needs"):
            exact.apply_generator(exact.h_field(cfg), gap, directions, carrier, cfg)
