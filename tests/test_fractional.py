import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from secrelay import fractional
from secrelay.af import af_batch
from secrelay.fractional import (
    LambdaSolution,
    RatioQuadraticProblem,
    SolverBranch,
    eval_F,
    eval_f,
    grid_oracle,
    lambda_hat_bisection,
    lambda_hat_closed_form,
    maximize_on_interval,
    pi_of_lambda,
    x_of_lambda,
)

# Reference problem used throughout: alpha=4, beta=1, mu=2.
PROB_SMALL = RatioQuadraticProblem(4.0, 1.0, 2.0, 0.25)
PROB_WIDE = RatioQuadraticProblem(4.0, 1.0, 2.0, 1.0)

N_DRAWS = 300

# Bisection witnesses with huge coefficients, as (alpha, beta, mu, p_r/mu).
MU_TOP = 4.0637796884638095e+70
MU_INF = 9.182955741725557e+39
WITNESS_INF = (1.497376988830621e+129, 2.507497317682244e+82, MU_INF, 1.461411446535263e+106 / MU_INF)


def random_problem(rng, positive_rate=True):
    while True:
        a, b = rng.exponential(1.0, 2)
        mu = rng.uniform(1.0, 20.0)
        x_max = rng.uniform(0.0, 50.0) / mu
        if not positive_rate:
            return RatioQuadraticProblem(a, b, mu, x_max)
        if a > b and mu > 1.0 and x_max > 0.0:
            return RatioQuadraticProblem(a, b, mu, x_max)


def bracket_upper(prob):
    return prob.num_lin / prob.den_lin


class TestEvalF:
    def test_value_at_zero_is_one(self):
        assert eval_f(PROB_SMALL, 0.0) == 1.0

    def test_reference_point(self):
        # 3.75 / 3 computed from the quadratics directly.
        assert eval_f(RatioQuadraticProblem(4.0, 1.0, 2.0, 1.0), 0.25) == pytest.approx(1.25, abs=1e-15)

    def test_equal_links_make_ratio_one(self):
        prob = RatioQuadraticProblem(2.5, 2.5, 7.0, 10.0)
        for x in (0.0, 0.3, 2.0, 9.9):
            assert eval_f(prob, x) == 1.0

    def test_accepts_arrays(self):
        xs = np.linspace(0.0, 1.0, 11)
        vals = eval_f(PROB_WIDE, xs)
        assert vals.shape == xs.shape
        assert vals[0] == 1.0


class TestBlockedEvaluation:
    """`eval_f` evaluates long grids `_BLOCK` points at a time; the values must
    be those of one whole-array evaluation, bit for bit."""

    BLOCK = 64

    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
    def test_matches_single_block(self, monkeypatch, n):
        xs = np.linspace(0.0, PROB_WIDE.x_max, n)
        monkeypatch.setattr(fractional, "_BLOCK", 10**9)
        whole = eval_f(PROB_WIDE, xs)
        monkeypatch.setattr(fractional, "_BLOCK", self.BLOCK)
        blocked = eval_f(PROB_WIDE, xs)
        assert blocked.shape == xs.shape
        assert np.array_equal(blocked, whole)

    def test_long_grid_is_cut_into_blocks(self, monkeypatch):
        monkeypatch.setattr(fractional, "_BLOCK", self.BLOCK)
        sizes = []

        def double(x):
            sizes.append(np.size(x))
            return 2.0 * x

        xs = np.arange(2 * self.BLOCK + 3, dtype=float)
        assert np.array_equal(fractional._blockwise(double, xs), 2.0 * xs)
        assert sizes == [self.BLOCK, self.BLOCK, 3]
        sizes.clear()
        fractional._blockwise(double, xs[: self.BLOCK])
        fractional._blockwise(double, 0.5)
        assert sizes == [self.BLOCK, 1]
        # Written over the input, block by block, and over a short input whole.
        for n, blocks in ((2 * self.BLOCK + 3, [self.BLOCK, self.BLOCK, 3]), (5, [5])):
            sizes.clear()
            ys = xs[:n].copy()
            assert fractional._blockwise(double, ys, out=ys) is ys
            assert np.array_equal(ys, 2.0 * xs[:n])
            assert sizes == blocks

    @pytest.mark.parametrize("n", [1, BLOCK, 2 * BLOCK + 3])
    def test_output_over_input_matches_fresh_output(self, monkeypatch, n):
        monkeypatch.setattr(fractional, "_BLOCK", self.BLOCK)
        xs = np.linspace(0.0, PROB_WIDE.x_max, n)
        kept = xs.copy()
        fresh = eval_f(PROB_WIDE, xs)
        assert np.array_equal(xs, kept)  # out=None leaves the input alone
        assert eval_f(PROB_WIDE, xs, out=xs) is xs
        assert np.array_equal(xs, fresh)

    def test_default_grid_matches_single_block(self, monkeypatch):
        xs = np.linspace(0.0, PROB_WIDE.x_max, 200_001)
        blocked = eval_f(PROB_WIDE, xs)
        monkeypatch.setattr(fractional, "_BLOCK", 10**9)
        assert np.array_equal(blocked, eval_f(PROB_WIDE, xs))

    def test_scalar_and_size_one_types(self, monkeypatch):
        monkeypatch.setattr(fractional, "_BLOCK", 1)
        assert type(eval_f(PROB_WIDE, 0.3)) is float
        one = eval_f(PROB_WIDE, np.array([0.3]))
        assert isinstance(one, np.ndarray) and one.shape == (1,)
        assert one[0] == eval_f(PROB_WIDE, 0.3)


class TestGridPoint:
    """The grid points `maximize_on_interval` brackets with, recomputed
    without the grid array: those of `np.linspace`, bit for bit."""

    N = 200_001

    # At 5e-324 the step underflows to 0 and numpy scales k/(N-1) instead.
    @pytest.mark.parametrize("x_max", [3.0, 1e-300, 5e-324, 1e308])
    def test_matches_linspace(self, x_max):
        grid = np.linspace(0.0, x_max, self.N)
        for k in (0, 1, self.N // 2, self.N - 2, self.N - 1):
            got = fractional._grid_point(x_max, self.N, k)
            assert type(got) is float
            assert got == grid[k] and math.copysign(1.0, got) == 1.0


class TestGridMemory:
    """A grid scan writes its values over the grid, so it holds one
    full-size array plus a block's temporaries, not a grid and a value
    array."""

    def test_oracle_peak_below_two_grid_arrays(self):
        n = 200_001
        prob = RatioQuadraticProblem(4.0, 1.0, 2.0, 3.0)
        expected = grid_oracle(prob, n)
        tracemalloc.start()
        try:
            got = grid_oracle(prob, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == expected
        assert peak < 2 * 8 * n


class TestEvalF_lambda:
    def test_lambda_one_at_origin(self):
        assert eval_F(PROB_SMALL, 0.0, 1.0) == 0.0

    def test_lambda_one_is_linear(self):
        prob = PROB_WIDE
        for x in (0.1, 0.5, 1.0):
            expected = (prob.alpha - prob.beta) * (prob.mu - 1.0) * x
            assert eval_F(prob, x, 1.0) == pytest.approx(expected, abs=1e-15)

    def test_vanishes_at_optimum(self):
        assert abs(eval_F(PROB_SMALL, 0.25, 1.25)) <= 1e-15


class TestXOfLambda:
    def test_lambda_one_returns_endpoint(self):
        assert x_of_lambda(PROB_WIDE, 1.0) == PROB_WIDE.x_max

    def test_lambda_one_returns_endpoint_where_threshold_overflows(self):
        # 2*a*x_max is inf, so the threshold quotient is inf/inf = nan.
        prob = RatioQuadraticProblem(1e200, 1e100, 2.0, 1e10)
        assert x_of_lambda(prob, 1.0) == prob.x_max
        assert pi_of_lambda(prob, 1.0) == pytest.approx(1e210, rel=1e-12)

    def test_interior_point_matches_dense_scan(self):
        # Oracle: argmax of F(., 1.4) on a dense grid over [0, 1].
        lam = 1.4
        xs = np.linspace(0.0, 1.0, 200_001)
        scan = xs[np.argmax(eval_F(PROB_WIDE, xs, lam))]
        x = x_of_lambda(PROB_WIDE, lam)
        assert x == pytest.approx(0.09375, abs=1e-12)
        assert x == pytest.approx(scan, abs=1e-5)

    def test_branches_agree_at_threshold(self):
        prob = PROB_WIDE
        a = prob.quad
        thr = (2.0 * a * prob.x_max + prob.num_lin) / (2.0 * a * prob.x_max + prob.den_lin)
        assert x_of_lambda(prob, thr) == prob.x_max
        just_inside = thr + 1e-12 * (bracket_upper(prob) - thr)
        assert x_of_lambda(prob, just_inside) == pytest.approx(prob.x_max, rel=1e-6)

    def test_rejects_lambda_outside_bracket(self):
        with pytest.raises(ValueError):
            x_of_lambda(PROB_WIDE, 0.99)
        with pytest.raises(ValueError):
            x_of_lambda(PROB_WIDE, bracket_upper(PROB_WIDE) + 1e-9)

    def test_always_feasible(self):
        rng = np.random.default_rng(11)
        for _ in range(N_DRAWS):
            prob = random_problem(rng)
            lam = rng.uniform(1.0, bracket_upper(prob))
            x = x_of_lambda(prob, lam)
            assert 0.0 <= x <= prob.x_max


class TestPiOfLambda:
    def test_value_at_one(self):
        # (alpha - beta) * (mu - 1) = 3 for the reference problem.
        assert pi_of_lambda(PROB_WIDE, 1.0) == pytest.approx(3.0, abs=1e-15)

    def test_value_at_bracket_top(self):
        upper = bracket_upper(PROB_WIDE)
        assert pi_of_lambda(PROB_WIDE, upper) == pytest.approx(1.0 - upper, abs=1e-12)
        assert pi_of_lambda(PROB_WIDE, upper) == pytest.approx(-0.5, abs=1e-12)

    def test_root_location_small_domain(self):
        # Root cross-checked against the bisection solver below.
        assert abs(pi_of_lambda(PROB_SMALL, 1.25)) <= 1e-15
        assert lambda_hat_bisection(PROB_SMALL).lambda_hat == pytest.approx(1.25, abs=1e-12)

    def test_matches_expanded_branch_formulas(self):
        # Reference: pi written out per branch. Up to the threshold where
        # dF/dx at x_max is 0, x_max maximizes F and pi is affine in lambda;
        # past it the interior stationary point does, and pi = t^2/(4a(lambda-1))
        # - lambda + 1 with t = lambda*d1 - n1.
        rng = np.random.default_rng(12)
        for _ in range(N_DRAWS):
            prob = random_problem(rng)
            lam = rng.uniform(1.0, bracket_upper(prob))
            a, x, n1, d1 = prob.quad, prob.x_max, prob.num_lin, prob.den_lin
            if lam <= (2.0 * a * x + n1) / (2.0 * a * x + d1):
                expected = (-a * x * x - d1 * x - 1.0) * lam + a * x * x + n1 * x + 1.0
            else:
                t = lam * d1 - n1
                expected = t * t / (4.0 * a * (lam - 1.0)) - lam + 1.0
            scale = 1.0 + prob.quad * prob.x_max**2 + prob.num_lin * prob.x_max
            assert pi_of_lambda(prob, lam) == pytest.approx(expected, abs=1e-12 * scale)

    def test_sign_structure(self):
        # pi(1) = (alpha - beta)*(mu - 1)*x_max exactly; positive on one end of
        # the bracket, negative on the other, which is what makes the
        # bisection bracket valid.
        rng = np.random.default_rng(13)
        for _ in range(N_DRAWS):
            prob = random_problem(rng)
            upper = bracket_upper(prob)
            expected_start = (prob.alpha - prob.beta) * (prob.mu - 1.0) * prob.x_max
            assert pi_of_lambda(prob, 1.0) == pytest.approx(expected_start, rel=1e-12)
            assert pi_of_lambda(prob, 1.0) > 0.0
            assert pi_of_lambda(prob, upper) == pytest.approx(1.0 - upper, rel=1e-9)
            assert pi_of_lambda(prob, upper) < 0.0

    def test_strictly_decreasing(self):
        rng = np.random.default_rng(14)
        for _ in range(N_DRAWS):
            prob = random_problem(rng)
            upper = bracket_upper(prob)
            la, lb = sorted(rng.uniform(1.0, upper, 2))
            if la == lb:
                continue
            assert pi_of_lambda(prob, la) > pi_of_lambda(prob, lb)


class TestSolvers:
    def test_closed_form_endpoint_branch(self):
        sol = lambda_hat_closed_form(PROB_SMALL)
        assert sol.branch is SolverBranch.ENDPOINT
        assert sol.lambda_hat == pytest.approx(1.25, abs=1e-12)
        assert sol.x_hat == 0.25

    def test_closed_form_interior_branch(self):
        sol = lambda_hat_closed_form(PROB_WIDE)
        assert sol.branch is SolverBranch.INTERIOR
        # Frozen from the bisection root (independent path).
        assert sol.lambda_hat == pytest.approx(1.2573593128807148, abs=1e-12)
        assert sol.x_hat == pytest.approx(1.0 / math.sqrt(8.0), abs=1e-15)

    def test_bisection_matches_closed_form_on_examples(self):
        for prob in (PROB_SMALL, PROB_WIDE):
            a = lambda_hat_closed_form(prob)
            b = lambda_hat_bisection(prob)
            assert abs(a.lambda_hat - b.lambda_hat) <= 1e-12

    def test_branch_boundary_continuity_on_example(self):
        prob = RatioQuadraticProblem(4.0, 1.0, 2.0, 1.0 / math.sqrt(8.0))
        lam1 = eval_f(prob, prob.x_max)
        lam2 = lambda_hat_closed_form(RatioQuadraticProblem(4.0, 1.0, 2.0, 1.0)).lambda_hat
        assert abs(lam1 - lam2) <= 1e-9

    def test_closed_form_where_quad_overflows(self):
        # alpha*beta*mu overflows to inf while the peak, about 5.6e-182, is
        # normal: the maximizer must not come from quad.
        m = 3.795095897110841e+113
        prob = RatioQuadraticProblem(1.3775548425177469e+135, 6.315913602935973e+113, m,
                                     4.552877427674742e-56 / m)
        sol = lambda_hat_closed_form(prob)
        capacity, _ = af_batch(prob.alpha, prob.beta, m, 4.552877427674742e-56)
        assert capacity == pytest.approx(35.44276820349234, rel=1e-15)
        assert 0.5 * math.log2(sol.lambda_hat) == pytest.approx(float(capacity), rel=1e-12)
        assert sol.branch is SolverBranch.INTERIOR

    def test_degenerate_inputs(self):
        for prob in (
            RatioQuadraticProblem(1.0, 4.0, 2.0, 1.0),   # eavesdropper stronger
            RatioQuadraticProblem(3.0, 3.0, 2.0, 1.0),   # equal links
            RatioQuadraticProblem(4.0, 1.0, 1.0, 1.0),   # no first-hop SNR
            RatioQuadraticProblem(4.0, 1.0, 2.0, 0.0),   # empty domain
        ):
            for solver in (lambda_hat_closed_form, lambda_hat_bisection):
                sol = solver(prob)
                assert sol == LambdaSolution(1.0, 0.0, SolverBranch.DEGENERATE)

    def test_near_degenerate_mu(self):
        prob = RatioQuadraticProblem(2.0, 1.0, 1.0 + 1e-9, 1.0)
        sol = lambda_hat_bisection(prob)
        assert sol.lambda_hat == pytest.approx(1.0, abs=1e-8)
        assert eval_f(prob, sol.x_hat) == pytest.approx(1.0, abs=1e-8)

    def test_fallback_when_alpha_equals_beta_mu(self):
        # alpha = beta*mu exactly, where the quadratic in lambda that pi = 0
        # reduces to on the interior branch loses its leading term
        # (alpha - beta*mu)^2; interior branch taken since x_max > 1/sqrt(quad).
        prob = RatioQuadraticProblem(2.0, 1.0, 2.0, 1.0)
        sol = lambda_hat_closed_form(prob)
        assert abs(pi_of_lambda(prob, sol.lambda_hat)) <= 1e-9
        x_star, f_star = grid_oracle(prob, 100_001)
        assert sol.lambda_hat == pytest.approx(f_star, abs=1e-9)
        assert sol.x_hat == pytest.approx(x_star, abs=1e-6)

    def test_interior_root_equals_reduced_ratio(self):
        # The interior root collapses to (n1 + 2*sqrt(a)) / (d1 + 2*sqrt(a)),
        # the value of f at its peak 1/sqrt(a).
        rng = np.random.default_rng(15)
        for _ in range(N_DRAWS):
            prob = random_problem(rng)
            if prob.x_max <= 1.0 / math.sqrt(prob.quad):
                continue
            sol = lambda_hat_closed_form(prob)
            root = 2.0 * math.sqrt(prob.quad)
            reduced = (prob.num_lin + root) / (prob.den_lin + root)
            assert sol.lambda_hat == pytest.approx(reduced, rel=1e-12)


class TestSolverProperties:
    def test_bracket_roots_and_agreement(self):
        rng = np.random.default_rng(16)
        for _ in range(N_DRAWS):
            prob = random_problem(rng)
            upper = bracket_upper(prob)
            closed = lambda_hat_closed_form(prob)
            bisected = lambda_hat_bisection(prob)
            for sol in (closed, bisected):
                assert 1.0 <= sol.lambda_hat < upper
                assert abs(pi_of_lambda(prob, sol.lambda_hat)) <= 1e-9
                assert abs(eval_f(prob, sol.x_hat) - sol.lambda_hat) <= 1e-9
            assert abs(closed.lambda_hat - bisected.lambda_hat) <= 1e-9

    def test_oracle_agreement(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            prob = random_problem(rng)
            sol = lambda_hat_closed_form(prob)
            x_star, f_star = grid_oracle(prob, 200_001)
            assert abs(f_star - sol.lambda_hat) <= 1e-6
            assert abs(x_star - sol.x_hat) <= 1e-6 * max(1.0, prob.x_max)

    def test_branch_continuity_random(self):
        rng = np.random.default_rng(18)
        for _ in range(N_DRAWS):
            prob = random_problem(rng)
            a = prob.quad
            edge = RatioQuadraticProblem(prob.alpha, prob.beta, prob.mu, 1.0 / math.sqrt(a))
            lam1 = eval_f(edge, edge.x_max)
            root = 2.0 * math.sqrt(a)
            lam2 = (prob.num_lin + root) / (prob.den_lin + root)
            assert abs(lam1 - lam2) <= 1e-9


class TestBisectionRange:
    """The bisection at budgets where a*x_max^2 overflows, and with mu within
    a few ulps of 1, where n1/d1 rounds to 1 or to the next float."""

    @staticmethod
    def check(prob):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bisected = lambda_hat_bisection(prob)
        assert bisected.lambda_hat == pytest.approx(lambda_hat_closed_form(prob).lambda_hat, rel=1e-12)
        return bisected

    @pytest.mark.parametrize("case", [
        (4.0, 1.0, 2.0, 5e199),
        (7.0, 6.0, 1.0 + 2.0**-52, 1.0),  # n1 == d1: the bracket is a point
        (20.411317735881653, 2.0236876656051463, 1.0 + 2.0**-51, 3.1e135),  # pi(n1/d1) > 0
        # The root rounds to the bracket's top n1/d1, where x(lambda) = 0:
        # a Newton (Dinkelbach) step from there lands on f(0) = 1.
        (1.1203501894730687e+99, 1.2095338230605243e-43, MU_TOP, 3.761755023876066e+143 / MU_TOP),
        # 2*a*x_max overflows, so x(1) must not go through the threshold;
        # as Python floats and as numpy scalars, whose overflow would warn.
        WITNESS_INF,
        tuple(np.array(WITNESS_INF)),
    ])
    def test_witness_matches_closed_form(self, case):
        self.check(RatioQuadraticProblem(*case))

    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(
        st.floats(1e-3, 50.0),
        st.floats(1e-3, 50.0),
        st.floats(1.0, 20.0),
        st.floats(-10.0, 300.0),
    )
    def test_bisection_matches_closed_form_at_any_budget(self, alpha, beta, mu, log10_p_r):
        assume(alpha > beta)
        prob = RatioQuadraticProblem(alpha, beta, mu, 10.0**log10_p_r / mu)
        lam = self.check(prob).lambda_hat
        if bracket_upper(prob) - 1.0 > fractional._NARROW_BRACKET:
            # The bracket ends on adjacent floats, lambda_hat on the side where pi > 0.
            assert pi_of_lambda(prob, lam) > 0.0 >= pi_of_lambda(prob, math.nextafter(lam, math.inf))


class TestGridOracle:
    def test_reference_maximum(self):
        x_star, f_star = grid_oracle(PROB_SMALL, 1_000_000)
        assert x_star == pytest.approx(0.25, abs=1e-9)
        assert f_star == pytest.approx(1.25, abs=1e-12)

    def test_weak_destination_pins_origin(self):
        x_star, f_star = grid_oracle(RatioQuadraticProblem(1.0, 4.0, 3.0, 2.0), 10_001)
        assert x_star == pytest.approx(0.0, abs=1e-9)
        assert f_star == pytest.approx(1.0, abs=1e-12)

    def test_empty_domain(self):
        assert grid_oracle(RatioQuadraticProblem(4.0, 1.0, 2.0, 0.0), 100) == (0.0, 1.0)

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            grid_oracle(PROB_SMALL, 1)

    def test_maximize_on_interval_rejects_negative_domain(self):
        with pytest.raises(ValueError):
            maximize_on_interval(lambda x: x, -1.0)

    def test_section_search_one_evaluation_per_step(self):
        # Each golden-section step evaluates one new point; the first step
        # needs two and the final midpoint one more: at most 2 + steps.
        g = (math.sqrt(5.0) - 1.0) / 2.0
        for n_points, tol in ((11, 1e-12), (8, 1e-9), (1001, 1e-12), (2, 1e-6)):
            sizes = []

            def fun(x):
                sizes.append(np.size(x))
                return -(x - 0.3) ** 2

            xs = np.linspace(0.0, 1.0, n_points)
            i = int(np.argmax(fun(xs)))
            width = xs[min(i + 1, n_points - 1)] - xs[max(i - 1, 0)]
            steps = math.ceil(math.log(tol / width) / math.log(g))
            sizes.clear()
            maximize_on_interval(fun, 1.0, n_points, refine_tol=tol)
            assert sizes.count(n_points) == 1
            single = sizes.count(1)
            assert single == len(sizes) - 1
            assert steps <= single <= steps + 2

    def test_section_search_finds_unimodal_peak(self):
        for n_points in (2, 8, 101):
            for tol in (1e-12, 1e-8):
                x_star, f_star = maximize_on_interval(
                    lambda x: -(x - 0.3) ** 2, 1.0, n_points, refine_tol=tol)
                assert abs(x_star - 0.3) <= tol
                grid = np.linspace(0.0, 1.0, n_points)
                assert f_star >= -np.abs(grid - 0.3).min() ** 2

    def test_section_search_left_tie_rule(self):
        for n_points in (2, 5, 1001):
            x_star, f_star = maximize_on_interval(np.ones_like, 2.0, n_points)
            assert 0.0 <= x_star <= 1e-12
            assert f_star == 1.0

    def test_section_search_stops_where_float_spacing_exceeds_the_tolerance(self):
        """On this flat peak the oracle's value and argmax hold bounds counted
        from roundings (Higham 2002, ch. 2-3; u = 2**-53, first order).

        With y = sqrt(alpha*beta*mu)*x, f - 1 = c*y/(y^2 + d*y + 1) peaks at
        y = 1, with c = (alpha-beta)/sqrt(alpha*beta) * (mu-1)/sqrt(mu) and
        d = A/M + M/A (A = sqrt(alpha/beta), M = sqrt(mu)); here c ~ d ~ 22361
        and f* ~ 2. Near the peak f* - f(y) = k*(y-1)^2, k = c/(2+d)^2, up to
        a relative (y-1) of at most 2.2e-4.
        - eval_f is within delta = 6u of f, up to a factor of f - 1 common to
          every evaluation (alpha - beta). mu*x is exact (mu = 2); mu/(mu*x)
          and beta*mu*x are 4.5e-5 of the 1 they are added to. The two sums,
          the two divisions and the product round once each (5u of f - 1 < 1),
          and 1 + (f - 1) by at most u, since f < 2.
        - Grid neighbours are h = 5 apart (2.2e-4 in y) and differ near the
          peak by at least 0.75*k*h^2 ~ 1.7e-12 >> 2*delta, so the grid argmax
          and its two neighbours bracket the peak.
        - The section search keeps the better of its two interior points, so
          its final midpoint lies within the last bracket, a few ulps wide,
          of the best point it evaluated. A comparison drops the peak only
          where the two values lie within 2*delta; the point nearer the peak
          is then within 1/g of their spacing from it (g = 0.618, the
          section ratio), so its f is within delta/g of f*. So f* - f(x_star) <=
          (2 + 1/g)*delta, and |y_star - 1| <= sqrt((2 + 1/g)*delta/k):
          2.33 resolvable widths w = sqrt(eps*f*)*(2+d)/sqrt(c) (eps = 2u).
        - x_hat is a few u from the peak (so y_star = x_star/x_hat), and
          |f_star - lambda_hat| <= 2*delta + (2 + 1/g)*delta: 34u, 17 ulps of f.
        """
        # Brackets above x = 8192 cannot shrink below refine_tol = 1e-12;
        # without the stall stop these calls never return. Run in a child
        # process so that a regression fails the test instead of hanging it.
        code = (
            "from secrelay.fractional import *\n"
            "p = RatioQuadraticProblem(1.0, 1e-9, 2.0, 5e4)\n"
            "print(repr((grid_oracle(p, 10001), lambda_hat_closed_form(p).lambda_hat,"
            " lambda_hat_closed_form(p).x_hat,"
            " maximize_on_interval(lambda x: x, 1e4, 11))))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(fractional.__file__).resolve().parents[1])}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, timeout=30, check=True).stdout
        (x_star, f_star), lambda_hat, x_hat, ramp = eval(out)
        u, g = 2.0**-53, (math.sqrt(5.0) - 1.0) / 2.0
        c = (1.0 - 1e-9) / math.sqrt(1e-9) * (2.0 - 1.0) / math.sqrt(2.0)
        d = math.sqrt(1e9) / math.sqrt(2.0) + math.sqrt(2.0) / math.sqrt(1e9)
        delta, width = 6.0 * u, math.sqrt(2.0 * u * lambda_hat) * (2.0 + d) / math.sqrt(c)
        assert abs(f_star - lambda_hat) <= (4.0 + 1.0 / g) * delta
        widths = math.sqrt((2.0 + 1.0 / g) * delta / (2.0 * u * lambda_hat))
        assert abs(x_star / x_hat - 1.0) <= widths * width
        assert ramp == (1e4, 1e4)

    def test_flat_objective_resolves_to_smallest_x(self):
        x_star, f_star = grid_oracle(RatioQuadraticProblem(2.0, 2.0, 5.0, 3.0), 10_001)
        assert x_star <= 1e-9
        assert f_star == 1.0


def test_problem_validation():
    with pytest.raises(ValueError):
        RatioQuadraticProblem(-1.0, 1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        RatioQuadraticProblem(1.0, 1.0, 0.9, 1.0)
    with pytest.raises(ValueError):
        RatioQuadraticProblem(1.0, 1.0, 2.0, -1.0)
    with pytest.raises(ValueError):
        RatioQuadraticProblem(float("nan"), 1.0, 2.0, 1.0)
