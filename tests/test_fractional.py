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

from reference import af_capacity
from reference import pi_of_lambda as exact_pi_of_lambda
from secrelay import fractional
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
# A problem whose a*x_max^2 overflows where F is finite, and one where the
# problem's stored a*(1 - lambda)*x^2 read pi(1) = nan.
WITNESS_F_OVERFLOW = (4.5298102794798065e+115, 1.1222126218349657e+84,
                      6.425342794754521e+102, 1.838697719893065e-150)
WITNESS_PI_NAN = (2.426883077091397e+108, 3.699067753786442e+106,
                  9.14384646071273e+112, 4.0905987627857694e-122)
# A problem whose peak 1/sqrt(alpha*beta*mu) = 5.67e-312 is subnormal: the
# first factor of f - 1 at the peak's consumed power is subnormal too.
WITNESS_SUBNORMAL_PEAK = (1.0327266203056355e+283, 6.287542798183648e+164,
                          4.790368288204546e+174, 7.598562151282281e-20)


def random_problem(rng, positive_rate=True):
    while True:
        a, b = rng.exponential(1.0, 2)
        mu = rng.uniform(1.0, 20.0)
        x_max = rng.uniform(0.0, 50.0) / mu
        if not positive_rate:
            return RatioQuadraticProblem(a, b, mu, x_max)
        if a > b and mu > 1.0 and x_max > 0.0:
            return RatioQuadraticProblem(a, b, mu, x_max)


def quadratics(prob):
    """(a, n1, d1): the ratio's shared quadratic coefficient and its
    numerator's and denominator's linear coefficients."""
    a, b, m = prob.alpha, prob.beta, prob.mu
    return a * b * m, a * m + b, a + b * m


def bracket_upper(prob):
    _, n1, d1 = quadratics(prob)
    return n1 / d1


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
        # A 0-d array is a scalar: a float, or written into a 0-d `out`.
        assert type(eval_f(PROB_WIDE, np.array(0.3))) is float
        buf = np.array(0.3)
        assert eval_f(PROB_WIDE, buf, out=buf) is buf
        assert buf[()] == one[0]
        for x in (0.0, -0.0, np.array(0.0)):
            got = eval_f(PROB_WIDE, x)
            assert type(got) is float and got == 1.0
        for x in (np.nan, np.array(np.nan)):
            assert math.isnan(eval_f(PROB_WIDE, x))

    @pytest.mark.parametrize("prob", [PROB_WIDE, RatioQuadraticProblem(*WITNESS_SUBNORMAL_PEAK)])
    def test_scalar_equals_array_element(self, prob):
        xs = np.concatenate([np.linspace(0.0, prob.x_max, 101),
                             prob.x_max * np.logspace(-320, 300, 63), [1e308, np.inf]])
        vals = eval_f(prob, xs)
        for x, val in zip(xs, vals):
            for scalar in (float(x), np.float64(x), np.array(x)):
                got = eval_f(prob, scalar)
                assert type(got) is float
                assert got == val or (math.isnan(got) and math.isnan(val))

    # Off the domain, Python floats divide by 0 where numpy gives inf or nan:
    # alpha = 0 at mu*x = inf, and alpha + mu/(mu*x) = 0 = 1 + beta*mu*x.
    @pytest.mark.parametrize("prob, x", [
        (RatioQuadraticProblem(0.0, 1.0, 2.0, 1.0), np.inf),
        (RatioQuadraticProblem(0.0, 0.0, 2.0, 1.0), 1e308),
        (RatioQuadraticProblem(1.0, 0.5, 2.0, 1.0), -1.0),
    ])
    def test_scalar_raises_no_zero_division(self, prob, x):
        one = eval_f(prob, np.array([x]))
        for scalar in (x, np.array(x)):
            got = eval_f(prob, scalar)
            assert type(got) is float
            assert np.array_equal([got], one, equal_nan=True)


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
        # thr is the lambda where dF/dx at x_max is 0, so the stationary
        # point is x_max: below it the clamp holds x at x_max, and past it the
        # stationary point leaves x_max continuously.
        prob = PROB_WIDE
        a, n1, d1 = quadratics(prob)
        thr = (2.0 * a * prob.x_max + n1) / (2.0 * a * prob.x_max + d1)
        assert x_of_lambda(prob, thr - 1e-9 * (thr - 1.0)) == prob.x_max
        assert x_of_lambda(prob, thr) == pytest.approx(prob.x_max, rel=1e-14)
        just_inside = thr + 1e-12 * (bracket_upper(prob) - thr)
        assert x_of_lambda(prob, just_inside) == pytest.approx(prob.x_max, rel=1e-6)

    def test_rejects_lambda_outside_bracket(self):
        # Below the bracket lambda is rejected. Above it F = -t*(a*x^2 + 1) -
        # d1*(t - k)*x falls from x = 0, so x(lambda) = 0 and pi = 1 - lambda.
        for lam in (0.99, math.nan):
            with pytest.raises(ValueError):
                x_of_lambda(PROB_WIDE, lam)
        for lam in (bracket_upper(PROB_WIDE) + 1e-9, 2.0, 1e300):
            assert x_of_lambda(PROB_WIDE, lam) == 0.0
            assert pi_of_lambda(PROB_WIDE, lam) == 1.0 - lam

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

    def test_matches_exact_reference(self):
        rng = np.random.default_rng(12)
        for _ in range(N_DRAWS):
            prob = random_problem(rng)
            lam = rng.uniform(1.0, bracket_upper(prob))
            (a, n1, _), x = quadratics(prob), prob.x_max
            expected = exact_pi_of_lambda(prob.alpha, prob.beta, prob.mu, x, lam)
            scale = 1.0 + a * x * x + n1 * x
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

    @pytest.mark.xfail(strict=True, reason=(
        "eval_F forms f - 1 before multiplying den in, and f - 1 underflows to 0 "
        "where F is representable (ROADMAP item 1); pi(1) reads 0.0"))
    def test_value_at_one_where_f_minus_one_underflows(self):
        prob = RatioQuadraticProblem(1e150, 1e150 * (1.0 - 1e-12), 1.0 + 1e-15, 1e150 / (1.0 + 1e-15))
        expected = (prob.alpha - prob.beta) * (prob.mu - 1.0) * prob.x_max
        assert expected == pytest.approx(1.11e273, rel=1e-3)
        assert pi_of_lambda(prob, 1.0) == pytest.approx(expected, rel=1e-12)

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
        capacity = af_capacity(prob.alpha, prob.beta, m, 4.552877427674742e-56)
        assert capacity == pytest.approx(35.44276820349234, rel=1e-15)
        assert 0.5 * math.log2(sol.lambda_hat) == pytest.approx(capacity, rel=1e-12)
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
            a, n1, d1 = quadratics(prob)
            if prob.x_max <= 1.0 / math.sqrt(a):
                continue
            sol = lambda_hat_closed_form(prob)
            root = 2.0 * math.sqrt(a)
            reduced = (n1 + root) / (d1 + root)
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
            a, n1, d1 = quadratics(prob)
            edge = RatioQuadraticProblem(prob.alpha, prob.beta, prob.mu, 1.0 / math.sqrt(a))
            lam1 = eval_f(edge, edge.x_max)
            root = 2.0 * math.sqrt(a)
            lam2 = (n1 + root) / (d1 + root)
            assert abs(lam1 - lam2) <= 1e-9


class TestBisectionRange:
    """The bisection at budgets where a*x_max^2 overflows, at every scale
    from 1e-150 to 1e150, and with mu within a few ulps of 1, where 1 + k
    rounds to 1 or to the next float."""

    @staticmethod
    def check(prob):
        """The bisection agrees with the closed form, and, unless the problem
        is degenerate, its bracket ends on adjacent floats with lambda_hat on
        the side where pi > 0. Only lambda_hat = 1, the bracket's bottom, is
        never evaluated: there pi = (alpha-beta)*(mu-1)*x_max > 0 in exact
        arithmetic, but f - 1 at x_max may underflow to 0 in floats
        (witnesses below)."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bisected = lambda_hat_bisection(prob)
        assert bisected.lambda_hat == pytest.approx(lambda_hat_closed_form(prob).lambda_hat, rel=1e-12)
        if bisected.branch is not SolverBranch.DEGENERATE:
            lam = bisected.lambda_hat
            low = pi_of_lambda(prob, lam)
            assert low > 0.0 or (lam == 1.0 and low == 0.0)
            assert pi_of_lambda(prob, math.nextafter(lam, math.inf)) <= 0.0

    @pytest.mark.parametrize("case", [
        (4.0, 1.0, 2.0, 5e199),
        (7.0, 6.0, 1.0 + 2.0**-52, 1.0),  # k below half an ulp: lambda_hat = 1
        (20.411317735881653, 2.0236876656051463, 1.0 + 2.0**-51, 3.1e135),  # pi(n1/d1) > 0
        # The root rounds to the bracket's top n1/d1, where x(lambda) = 0:
        # a Newton (Dinkelbach) step from there lands on f(0) = 1.
        (1.1203501894730687e+99, 1.2095338230605243e-43, MU_TOP, 3.761755023876066e+143 / MU_TOP),
        # 2*a*x_max overflows, so x(1) must not go through the threshold;
        # as Python floats and as numpy scalars, whose overflow would warn.
        WITNESS_INF,
        tuple(np.array(WITNESS_INF)),
        WITNESS_F_OVERFLOW,
        WITNESS_PI_NAN,
        # 1 + k rounds below the root: the top must be rounded up for pi < 0 there.
        (1.6219678046197671e+43, 1.8261133988015012e+42, 9.977503661986028e+146,
         7.230788808317885e-139),
        # f - 1 far below an ulp of 1, so lambda_hat = 1, where pi(1) reads 0:
        # the first factor of f - 1 underflows, or their product does.
        (1e-150, 1e-151, 1.0 + 1e150, 1e-300),
        (1e150, 1e150 * (1.0 - 1e-12), 1.0 + 1e-15, 1e150),
        (2.0, 0.0, 3.0, 1e300),  # no eavesdropper gain, at a huge budget
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
        self.check(RatioQuadraticProblem(alpha, beta, mu, 10.0**log10_p_r / mu))

    @settings(max_examples=1000, deadline=None, derandomize=True)
    @given(st.lists(st.floats(-150.0, 150.0), min_size=4, max_size=4))
    def test_bisection_matches_closed_form_at_any_scale(self, exponents):
        # Every parameter log-uniform over 1e+-150: alpha >= beta, mu = 1 + 10**e.
        e_alpha, e_beta, e_mu, e_p_r = exponents
        alpha, beta = 10.0 ** max(e_alpha, e_beta), 10.0 ** min(e_alpha, e_beta)
        mu = 1.0 + 10.0**e_mu
        self.check(RatioQuadraticProblem(alpha, beta, mu, 10.0**e_p_r / mu))

    @pytest.mark.parametrize("solver", [lambda_hat_closed_form, lambda_hat_bisection])
    def test_no_eavesdropper_gain(self, solver):
        # beta = 0: f rises to the endpoint, f(1) = 1 + 2*2/3 = 7/3, and F at
        # lambda = 1 is linear with slope (alpha - beta)*(mu - 1) = 4.
        prob = RatioQuadraticProblem(2.0, 0.0, 3.0, 1.0)
        sol = solver(prob)
        assert sol.branch is SolverBranch.ENDPOINT and sol.x_hat == prob.x_max
        assert sol.lambda_hat == pytest.approx(7.0 / 3.0, rel=1e-15)
        assert pi_of_lambda(prob, 1.0) == 4.0
        assert x_of_lambda(prob, 1.0) == prob.x_max


class TestClosedFormAtAnyScale:
    """The closed form takes f - 1 from the AF kernel's `af._af_excess`, with
    its exact fallback, so it meets the exact capacity wherever x_max is
    normal."""

    def test_subnormal_peak(self):
        prob = RatioQuadraticProblem(*WITNESS_SUBNORMAL_PEAK)
        sol = lambda_hat_closed_form(prob)
        assert sol.branch is SolverBranch.INTERIOR
        assert sol.lambda_hat == pytest.approx(1.6424963669495346e+118, rel=1e-15)
        assert sol.lambda_hat == pytest.approx(lambda_hat_bisection(prob).lambda_hat, rel=1e-15)
        capacity = af_capacity(prob.alpha, prob.beta, prob.mu, prob.mu * prob.x_max)
        assert capacity == pytest.approx(196.35170268807576, rel=1e-12)
        assert 0.5 * math.log2(sol.lambda_hat) == pytest.approx(capacity, rel=1e-12)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_solvers_match_kernel_at_exponents_300(self, seed):
        # alpha >= beta, mu - 1 and p_r log-uniform over 1e+-300, against the
        # exact capacity. Where x_max is subnormal or 0 the problem itself has
        # lost p_r/mu, so those inputs are left out, as are capacities at or
        # below 1e-6 bits, which 0.5*log2(lambda) cannot resolve relatively.
        e = np.random.default_rng(seed).uniform(-300.0, 300.0, (1500, 4))
        alpha, beta = 10.0 ** e[:, :2].max(axis=1), 10.0 ** e[:, :2].min(axis=1)
        mu, p_r = 1.0 + 10.0 ** e[:, 2], 10.0 ** e[:, 3]
        capacity = np.array([af_capacity(*case) for case in zip(alpha, beta, mu, p_r)])
        x_max = p_r / mu
        checked = np.flatnonzero((x_max >= sys.float_info.min) & (capacity > 1e-6))
        assert checked.size > 300
        for i in checked:
            prob = RatioQuadraticProblem(alpha[i], beta[i], mu[i], x_max[i])
            for solver in (lambda_hat_closed_form, lambda_hat_bisection):
                lam = solver(prob).lambda_hat
                assert 0.5 * math.log2(lam) == pytest.approx(capacity[i], rel=1e-9), (solver, prob)


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
