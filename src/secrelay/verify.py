"""Randomized cross-check suites behind the `verify` CLI command.

Each suite draws parameters from a seeded generator, measures worst-case
residuals of one family of checks, and reports them against fixed tolerances.
Statistical Monte Carlo checks (sample-covariance and mutual-information
estimators) live in the test suite instead; everything here is deterministic
given the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .af import af_achievable_rate_at, af_secrecy_capacity
from .channel import DerivedParams, PowerBudget, secrecy_possible, surrogate_channel
from .converse import NoiseCorrelation, bound_objective, genie_upper_bound, select_phi
from .df import df_secrecy_capacity, second_hop_secrecy_capacity, source_relay_capacity
from .fractional import (
    RatioQuadraticProblem,
    eval_f,
    grid_oracle,
    lambda_hat_bisection,
    lambda_hat_closed_form,
    pi_of_lambda,
)

__all__ = ["SuiteResult", "run_all", "DEFAULT_SEED"]

DEFAULT_SEED = 42


@dataclass(frozen=True, slots=True)
class SuiteResult:
    name: str
    residuals: dict[str, float]
    tolerances: dict[str, float]
    evaluated: int

    @property
    def passed(self) -> bool:
        # A suite that evaluated no draw has checked nothing.
        return self.evaluated > 0 and all(
            self.residuals[k] <= self.tolerances[k] for k in self.residuals
        )

    def summary(self) -> str:
        parts = [
            f"{k}={self.residuals[k]:.3e} (tol {self.tolerances[k]:.0e})"
            for k in self.residuals
        ]
        if self.evaluated == 0:
            parts.append("no draw evaluated")
        return "; ".join(parts)


def _worst(*residuals: float) -> float:
    """Largest residual, or NaN if any is NaN.

    Every suite keeps its running worst case with this: the builtin `max`
    keeps its first argument when a comparison with NaN is False, so a NaN
    residual would vanish and its suite could pass having checked nothing.
    """
    return math.nan if any(math.isnan(r) for r in residuals) else max(residuals)


def draw_parameters(rng: np.random.Generator, n: int):
    """Random (alpha, beta, mu, p_r) draws covering both capacity regimes."""
    alpha = rng.exponential(1.0, n)
    beta = rng.exponential(1.0, n)
    mu = rng.uniform(1.0, 20.0, n)
    p_r = rng.uniform(0.0, 50.0, n)
    return alpha, beta, mu, p_r


def solver_vs_oracle(draws: int, rng: np.random.Generator,
                     n_points: int = 200_001) -> SuiteResult:
    """Closed-form capacity and gain against the brute-force grid oracle."""
    alpha, beta, mu, p_r = draw_parameters(rng, draws)
    worst_cap = 0.0
    worst_x = 0.0
    for a, b, m, p in zip(alpha, beta, mu, p_r):
        params = DerivedParams(a, b, m)
        pb = PowerBudget(1.0, p)
        res = af_secrecy_capacity(params, pb)
        x_max = p / m
        x_star, f_star = grid_oracle(RatioQuadraticProblem(a, b, m, x_max), n_points)
        worst_cap = _worst(worst_cap, abs(res.capacity - 0.5 * math.log2(f_star)))
        worst_x = _worst(worst_x, abs(res.x_hat - x_star) / max(1.0, x_max))
    return SuiteResult(
        "solver_vs_oracle",
        {"capacity_gap": worst_cap, "argmax_gap": worst_x},
        {"capacity_gap": 1e-6, "argmax_gap": 1e-6},
        draws,
    )


def solver_consistency(draws: int, rng: np.random.Generator) -> SuiteResult:
    """Bracket membership, root residual, ratio match, and solver agreement."""
    alpha, beta, mu, p_r = draw_parameters(rng, draws)
    bracket_excess = -math.inf
    pi_res = 0.0
    ratio_gap = 0.0
    agreement = 0.0
    evaluated = 0
    for a, b, m, p in zip(alpha, beta, mu, p_r):
        if not secrecy_possible(a, b, m) or p <= 0.0:
            continue
        evaluated += 1
        prob = RatioQuadraticProblem(a, b, m, p / m)
        upper = (a * m + b) / (a + b * m)  # n1/d1, the root bracket's top
        closed, bisected = lambda_hat_closed_form(prob), lambda_hat_bisection(prob)
        for sol in (closed, bisected):
            bracket_excess = _worst(bracket_excess, 1.0 - sol.lambda_hat, sol.lambda_hat - upper)
            pi_res = _worst(pi_res, abs(pi_of_lambda(prob, sol.lambda_hat)))
            ratio_gap = _worst(ratio_gap, abs(eval_f(prob, sol.x_hat) - sol.lambda_hat))
        agreement = _worst(agreement, abs(closed.lambda_hat - bisected.lambda_hat))
    return SuiteResult(
        "solver_consistency",
        {
            "bracket_excess": bracket_excess,
            "pi_residual": pi_res,
            "ratio_gap": ratio_gap,
            "solver_agreement": agreement,
        },
        {
            "bracket_excess": 0.0,
            "pi_residual": 1e-9,
            "ratio_gap": 1e-9,
            "solver_agreement": 1e-9,
        },
        evaluated,
    )


def converse_tightness(draws: int, rng: np.random.Generator,
                       n_points: int = 200_001, pairs_per_draw: int = 10) -> SuiteResult:
    """Genie bound equals the closed form; dominance at random (x, phi) pairs."""
    alpha, beta, mu, p_r = draw_parameters(rng, draws)
    tight = 0.0
    zero_case = 0.0
    dominance = 0.0
    for a, b, m, p in zip(alpha, beta, mu, p_r):
        params = DerivedParams(a, b, m)
        pb = PowerBudget(1.0, p)
        ch = surrogate_channel(params)
        bound = genie_upper_bound(ch, params, pb, n_points=n_points)
        cap = af_secrecy_capacity(params, pb).capacity
        if a <= b:
            zero_case = _worst(zero_case, abs(bound.bound_value))
        tight = _worst(tight, abs(bound.bound_value - cap))
        x_max = p / m
        xs = rng.uniform(0.0, x_max, pairs_per_draw) if x_max > 0 else np.zeros(pairs_per_draw)
        radii = rng.uniform(0.0, 0.999, pairs_per_draw)
        angles = rng.uniform(0.0, 2.0 * math.pi, pairs_per_draw)
        for x, r, t in zip(xs, radii, angles):
            phi = NoiseCorrelation(r * complex(math.cos(t), math.sin(t)))
            gap = af_achievable_rate_at(params, pb, float(x)) - bound_objective(
                ch, params, float(x), phi
            )
            dominance = _worst(dominance, gap)
    return SuiteResult(
        "converse_tightness",
        {"tightness": tight, "zero_case": zero_case, "dominance_violation": dominance},
        {"tightness": 1e-9, "zero_case": 0.0, "dominance_violation": 1e-9},
        draws,
    )


def bound_collapse(draws: int, rng: np.random.Generator) -> SuiteResult:
    """`bound_objective` at `select_phi` against `af_achievable_rate_at` at
    random feasible gains, alpha > beta: the worst relative gap over phi's
    conditioning kappa = alpha/(alpha-beta) = 1 + b'. The tolerance 28u,
    u = 2**-53, is a first-order count (Higham, Accuracy and Stability of
    Numerical Algorithms, 2002, ch. 2-3) on the surrogate channel: phi =
    sqrt(beta)/sqrt(alpha) is within 3u, |phi|^2 and the cross term within
    7u, so c0, c1 and h_d - phi*h_e, which cancel to multiples of
    alpha-beta, are within u + 7u*b', 2u + 16u*b' and 2u + 6u*b'; k within
    5u + 12u*b', and k/(c0 + c1*x) within 10u + 28u*b' of
    (alpha-beta)/(1 + alpha*x). The rate's first factor is within 5u of x
    times that; the second factors share 1 + beta*(mu*x) and mu - 1 and
    differ by 3u. Each side adds u (product), 2u (log1p, which changes
    relatively no more than its argument) and u (scale): 26u + 28u*b'.
    """
    pb = PowerBudget(1.0, 200.0)  # x < 10 <= 200/mu: every x is feasible
    worst = 0.0
    count = 0
    while count < draws:
        a, b = rng.exponential(1.0, 2)
        if a <= b:
            continue
        m = rng.uniform(1.0, 20.0)
        x = rng.uniform(0.0, 10.0)
        params = DerivedParams(a, b, m)
        ch = surrogate_channel(params)
        bound = bound_objective(ch, params, x, select_phi(ch, params))
        rate = af_achievable_rate_at(params, pb, x)
        # The rate is 0 only at x = 0 or mu = 1, where the bound must be 0.
        rel = abs(bound - rate) / rate if rate else abs(bound)
        worst = _worst(worst, rel * (a - b) / a)
        count += 1
    return SuiteResult("bound_collapse", {"scaled_gap": worst}, {"scaled_gap": 28 * 2.0**-53},
                       count)


def df_properties(draws: int, rng: np.random.Generator) -> SuiteResult:
    """Cut decomposition, power-saving equality, and DF-dominates-AF ordering."""
    alpha, beta, mu, p_r = draw_parameters(rng, draws)
    min_cut = 0.0
    power_saving = 0.0
    dominance = 0.0
    for a, b, m, p in zip(alpha, beta, mu, p_r):
        params = DerivedParams(a, b, m)
        pb = PowerBudget(1.0, p)
        df = df_secrecy_capacity(params, pb)
        expected = 0.5 * min(source_relay_capacity(params), second_hop_secrecy_capacity(params, pb))
        min_cut = _worst(min_cut, abs(df.capacity - expected))
        if a > b and (1.0 + a * p) / (1.0 + b * p) > m:
            balanced = math.log2((1.0 + a * df.x_hat) / (1.0 + b * df.x_hat))
            power_saving = _worst(power_saving, abs(balanced - math.log2(m)))
        af = af_secrecy_capacity(params, pb)
        dominance = _worst(dominance, af.capacity - df.capacity)
    return SuiteResult(
        "df_properties",
        {"min_cut_gap": min_cut, "power_saving_gap": power_saving, "af_exceeds_df": dominance},
        {"min_cut_gap": 1e-12, "power_saving_gap": 1e-12, "af_exceeds_df": 1e-12},
        draws,
    )


def run_all(draws: int = 1000, seed: int = DEFAULT_SEED) -> list[SuiteResult]:
    """Run every suite on independent substreams of one seed."""
    streams = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(5)]
    return [
        solver_vs_oracle(draws, streams[0]),
        solver_consistency(draws, streams[1]),
        converse_tightness(draws, streams[2]),
        bound_collapse(draws * 10, streams[3]),
        df_properties(draws, streams[4]),
    ]
