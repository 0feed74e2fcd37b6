"""Randomized cross-check suites behind the `verify` CLI command.

Each suite draws parameters from a seeded generator, checks each draw with
one per-draw helper and reports the worst residuals against `TOLERANCES`,
the one table of tolerances: suite name to {residual: tolerance}, in
report order. A helper returns one float per residual of its suite, in the
table's order; one fold, `_suite`, keeps each residual's worst value over
the draws and builds the `SuiteResult`. The worst value is NaN as soon as
one draw's is (`_worst`), and NaN where no draw was evaluated, so a
residual can neither vanish nor pass unchecked. Statistical Monte Carlo
checks (sample-covariance and mutual-information estimators) live in the
test suite instead; everything here is deterministic given the seed.
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

__all__ = ["SuiteResult", "run_all", "DEFAULT_SEED", "TOLERANCES"]

DEFAULT_SEED = 42

TOLERANCES = {
    "solver_vs_oracle": {"capacity_gap": 1e-6, "argmax_gap": 1e-6},
    "solver_consistency": {
        "bracket_excess": 0.0,
        "pi_residual": 1e-9,
        "ratio_gap": 1e-9,
        "solver_agreement": 1e-9,
    },
    "converse_tightness": {"tightness": 1e-9, "zero_case": 0.0, "dominance_violation": 1e-9},
    # A rounding count; `bound_collapse` derives it.
    "bound_collapse": {"scaled_gap": 28 * 2.0**-53},
    "df_properties": {"min_cut_gap": 1e-12, "power_saving_gap": 1e-12, "af_exceeds_df": 1e-12},
}


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
    """Largest residual, or NaN if any is NaN or none is given.

    Every fold over residuals goes through this: the builtin `max` keeps its
    first argument when a comparison with NaN is False, so a NaN residual
    would vanish and its suite could pass having checked nothing.
    """
    if not residuals or any(math.isnan(r) for r in residuals):
        return math.nan
    return max(residuals)


def _suite(name: str, rows) -> SuiteResult:
    """Fold per-draw rows (one float per residual, in `TOLERANCES[name]`'s
    order) into the suite's worst residuals; each row is one evaluated draw."""
    rows = list(rows)
    tolerances = dict(TOLERANCES[name])
    residuals = {k: _worst(*(row[i] for row in rows)) for i, k in enumerate(tolerances)}
    return SuiteResult(name, residuals, tolerances, len(rows))


def draw_parameters(rng: np.random.Generator, n: int):
    """Random (alpha, beta, mu, p_r) draws covering both capacity regimes."""
    alpha = rng.exponential(1.0, n)
    beta = rng.exponential(1.0, n)
    mu = rng.uniform(1.0, 20.0, n)
    p_r = rng.uniform(0.0, 50.0, n)
    return alpha, beta, mu, p_r


def _oracle_draw(a, b, m, p, n_points: int) -> tuple[float, float]:
    res = af_secrecy_capacity(DerivedParams(a, b, m), PowerBudget(1.0, p))
    x_max = p / m
    x_star, f_star = grid_oracle(RatioQuadraticProblem(a, b, m, x_max), n_points)
    return abs(res.capacity - 0.5 * math.log2(f_star)), abs(res.x_hat - x_star) / max(1.0, x_max)


def solver_vs_oracle(draws: int, rng: np.random.Generator,
                     n_points: int = 200_001) -> SuiteResult:
    """Closed-form capacity and gain against the brute-force grid oracle."""
    return _suite("solver_vs_oracle", (
        _oracle_draw(*d, n_points) for d in zip(*draw_parameters(rng, draws))
    ))


def _consistency_draw(a, b, m, p) -> tuple[float, float, float, float]:
    prob = RatioQuadraticProblem(a, b, m, p / m)
    upper = (a * m + b) / (a + b * m)  # n1/d1, the root bracket's top
    sols = lambda_hat_closed_form(prob), lambda_hat_bisection(prob)
    return (
        _worst(*(r for s in sols for r in (1.0 - s.lambda_hat, s.lambda_hat - upper))),
        _worst(*(abs(pi_of_lambda(prob, s.lambda_hat)) for s in sols)),
        _worst(*(abs(eval_f(prob, s.x_hat) - s.lambda_hat) for s in sols)),
        abs(sols[0].lambda_hat - sols[1].lambda_hat),
    )


def solver_consistency(draws: int, rng: np.random.Generator) -> SuiteResult:
    """Bracket membership, root residual, ratio match, and solver agreement."""
    return _suite("solver_consistency", (
        _consistency_draw(a, b, m, p) for a, b, m, p in zip(*draw_parameters(rng, draws))
        if secrecy_possible(a, b, m) and p > 0.0
    ))


def _converse_draw(a, b, m, p, rng: np.random.Generator, n_points: int,
                   pairs_per_draw: int) -> tuple[float, float, float]:
    params = DerivedParams(a, b, m)
    pb = PowerBudget(1.0, p)
    ch = surrogate_channel(params)
    bound = genie_upper_bound(ch, params, pb, n_points=n_points).bound_value
    cap = af_secrecy_capacity(params, pb).capacity
    x_max = p / m
    xs = rng.uniform(0.0, x_max, pairs_per_draw) if x_max > 0 else np.zeros(pairs_per_draw)
    radii = rng.uniform(0.0, 0.999, pairs_per_draw)
    angles = rng.uniform(0.0, 2.0 * math.pi, pairs_per_draw)
    gaps = (
        af_achievable_rate_at(params, pb, float(x)) - bound_objective(
            ch, params, float(x), NoiseCorrelation(r * complex(math.cos(t), math.sin(t))))
        for x, r, t in zip(xs, radii, angles)
    )
    return abs(bound - cap), abs(bound) if a <= b else 0.0, _worst(0.0, *gaps)


def converse_tightness(draws: int, rng: np.random.Generator,
                       n_points: int = 200_001, pairs_per_draw: int = 10) -> SuiteResult:
    """Genie bound equals the closed form; dominance at random (x, phi) pairs."""
    # All draws' parameters come first; each draw's (x, phi) pairs follow.
    return _suite("converse_tightness", (
        _converse_draw(*d, rng, n_points, pairs_per_draw) for d in zip(*draw_parameters(rng, draws))
    ))


def _collapse_draw(a, b, m, x) -> tuple[float]:
    params = DerivedParams(a, b, m)
    ch = surrogate_channel(params)
    bound = bound_objective(ch, params, x, select_phi(ch, params))
    rate = af_achievable_rate_at(params, PowerBudget(1.0, 200.0), x)  # x < 10 <= 200/mu
    # The rate is 0 only at x = 0 or mu = 1, where the bound must be 0.
    rel = abs(bound - rate) / rate if rate else abs(bound)
    return (rel * (a - b) / a,)


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
    rows = []
    while len(rows) < draws:
        a, b = rng.exponential(1.0, 2)
        if a > b:
            rows.append(_collapse_draw(a, b, rng.uniform(1.0, 20.0), rng.uniform(0.0, 10.0)))
    return _suite("bound_collapse", rows)


def _df_draw(a, b, m, p) -> tuple[float, float, float]:
    params = DerivedParams(a, b, m)
    pb = PowerBudget(1.0, p)
    df = df_secrecy_capacity(params, pb)
    expected = 0.5 * min(source_relay_capacity(params), second_hop_secrecy_capacity(params, pb))
    power_saving = 0.0
    if a > b and (1.0 + a * p) / (1.0 + b * p) > m:
        balanced = math.log2((1.0 + a * df.x_hat) / (1.0 + b * df.x_hat))
        power_saving = abs(balanced - math.log2(m))
    af = af_secrecy_capacity(params, pb)
    return abs(df.capacity - expected), power_saving, _worst(0.0, af.capacity - df.capacity)


def df_properties(draws: int, rng: np.random.Generator) -> SuiteResult:
    """Cut decomposition, power-saving equality, and DF-dominates-AF ordering."""
    return _suite("df_properties", (_df_draw(*d) for d in zip(*draw_parameters(rng, draws))))


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
