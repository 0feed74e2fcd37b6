"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run pytest with -s to see them all).
Criteria 1-3 and 6 reuse the same 1000 parameter draws: each suite seeds an
identical generator and consumes the same leading block of the stream.
"""

import math
import time

import numpy as np
import pytest

from mc_estimators import lmmse_error_variance_mc
from secrelay.channel import ChannelRealization, PowerBudget, Strategy, derive_params
from secrelay.cli import main
from secrelay.converse import NoiseCorrelation, lmmse_error_variance
from secrelay.montecarlo import EnsembleConfig, ergodic_sweep
from secrelay.verify import (
    bound_collapse,
    converse_tightness,
    df_properties,
    solver_consistency,
    solver_vs_oracle,
)

SEED = 314159
DRAWS = 1000


def report(number: int, title: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number} ({title}): {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    res = solver_vs_oracle(DRAWS, np.random.default_rng(SEED), n_points=1_000_000)
    elapsed = time.perf_counter() - start
    ok = res.passed and elapsed <= 60.0
    report(1, "oracle equivalence", ok, f"{res.summary()}; runtime {elapsed:.1f}s <= 60s")


def test_criterion_2_solver_consistency():
    res = solver_consistency(DRAWS, np.random.default_rng(SEED))
    report(2, "solver internal consistency", res.passed, res.summary())


def test_criterion_3_converse_tightness():
    res = converse_tightness(
        DRAWS, np.random.default_rng(SEED), n_points=1_000_000, pairs_per_draw=100
    )
    report(3, "converse tightness", res.passed, res.summary())


def test_criterion_4_bound_collapse():
    # The genie objective at the collapsing phi against the achievable rate,
    # program against program, within a rounding count (verify.bound_collapse).
    res = bound_collapse(10_000, np.random.default_rng(SEED))
    report(4, "bound collapses onto the rate", res.passed, res.summary())


def test_criterion_5_lmmse_numeric_check():
    # |z| <= 5 over 20 draws holds by argument, not by seed. The estimator's
    # 100 batch values are each var_d - |cov|^2/var_e over m = 10,000 pairs
    # (y_d, y_e), which are jointly circular complex Gaussian: the Schur
    # complement of a complex Wishart matrix with m degrees of freedom. So
    # each is s2*G/m with G ~ Gamma(m - 1, 1) and s2 the LMMSE error
    # variance (the complex form of Muirhead 1982, Thm 3.2.10): iid, nearly
    # normal (skewness 2/sqrt(m - 1) = 0.02), and biased by -s2/m, which is
    # -10/sqrt(m - 1) = -0.10 of the standard error of their mean. z is
    # then t with 99 degrees of freedom (the batch stderr's) and
    # noncentrality -0.10: P(|z| > 5) = 2.7e-6 per draw and 5.5e-5 over
    # the 20 draws (union bound); 5.0e-5 without the bias, and 1.1e-5
    # (1.3e-5 with it) if z were normal.
    rng = np.random.default_rng(SEED + 5)
    start = time.perf_counter()
    worst_z = 0.0
    for _ in range(20):
        gains = rng.normal(size=(3, 2))
        ch = ChannelRealization(complex(*gains[0]), complex(*gains[1]), complex(*gains[2]))
        pb = PowerBudget(rng.uniform(0.5, 10.0), 1.0)
        params = derive_params(ch, pb)
        x = rng.uniform(0.0, 2.0)
        r, t = rng.uniform(0.0, 0.95), rng.uniform(0.0, 2.0 * math.pi)
        phi = NoiseCorrelation(r * complex(math.cos(t), math.sin(t)))
        closed = lmmse_error_variance(ch, params, x, phi)
        est, se = lmmse_error_variance_mc(ch, pb, x, phi, n_samples=1_000_000, rng=rng)
        worst_z = max(worst_z, abs(est - closed) / se)
    elapsed = time.perf_counter() - start
    ok = worst_z <= 5.0 and elapsed <= 30.0
    report(5, "LMMSE numeric check", ok,
           f"worst |z|={worst_z:.2f} <= 5; runtime {elapsed:.1f}s <= 30s")


def test_criterion_6_df_properties():
    res = df_properties(DRAWS, np.random.default_rng(SEED))
    report(6, "DF properties", res.passed, res.summary())


def test_criterion_7_figure_regeneration():
    # The 3-sigma checks hold by argument, not by seed. The curves share one
    # draw, so each gap is the mean over n = 100,000 samples of a per-sample
    # difference, whose standard error s is far below the limit L =
    # 3*hypot(se_a, se_b), which treats the two means as independent. The
    # true gap D, s and L, from 4M samples of the same ensemble:
    # - (c) top gap, 19.5 -> 20 W: D <= 6.9e-4, L >= 4.3e-3, s <= 5.5e-6,
    #   so a failure needs an error of at least 1090 s;
    # - (b) ordering at 10 W: D >= 0.117, L <= 8.7e-3, s <= 6.9e-4, at
    #   least 293 s;
    # - AF saving power at 20 W: D = 4.76 W, L = 0.10 W, s = 0.024 W, 191 s.
    # Chebyshev's inequality, which needs no normality, bounds the chance
    # that any of these 15 checks fails by the sum of 1/k**2 over their
    # margins k, 8.3e-5. Check (a) holds exactly: every sample's capacity is
    # nondecreasing in the budget, so each mean is, up to rounding.
    start = time.perf_counter()
    variances = (1.0, 2.0, 4.0, 8.0)
    sweeps = {v: ergodic_sweep(EnsembleConfig(var_hd=(v,), n_samples=100_000, seed=SEED))
              for v in variances}
    problems = []

    def curves(var, strategy):
        return [r for r in sweeps[var] if r.strategy is strategy]

    for strategy in (Strategy.AF, Strategy.DF):
        for var in variances:
            recs = curves(var, strategy)
            caps = [r.mean_capacity for r in recs]
            # (a) nondecreasing in the budget along each curve
            if not all(b >= a - 1e-12 for a, b in zip(caps, caps[1:])):
                problems.append(f"{strategy.value} var={var} not nondecreasing")
            # (c) flat between the two largest grid points
            gap = abs(caps[-1] - caps[-2])
            limit = 3.0 * math.hypot(recs[-1].stderr_capacity, recs[-2].stderr_capacity)
            if gap > limit:
                problems.append(f"{strategy.value} var={var} top gap {gap:.2e} > {limit:.2e}")
        # (b) ordered by destination variance at P_r = 10 W
        at_ten = {v: next(r for r in curves(v, strategy) if r.p_r == 10.0) for v in variances}
        for lo, hi in zip(variances, variances[1:]):
            diff = at_ten[hi].mean_capacity - at_ten[lo].mean_capacity
            limit = 3.0 * math.hypot(at_ten[hi].stderr_capacity, at_ten[lo].stderr_capacity)
            if diff <= limit:
                problems.append(f"{strategy.value} ordering {lo}->{hi} gap {diff:.2e} <= {limit:.2e}")

    # Consumed relay power: AF saturates while the offered budget keeps growing,
    # and AF spends less than DF at the largest budget.
    af = curves(1.0, Strategy.AF)
    df = curves(1.0, Strategy.DF)
    rel_change = (af[-1].mean_consumed_power - af[-2].mean_consumed_power) / af[-2].mean_consumed_power
    if not 0.0 <= rel_change < 0.01:
        problems.append(f"AF consumed power not flat: {rel_change:.3%} change at top")
    if af[-1].mean_consumed_power > 0.3 * af[-1].p_r:
        problems.append("AF consumed power not far below the offered budget")
    df_margin = df[-1].mean_consumed_power - af[-1].mean_consumed_power
    df_limit = 3.0 * math.hypot(df[-1].stderr_consumed_power, af[-1].stderr_consumed_power)
    if df_margin <= df_limit:
        problems.append("AF does not save power relative to DF at the top budget")

    elapsed = time.perf_counter() - start
    if elapsed > 120.0:
        problems.append(f"runtime {elapsed:.1f}s > 120s")
    report(7, "figure regeneration", not problems,
           "; ".join(problems) if problems else f"4 variances x 2 strategies, runtime {elapsed:.1f}s")


def test_criterion_8_montecarlo_determinism(tmp_path):
    argv = [
        "montecarlo", "--var-hd", "1,2", "--pr-stop", "6", "--pr-points", "4",
        "--n-samples", "500", "--seed", str(SEED),
    ]
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    code_a = main(argv + ["--out", str(out_a)])
    code_b = main(argv + ["--out", str(out_b)])
    identical = out_a.read_bytes() == out_b.read_bytes()
    ok = code_a == 0 and code_b == 0 and identical
    report(8, "Monte Carlo determinism", ok,
           f"{out_a.stat().st_size} bytes, identical={identical}")
