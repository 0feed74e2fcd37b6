"""Range, overflow and precision tests of the AF and DF capacity kernels.

`af.af_batch` and `df.df_batch` are the only capacity formulas; the scalar
functions and the Monte Carlo sweep call them. The properties run over the
full finite float range; the precision tests compare with a 50-digit
`decimal` evaluation of the paper's formulas.
"""

import math
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secrelay import af, df, montecarlo
from secrelay.af import af_batch, af_secrecy_capacity
from secrelay.channel import DerivedParams, PowerBudget, Strategy
from secrelay.df import (
    df_batch,
    df_secrecy_capacity,
    second_hop_secrecy_capacity,
)
from secrelay.fractional import RatioQuadraticProblem, lambda_hat_closed_form

MAX = sys.float_info.max
REL_TOL = 1e-14

nonneg = st.floats(min_value=0.0, max_value=MAX, allow_nan=False, allow_infinity=False)
mu_values = st.floats(min_value=1.0, max_value=MAX, allow_nan=False, allow_infinity=False)
PROPERTY = settings(max_examples=1500, deadline=None, derandomize=True)


def _decimals(*values):
    return (Decimal(float(v)) for v in values)


def _ln1p(y):
    # ln(1 + y) without forming 1 + y, which 50 digits cannot hold for tiny y.
    return y - y * y / 2 + y ** 3 / 3 if y < Decimal("1e-12") else (1 + y).ln()


def ref_af(alpha, beta, mu, p_r):
    """0.5*log2 f(x_hat) from the quadratics themselves, at 50 digits.

    f - 1 is (num - den)/den, where num - den = (n1 - d1)*x because the
    quadratic and constant terms are shared.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        a, b, m, p = _decimals(alpha, beta, mu, p_r)
        if a <= b or m == 1 or p == 0:
            return 0.0
        x = p / m if b == 0 else min(p / m, 1 / (a * b * m).sqrt())
        n1, d1 = a * m + b, a + b * m
        den = a * b * m * x * x + d1 * x + 1
        return float(_ln1p((n1 - d1) * x / den) / (2 * Decimal(2).ln()))


def ref_df(alpha, beta, mu, p_r):
    """Half the smaller cut, log2(mu) or log2((1+alpha*P_r)/(1+beta*P_r)), at 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        a, b, m, p = _decimals(alpha, beta, mu, p_r)
        if a <= b:
            return 0.0
        second = _ln1p((a * p - b * p) / (1 + b * p))
        return float(min(m.ln(), second) / (2 * Decimal(2).ln()))


def within_ulps(lower, upper, ulps):
    """lower <= upper up to `ulps` units in the last place of upper.

    C_AF <= C_DF <= 0.5*log2(mu) hold exactly in real arithmetic, but the
    three values are rounded by different routes: log1p of the AF gain,
    log2(mu) and log1p of the second-hop gain in numpy, log2 of the C
    library here. Where two of them coincide -- AF saturating at the first
    cut, or the AF penalty factors rounding to 1 at extreme scales -- each
    rounds on its own; scans of the full float range found C_AF up to 3 ulp
    above C_DF. For normal values 4 ulp is at most 4*eps relative; below the
    normal range the spacing of floats is absolute, and so is the slack.
    """
    return lower <= upper + ulps * math.ulp(upper)


def check_invariants(alpha, beta, mu, p_r, c_af, con_af, c_df, con_df):
    for value in (c_af, con_af, c_df, con_df):
        assert math.isfinite(value)
    assert 0.0 <= con_af <= p_r
    assert 0.0 <= con_df <= p_r
    assert c_af >= 0.0 and within_ulps(c_af, c_df, 4)
    assert c_df >= 0.0 and within_ulps(c_df, 0.5 * math.log2(mu), 1)


@PROPERTY
@given(nonneg, nonneg, mu_values, nonneg)
def test_scalar_range_invariants(alpha, beta, mu, p_r):
    params, pb = DerivedParams(alpha, beta, mu), PowerBudget(0.0, p_r)
    a, d = af_secrecy_capacity(params, pb), df_secrecy_capacity(params, pb)
    check_invariants(alpha, beta, mu, p_r, a.capacity, a.consumed_power,
                     d.capacity, d.consumed_power)
    assert 0.0 <= a.x_hat <= p_r / mu
    assert d.x_hat == d.consumed_power


@PROPERTY
@given(st.lists(st.tuples(nonneg, nonneg, mu_values), min_size=1, max_size=16), nonneg)
def test_batch_range_invariants(lanes, p_r):
    alpha, beta, mu = (np.array(col) for col in zip(*lanes))
    c_af, con_af = af_batch(alpha, beta, mu, p_r)
    c_df, con_df = df_batch(alpha, beta, mu, p_r)
    for i in range(len(lanes)):
        check_invariants(alpha[i], beta[i], mu[i], p_r, c_af[i], con_af[i], c_df[i], con_df[i])


OVERFLOW_CASES = [
    (1e200, 1e-200, 1e200, 1e200),
    (2.0, 1.0, 1e308, 1e308),
    (5.0, 0.0, 3.0, 1e308),
    (MAX, 0.0, MAX, MAX),
    (5e-324, 0.0, 1.5, 5e-324),
    # Cases the float evaluation loses and the exact fallback recovers:
    (MAX, MAX / 2, 2.0, MAX),          # alpha + 1/x_hat overflows
    (1e300, 0.0, 1e300, 1e-10),        # x_hat = 1e-310 underflows; C_AF ~ 482 bits
    (2.0, 1.0, 1e90, 1e-148),          # first AF factor underflows, second ~1e90
    (MAX, MAX / 2, 2.0, 1e-308),       # beta + 1/p_r overflows in DF
]


@pytest.mark.parametrize("case", OVERFLOW_CASES)
def test_overflow_regressions(case):
    params, pb = DerivedParams(*case[:3]), PowerBudget(0.0, case[3])
    a, d = af_secrecy_capacity(params, pb), df_secrecy_capacity(params, pb)
    check_invariants(*case, a.capacity, a.consumed_power, d.capacity, d.consumed_power)
    assert a.capacity == pytest.approx(ref_af(*case), rel=REL_TOL, abs=1e-300)
    assert d.capacity == pytest.approx(ref_df(*case), rel=REL_TOL, abs=1e-300)


def ref_second_hop(alpha, beta, p_r):
    """log2((1+alpha*P_r)/(1+beta*P_r)) clamped at zero, at 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        a, b, p = _decimals(alpha, beta, p_r)
        ratio = (1 + a * p) / (1 + b * p)
        return 0.0 if ratio <= 1 else float(ratio.ln() / Decimal(2).ln())


@pytest.mark.parametrize("alpha, beta, p_r", [
    (2.0, 1.0, 1e308),        # the ratio of the unscaled products is inf/inf
    (2.0, 1.0, MAX),
    (MAX, MAX / 2, MAX),
    (1e300, 0.0, 1e300),      # the ratio itself exceeds MAX
    (MAX, 0.0, MAX),
    (1.0, 1e-300, 1e308),
    (1e308, 1e-308, 10.0),
    (5e-324, 0.0, MAX),       # just above 1
    (MAX, 1.0, 1e-300),
    (0.0, MAX, MAX),          # below 1: clamped
    (1.0, 2.0, 5e-324),
])
def test_second_hop_cut_stays_finite(alpha, beta, p_r):
    got = second_hop_secrecy_capacity(DerivedParams(alpha, beta, 1.0), PowerBudget(0.0, p_r))
    assert math.isfinite(got)
    assert got == pytest.approx(ref_second_hop(alpha, beta, p_r), rel=0.0, abs=1e-12)


def test_gains_at_huge_budget():
    # Second cut log2(2) is far below the first, so DF spends the full budget.
    params, pb = DerivedParams(2.0, 1.0, 1e308), PowerBudget(0.0, 1e308)
    assert df_secrecy_capacity(params, pb).x_hat == 1e308
    assert af_secrecy_capacity(params, pb).x_hat > 0.0


PRECISION_CASES = [
    (1.0 + 1e-12, 1.0, 5.0, 3.0),        # alpha - beta ~ 1e-12, full power
    (1.0 + 1e-12, 1.0, 5.0, 100.0),      # alpha - beta ~ 1e-12, saturated
    (3.0, 3.0 - 1e-12, 2.0, 40.0),
    (2.0, 1.0, 1.0 + 2.0**-40, 5.0),     # mu near 1
    (2.0, 1.0, 1.0 + 1e-12, 0.3),
    (3.0, 0.5, 1.0 + 1e-7, 100.0),
    (4.0, 0.0, 1.0 + 1e-15, 7.0),
    (4.0, 1.0, 2.0, 1e-12),              # small budget
]


@pytest.mark.parametrize("case", PRECISION_CASES)
def test_small_capacities_keep_relative_precision(case):
    params, pb = DerivedParams(*case[:3]), PowerBudget(0.0, case[3])
    c_af = af_secrecy_capacity(params, pb).capacity
    c_df = df_secrecy_capacity(params, pb).capacity
    assert 0.0 < c_af < 1e-6
    assert c_af == pytest.approx(ref_af(*case), rel=REL_TOL, abs=0.0)
    assert c_df == pytest.approx(ref_df(*case), rel=REL_TOL, abs=0.0)


def test_random_draws_match_reference():
    rng = np.random.default_rng(40)
    n = 400
    alpha, beta = rng.exponential(1.0, n), rng.exponential(1.0, n)
    mu, p_r = rng.uniform(1.0, 20.0, n), rng.uniform(0.0, 50.0, n)
    for i in range(n):
        case = (alpha[i], beta[i], mu[i], p_r[i])
        params, pb = DerivedParams(*case[:3]), PowerBudget(0.0, case[3])
        assert af_secrecy_capacity(params, pb).capacity == pytest.approx(
            ref_af(*case), rel=REL_TOL, abs=0.0)
        assert df_secrecy_capacity(params, pb).capacity == pytest.approx(
            ref_df(*case), rel=REL_TOL, abs=0.0)
        if alpha[i] > beta[i] and p_r[i] > 0.0:
            prob = RatioQuadraticProblem(*case[:3], p_r[i] / mu[i])
            lam = lambda_hat_closed_form(prob).lambda_hat
            assert lam == pytest.approx(2.0 ** (2.0 * ref_af(*case)), rel=REL_TOL)


def test_consumed_never_exceeds_budget_exactly():
    # On full-power lanes mu*(p_r/mu) can round 1 ulp above p_r; the AF
    # kernel must return p_r itself there.
    rng = np.random.default_rng(41)
    n = 20_000
    alpha, beta = rng.exponential(1.0, n), rng.exponential(1.0, n)
    mu, p_r = rng.uniform(1.0, 20.0, n), rng.uniform(0.0, 50.0, n)
    for kernel in (af_batch, df_batch):
        _, consumed = kernel(alpha, beta, mu, p_r)
        assert np.all(consumed >= 0.0) and np.all(consumed <= p_r)


def test_montecarlo_runs_the_same_kernels():
    assert montecarlo.af_batch is af.af_batch
    assert montecarlo.df_batch is df.df_batch
    assert montecarlo._KERNELS == {Strategy.AF: af.af_batch, Strategy.DF: df.df_batch}
    assert [k.__name__ for k in montecarlo._KERNELS.values()] == ["af_batch", "df_batch"]


# The kernels as they were before the lazy balancing gain and the masked
# writes, kept here so that any change of a lane's value shows.
def _frozen_exact_lanes(fn, values, redo, *args):
    from fractions import Fraction

    lanes = np.broadcast_arrays(redo, *args)
    out = np.array(values, dtype=float)
    out[lanes[0]] = [float(fn(*map(Fraction, map(float, vals))))
                     for vals in zip(*(lane[lanes[0]] for lane in lanes[1:]))]
    return out


def _frozen_af_factors(alpha, beta, mu, consumed):
    return (alpha - beta) / (alpha + mu / consumed), (mu - 1) / (1 + beta * consumed)


def frozen_af_batch(alpha, beta, mu, p_r):
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        consumed = np.minimum(p_r, np.sqrt(mu) / np.sqrt(alpha) / np.sqrt(beta))
        first, second = _frozen_af_factors(alpha, beta, mu, consumed)
        gain = first * second
        active = (alpha > beta) & (mu > 1.0)
        redo = active & (consumed > 0.0) & ~(first >= sys.float_info.min)
        if np.any(redo):
            gain = _frozen_exact_lanes(lambda *v: math.prod(_frozen_af_factors(*v)), gain,
                                       redo, alpha, beta, mu, consumed)
        capacity = np.where(active, np.log1p(gain) * (0.5 / math.log(2.0)), 0.0)
        consumed = np.where(active, consumed, 0.0)
    return capacity, consumed


def _frozen_second_hop_gain(alpha, beta, p_r):
    return (alpha - beta) / (beta + 1 / p_r)


def frozen_df_batch(alpha, beta, mu, p_r):
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        p_r = np.asarray(p_r, dtype=float)
        snr = _frozen_second_hop_gain(alpha, beta, p_r)
        positive = (alpha > beta) & (mu > 1.0)
        redo = positive & (p_r > 0.0) & ~(snr >= sys.float_info.min)
        if np.any(redo):
            snr = _frozen_exact_lanes(_frozen_second_hop_gain, snr, redo, alpha, beta, p_r)
        first = 0.5 * np.log2(mu)
        second = np.log1p(snr) * (0.5 / math.log(2.0))
        capacity = np.where(positive, np.minimum(first, second), 0.0)
        gain = np.divide(mu - 1.0, alpha - beta * mu)
        gain = np.where(gain >= 0.0, gain, np.inf)
        balancing = positive & (second > first) & (gain <= p_r)
        gain = np.where(balancing, gain, np.where(positive, p_r, 0.0))
    return capacity, gain


def assert_same_bits(got, want):
    """Same type, shape and value lane by lane, signed zeros included."""
    for g, w in zip(got, want, strict=True):
        assert type(g) is type(w) and np.shape(g) == np.shape(w)
        assert np.array_equal(g, w, equal_nan=True)
        assert np.array_equal(np.signbit(g), np.signbit(w))


def _kernel_lanes():
    """Random lanes and the edge cases of both kernels."""
    rng = np.random.default_rng(42)
    n = 3000
    alpha = rng.exponential(2.0, n)
    beta = rng.exponential(1.0, n)
    mu = 1.0 + rng.exponential(10.0, n)
    beta[:100] = alpha[:100]                              # alpha == beta
    alpha[100:200] *= rng.uniform(0.0, 1.0, 100)          # alpha <= beta mostly
    beta[100:200] = np.maximum(beta[100:200], alpha[100:200])
    mu[200:300] = 1.0                                     # no first hop
    beta[300:400] = 0.0                                   # AF never saturates
    alpha[400:500] = 0.0
    share = 1.0 / mu[500:600]                             # alpha <= beta*mu: DF never balances
    beta[500:600] = alpha[500:600] * (share + (1.0 - share) * rng.uniform(0.01, 0.99, 100))
    return alpha, beta, mu


def _tie_budgets(alpha, beta, mu):
    """Budgets equal to and one ulp around some lanes' DF balancing gains
    and AF saturation budgets, where the cuts tie up to rounding."""
    with np.errstate(divide="ignore", invalid="ignore"):
        s_df = (mu - 1.0) / (alpha - beta * mu)
        s_af = np.sqrt(mu) / np.sqrt(alpha) / np.sqrt(beta)
    ties = np.concatenate([s_df[np.isfinite(s_df) & (s_df > 0)][:15],
                           s_af[np.isfinite(s_af) & (alpha > beta)][:5]])
    return np.concatenate([ties, np.nextafter(ties, 0.0), np.nextafter(ties, np.inf)])


KERNELS = [(af_batch, frozen_af_batch), (df_batch, frozen_df_batch)]


def _lane_budgets(alpha, beta, mu):
    """Budgets for `_kernel_lanes`: subnormal to inf, at and one ulp around
    some lanes' thresholds, and each lane's own balancing gain as its budget,
    where its cuts tie."""
    budgets = [0.0, 5e-324, 1e-300, 0.05, 0.3, 1.0, 2.5, 20.0, 1e3, 1e300, MAX, math.inf]
    with np.errstate(divide="ignore", invalid="ignore"):
        own = np.abs((mu - 1.0) / (alpha - beta * mu))
    own = np.where(np.isfinite(own), own, 1.0)
    return budgets + list(_tie_budgets(alpha, beta, mu)) + [
        own, np.nextafter(own, 0.0), np.nextafter(own, np.inf)]


@pytest.mark.parametrize("kernel, frozen", KERNELS)
def test_kernels_match_frozen_expressions_on_lanes(kernel, frozen):
    alpha, beta, mu = _kernel_lanes()
    for p_r in _lane_budgets(alpha, beta, mu):
        assert_same_bits(kernel(alpha, beta, mu, p_r), frozen(alpha, beta, mu, p_r))


@pytest.mark.parametrize("kernel, frozen", KERNELS)
def test_kernels_match_frozen_expressions_when_broadcasting(kernel, frozen):
    alpha, beta, mu = (v[::50] for v in _kernel_lanes())
    column = np.array([0.0, 0.5, 3.0, 40.0])[:, None]     # (k, 1) budgets
    assert_same_bits(kernel(alpha, beta, mu, column), frozen(alpha, beta, mu, column))
    assert_same_bits(kernel(alpha, beta, mu, np.float64(2.0)), frozen(alpha, beta, mu, 2.0))
    assert_same_bits(kernel(alpha, 0.5, 4.0, 2.0), frozen(alpha, 0.5, 4.0, 2.0))
    assert_same_bits(kernel(3.0, beta, mu[:, None], column[:, :, None]),
                     frozen(3.0, beta, mu[:, None], column[:, :, None]))


SCALAR_CASES = OVERFLOW_CASES + PRECISION_CASES + [
    (2.0, 1.0, 3.0, 0.5), (2.0, 1.0, 3.0, 2.0),  # DF balancing gain exactly 2
    (1.0, 2.0, 3.0, 0.5), (2.0, 2.0, 3.0, 0.5), (0.0, 0.0, 1.0, 0.0),
    (2.0, 0.0, 1.0, 4.0), (2.0, 1.0, 1.0, 4.0), (2.0, 1.0, 3.0, 0.0), (2.0, 1.0, 3.0, math.inf),
]


@pytest.mark.parametrize("case", SCALAR_CASES)
@pytest.mark.parametrize("kernel, frozen", KERNELS)
def test_kernels_match_frozen_expressions_on_scalars(kernel, frozen, case):
    assert_same_bits(kernel(*case), frozen(*case))
    zero_d = [np.float64(v) for v in case]
    assert_same_bits(kernel(*zero_d), frozen(*zero_d))
    lanes = [np.array([v]) for v in case]
    assert_same_bits(kernel(*lanes), frozen(*lanes))


def test_balancing_gain_is_the_ratio_or_inf():
    alpha, beta, mu = _kernel_lanes()
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = df.df_balancing_gain(alpha, beta, mu)
        ratio = (mu - 1.0) / (alpha - beta * mu)
    assert np.array_equal(gain, np.where(ratio >= 0.0, ratio, np.inf))
    assert np.isinf(gain).any() and not np.isnan(gain).any()
    with np.errstate(divide="ignore", invalid="ignore"):
        assert [float(df.df_balancing_gain(*case)) for case in
                [(4.0, 1.0, 3.0), (2.0, 1.0, 3.0), (2.0, 2.0, 1.0)]] == [2.0, math.inf, math.inf]


def test_kernels_give_zero_where_the_first_hop_carries_no_signal():
    # mu == 1: no secrecy and no relay power at any budget. DF consumed the
    # whole budget where its second cut rounded to zero, as at 5e-324.
    alpha = np.array([1.25, 2.0, 1e300, 5e-324, 1.0, 0.5])
    beta = np.array([1.0, 1.0, 0.0, 0.0, 1.0, 1.0])
    mu = np.ones_like(alpha)
    for kernel in (af_batch, df_batch):
        for p_r in (0.0, 5e-324, 1e-300, 1.0, math.inf):
            assert_same_bits(kernel(alpha, beta, mu, p_r),
                             (np.zeros_like(alpha), np.zeros_like(alpha)))
            assert [float(v) for v in kernel(1.25, 1.0, 1.0, p_r)] == [0.0, 0.0]


def test_df_batch_consumed_power_is_the_gain_where_the_second_cut_is_larger():
    # At budgets equal to each lane's balancing gain and one ulp either
    # side, where the two cuts tie up to rounding; lanes 500-600 have an inf
    # gain, and the alpha <= beta and mu == 1 lanes are inactive.
    alpha, beta, mu = _kernel_lanes()
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = df.df_balancing_gain(alpha, beta, mu)
    active = (alpha > beta) & (mu > 1.0)
    own = np.where(np.isfinite(gain), gain, 1.0)
    takes = {"gain": 0, "budget where the gain rounds above it": 0, "full power": 0}
    for p_r in (own, np.nextafter(own, 0.0), np.nextafter(own, np.inf)):
        _, consumed = df_batch(alpha, beta, mu, p_r)
        with np.errstate(divide="ignore", over="ignore"):
            snr = _frozen_second_hop_gain(alpha, beta, p_r)
        # Subnormal gains, as at p_r = 5e-324, are redone exactly, as the kernel does.
        redo = active & (p_r > 0.0) & ~(snr >= sys.float_info.min)
        snr = _frozen_exact_lanes(_frozen_second_hop_gain, snr, redo, alpha, beta, p_r)
        second = np.log1p(snr) * (0.5 / math.log(2.0))
        larger = active & (second > 0.5 * np.log2(mu))
        balancing = larger & (gain <= p_r)
        want = np.where(balancing, gain, np.where(active, p_r, 0.0))
        assert_same_bits((consumed,), (want,))
        takes["gain"] += np.count_nonzero(balancing)
        takes["budget where the gain rounds above it"] += np.count_nonzero(larger & ~balancing)
        takes["full power"] += np.count_nonzero(active & ~larger & np.isfinite(gain))
    assert min(takes.values()) > 0, takes


def kernel_terms(kernel, alpha, beta, mu):
    """The budget-independent lane terms of `kernel`, as the Monte Carlo
    sweep passes them: with the threshold it already holds."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if kernel is af_batch:
            return {"lanes": af.af_lane_terms(alpha, beta, mu)}
        gain = df.df_balancing_gain(alpha, beta, mu)
        return {"lanes": df.df_lane_terms(alpha, beta, mu, balancing_gain=gain)}


def assert_terms_change_no_bit(kernel, alpha, beta, mu, p_r):
    given = kernel(alpha, beta, mu, p_r, **kernel_terms(kernel, alpha, beta, mu))
    assert_same_bits(given, kernel(alpha, beta, mu, p_r))


@pytest.mark.parametrize("kernel, module", [(af_batch, af), (df_batch, df)])
def test_given_terms_change_no_bit_on_lanes(monkeypatch, kernel, module):
    exact = module._exact_lanes
    redone = []
    monkeypatch.setattr(module, "_exact_lanes", lambda *a: redone.append(1) or exact(*a))
    alpha, beta, mu = _kernel_lanes()
    for p_r in _lane_budgets(alpha, beta, mu):
        assert_terms_change_no_bit(kernel, alpha, beta, mu, p_r)
    assert redone  # the subnormal budgets send lanes to the exact fallback
    alpha, beta, mu = (v[::50] for v in (alpha, beta, mu))
    column = np.array([0.0, 0.5, 3.0, 40.0])[:, None]     # (k, 1) budgets
    assert_terms_change_no_bit(kernel, alpha, beta, mu, column)
    assert_terms_change_no_bit(kernel, 3.0, beta, mu[:, None], column[:, :, None])


@pytest.mark.parametrize("kernel, frozen", KERNELS)
def test_given_terms_change_no_bit_on_active_lanes(kernel, frozen):
    # The sweep's case: no lane is inactive, so no lane is zeroed.
    alpha, beta, mu = _kernel_lanes()
    active = (alpha > beta) & (mu > 1.0)
    alpha, beta, mu = alpha[active], beta[active], mu[active]
    terms = kernel_terms(kernel, alpha, beta, mu)
    assert terms["lanes"][-1] is None
    for p_r in _lane_budgets(alpha, beta, mu):
        got = kernel(alpha, beta, mu, p_r, **terms)
        assert_same_bits(got, kernel(alpha, beta, mu, p_r))
        assert_same_bits(got, frozen(alpha, beta, mu, p_r))


def test_df_terms_without_the_gain_change_no_bit():
    alpha, beta, mu = _kernel_lanes()
    lanes = df.df_lane_terms(alpha, beta, mu)
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = df.df_balancing_gain(alpha, beta, mu)
    assert lanes[-1] is not None
    assert_same_bits(lanes, df.df_lane_terms(alpha, beta, mu, balancing_gain=gain))
    for p_r in _lane_budgets(alpha, beta, mu):
        assert_same_bits(df_batch(alpha, beta, mu, p_r, lanes=lanes), df_batch(alpha, beta, mu, p_r))


@pytest.mark.parametrize("case", SCALAR_CASES)
@pytest.mark.parametrize("kernel", [af_batch, df_batch])
def test_given_terms_change_no_bit_on_scalars(kernel, case):
    assert_terms_change_no_bit(kernel, *case)
    assert_terms_change_no_bit(kernel, *(np.float64(v) for v in case))
    assert_terms_change_no_bit(kernel, *(np.array([v]) for v in case))


def test_given_terms_are_not_recomputed(monkeypatch):
    alpha, beta, mu = _kernel_lanes()
    af_terms = kernel_terms(af_batch, alpha, beta, mu)
    df_terms = kernel_terms(df_batch, alpha, beta, mu)

    def fail(*args, **kwargs):
        raise AssertionError("a given term was recomputed")

    for name in ("af_lane_terms", "af_saturation_budget", "_inactive"):
        monkeypatch.setattr(af, name, fail)
    for name in ("df_lane_terms", "df_balancing_gain", "df_first_cut", "_inactive"):
        monkeypatch.setattr(df, name, fail)
    af_batch(alpha, beta, mu, 2.5, **af_terms)
    df_batch(alpha, beta, mu, 2.5, **df_terms)
