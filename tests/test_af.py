import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mc_estimators import mutual_info_destination_mc, mutual_info_eavesdropper_mc
from reference import af_rate
from secrelay import af
from secrelay.af import (
    af_achievable_rate_at,
    af_secrecy_capacity,
    mutual_info_destination,
    mutual_info_eavesdropper,
)
from secrelay.channel import ChannelRealization, DerivedParams, PowerBudget, Strategy
from secrelay.fractional import RatioQuadraticProblem, grid_oracle, lambda_hat_closed_form

PARAMS = DerivedParams(4.0, 1.0, 2.0)
# h_r=1, h_d=2, h_e=1 with P_s=1 reproduces PARAMS.
CH = ChannelRealization(1.0, 2.0, 1.0)


def random_case(rng):
    return (
        DerivedParams(rng.exponential(), rng.exponential(), rng.uniform(1.0, 20.0)),
        PowerBudget(1.0, rng.uniform(0.0, 50.0)),
    )


def rate_ulps(mu):
    """Bound in ulps on `af_achievable_rate_at`'s error (Higham 2002, ch.
    2-3; u = 2**-53, first order).

    With g = f - 1 the product of `af._af_factors` at t = mu*x: rounding t
    moves g by at most u (|d ln g / d ln t| <= 1); each factor is within 4u
    (its difference, its sum of two positive terms with one rounded input,
    its division); the product adds u. log1p scales that 10u by its
    condition number kappa = |g/((1+g)*ln(1+g))|, which is at most 1 for
    g >= 0 and at most (mu-1)/ln(mu) for g < 0, where f = 1 + g >= 1/mu.
    log1p itself is within one ulp (2u), the constant and the product by it
    add 2u, and the reference rounds by half an ulp. A relative error of n*u
    is at most n ulps.
    """
    return 10.0 * max(1.0, (mu - 1.0) / math.log(mu)) + 5.0


class TestMutualInfo:
    def test_zero_gain_gives_zero(self):
        assert mutual_info_destination(PARAMS, 0.0) == 0.0
        assert mutual_info_eavesdropper(PARAMS, 0.0) == 0.0

    def test_mu_one_gives_zero(self):
        params = DerivedParams(4.0, 1.0, 1.0)
        for x in (0.0, 0.5, 3.0):
            assert mutual_info_destination(params, x) == 0.0

    def test_reference_values(self):
        assert mutual_info_destination(PARAMS, 0.25) == pytest.approx(math.log2(1.5), abs=1e-15)
        assert mutual_info_eavesdropper(PARAMS, 0.25) == pytest.approx(math.log2(1.2), abs=1e-15)

    def test_symmetric_links_coincide(self):
        params = DerivedParams(3.0, 3.0, 5.0)
        for x in (0.1, 1.0, 7.0):
            assert mutual_info_destination(params, x) == mutual_info_eavesdropper(params, x)

    def test_monte_carlo_agrees_destination(self):
        pb = PowerBudget(1.0, 10.0)
        est, se = mutual_info_destination_mc(CH, pb, 0.25, rng=np.random.default_rng(100))
        assert abs(est - math.log2(1.5)) <= 3.0 * se

    def test_monte_carlo_agrees_eavesdropper(self):
        pb = PowerBudget(1.0, 10.0)
        est, se = mutual_info_eavesdropper_mc(CH, pb, 0.25, rng=np.random.default_rng(101))
        assert abs(est - math.log2(1.2)) <= 3.0 * se


class TestOptimalGain:
    def test_weak_destination(self):
        assert af_secrecy_capacity(DerivedParams(1.0, 2.0, 5.0), PowerBudget(1.0, 3.0)).x_hat == 0.0

    def test_full_power_regime(self):
        # P_r = 0.5 <= sqrt(mu/(alpha*beta)) = sqrt(0.5).
        assert af_secrecy_capacity(PARAMS, PowerBudget(1.0, 0.5)).x_hat == 0.25

    def test_saturated_regime(self):
        assert af_secrecy_capacity(PARAMS, PowerBudget(1.0, 10.0)).x_hat == pytest.approx(
            1.0 / math.sqrt(8.0), abs=1e-15
        )

    def test_zero_eavesdropper_uses_full_power(self):
        res = af_secrecy_capacity(DerivedParams(4.0, 0.0, 2.0), PowerBudget(1.0, 10.0))
        assert res.x_hat == 5.0


class TestSecrecyCapacity:
    def test_weak_destination_is_zero(self):
        res = af_secrecy_capacity(DerivedParams(1.0, 4.0, 2.0), PowerBudget(1.0, 7.0))
        assert (res.capacity, res.x_hat, res.consumed_power) == (0.0, 0.0, 0.0)
        assert res.strategy is Strategy.AF

    def test_full_power_value(self):
        # Frozen from the grid oracle: max f = 1.25 at x = 0.25.
        res = af_secrecy_capacity(PARAMS, PowerBudget(1.0, 0.5))
        assert res.capacity == pytest.approx(0.16096404744368117, abs=1e-15)
        assert res.x_hat == 0.25
        assert res.consumed_power == pytest.approx(0.5, abs=1e-15)

    def test_saturated_value_and_power_saving(self):
        # Frozen from the grid oracle: max f = 1.2573593128807148 at 1/sqrt(8).
        res = af_secrecy_capacity(PARAMS, PowerBudget(1.0, 10.0))
        assert res.capacity == pytest.approx(0.16519849227621203, abs=1e-12)
        assert res.x_hat == pytest.approx(1.0 / math.sqrt(8.0), abs=1e-15)
        assert res.consumed_power == pytest.approx(math.sqrt(0.5), abs=1e-14)
        assert res.consumed_power < 10.0

    def test_matches_parametric_solver(self):
        rng = np.random.default_rng(200)
        for _ in range(300):
            params, pb = random_case(rng)
            if params.alpha <= params.beta or params.mu <= 1.0 or pb.p_r == 0.0:
                continue
            prob = RatioQuadraticProblem(params.alpha, params.beta, params.mu, pb.p_r / params.mu)
            sol = lambda_hat_closed_form(prob)
            res = af_secrecy_capacity(params, pb)
            assert abs(res.capacity - 0.5 * math.log2(sol.lambda_hat)) <= 1e-9
            assert abs(res.x_hat - sol.x_hat) <= 1e-9 * max(1.0, prob.x_max)

    def test_monotone_in_budget(self):
        rng = np.random.default_rng(201)
        for _ in range(50):
            params, _ = random_case(rng)
            caps = [
                af_secrecy_capacity(params, PowerBudget(1.0, p)).capacity
                for p in np.linspace(0.0, 30.0, 40)
            ]
            assert all(b >= a - 1e-12 for a, b in zip(caps, caps[1:]))

    def test_saturation_plateau(self):
        rng = np.random.default_rng(202)
        for _ in range(100):
            params, _ = random_case(rng)
            if params.alpha <= params.beta or params.alpha * params.beta == 0.0:
                continue
            knee = math.sqrt(params.mu / (params.alpha * params.beta))
            base = af_secrecy_capacity(params, PowerBudget(1.0, knee)).capacity
            for scale in (1.5, 4.0, 50.0):
                cap = af_secrecy_capacity(params, PowerBudget(1.0, knee * scale)).capacity
                assert cap == pytest.approx(base, abs=1e-12)

    def test_zero_conditions(self):
        rng = np.random.default_rng(203)
        for _ in range(300):
            params, pb = random_case(rng)
            res = af_secrecy_capacity(params, pb)
            should_be_zero = params.alpha <= params.beta or params.mu == 1.0 or pb.p_r == 0.0
            assert (res.capacity == 0.0) == should_be_zero

    def test_consumed_within_budget(self):
        rng = np.random.default_rng(204)
        for _ in range(300):
            params, pb = random_case(rng)
            assert af_secrecy_capacity(params, pb).consumed_power <= pb.p_r + 1e-12


class TestAchievableRate:
    def test_zero_gain(self):
        assert af_achievable_rate_at(PARAMS, PowerBudget(1.0, 0.5), 0.0) == 0.0

    def test_optimum_attains_capacity(self):
        pb = PowerBudget(1.0, 0.5)
        res = af_secrecy_capacity(PARAMS, pb)
        assert af_achievable_rate_at(PARAMS, pb, res.x_hat) == pytest.approx(
            res.capacity, abs=1e-12
        )

    def test_negative_before_clamp(self):
        params = DerivedParams(1.0, 4.0, 2.0)
        rate = af_achievable_rate_at(params, PowerBudget(1.0, 1.0), 0.1)
        assert rate < 0.0

    def test_rejects_infeasible_gain(self):
        with pytest.raises(ValueError):
            af_achievable_rate_at(PARAMS, PowerBudget(1.0, 0.5), 0.26)
        with pytest.raises(ValueError):
            af_achievable_rate_at(PARAMS, PowerBudget(1.0, 0.5), -0.01)

    def test_optimum_dominates_feasible_grid(self):
        rng = np.random.default_rng(205)
        for _ in range(100):
            params, pb = random_case(rng)
            best = af_achievable_rate_at(params, pb, af_secrecy_capacity(params, pb).x_hat)
            # The two differ only in rounding mu*(consumed/mu). A rounding
            # count allows 22 ulps; 40,000 verify-like draws showed at most 4.
            cap = af_secrecy_capacity(params, pb).capacity
            assert abs(best - cap) <= 4 * math.ulp(cap)
            x_max = pb.p_r / params.mu
            for x in np.linspace(0.0, x_max, 25):
                assert best >= af_achievable_rate_at(params, pb, float(x)) - 1e-12

    def test_tiny_rate_keeps_relative_precision(self):
        # mu within 3.3e-11 of 1: the two log ratios, 6.5e-17 and 6.0e-17,
        # cancel to a difference 12 times smaller.
        params = DerivedParams(0.24452212710260135, 0.22347569875128315, 1.0000000000327498)
        pb, x = PowerBudget(1.0, 5.686827433004964e-05), 8.146604699728815e-06
        ref = af_rate(params.alpha, params.beta, params.mu, x)
        assert ref == pytest.approx(4.0505e-18, rel=1e-4)
        rate = af_achievable_rate_at(params, pb, x)
        assert abs(rate - ref) <= rate_ulps(params.mu) * math.ulp(ref)

    # beta = alpha*ratio, the ratio also within 1e-6 of 1, and x log-uniform
    # down to 1e-12*x_max: the exact reference has no cancellation to avoid.
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.floats(1e-2, 10.0),
        st.one_of(st.floats(1e-2, 100.0), st.floats(1.0 - 1e-6, 1.0 + 1e-6)),
        st.floats(-12.0, math.log10(20.0)),
        st.floats(-8.0, math.log10(50.0)),
        st.floats(-12.0, 0.0),
    )
    def test_rate_matches_reference(self, alpha, ratio, log10_mu_excess, log10_p_r, log10_frac):
        params = DerivedParams(alpha, alpha * ratio, 1.0 + 10.0**log10_mu_excess)
        pb = PowerBudget(1.0, 10.0**log10_p_r)
        x = 10.0**log10_frac * (pb.p_r / params.mu)
        ref = af_rate(params.alpha, params.beta, params.mu, x)
        rate = af_achievable_rate_at(params, pb, x)
        assert (rate > 0.0) == (params.beta < params.alpha)
        assert abs(rate - ref) <= rate_ulps(params.mu) * math.ulp(ref)

    @pytest.mark.xfail(strict=True, reason=(
        "_af_excess redoes out-of-range lanes only where secrecy is possible: "
        "for alpha < beta the first factor reads -0 once mu/consumed overflows"))
    def test_negative_rate_at_subnormal_gain(self):
        params, x = DerivedParams(4.927053682117321, 423.7296599174859, 2.0), 1.11253692926e-313
        ref = af_rate(params.alpha, params.beta, params.mu, x)
        assert ref == pytest.approx(-3.361e-311, rel=1e-3)
        rate = af_achievable_rate_at(params, PowerBudget(1.0, 1.0), x)
        assert abs(rate - ref) <= rate_ulps(params.mu) * math.ulp(ref)

    def test_rate_at_subnormal_peak_matches_capacity(self):
        # The first factor of f - 1 is subnormal at this optimum, so the
        # rate needs the kernel's exact fallback, as the capacity does.
        params = DerivedParams(1.0327266203056355e+283, 6.287542798183648e+164,
                               4.790368288204546e+174)
        pb = PowerBudget(1.0, 1.0)
        res = af_secrecy_capacity(params, pb)
        assert res.x_hat < 1e-300
        rate = af_achievable_rate_at(params, pb, res.x_hat)
        assert rate == pytest.approx(res.capacity, rel=1e-12)
        assert rate == pytest.approx(196.35170268807576, rel=1e-12)

    def test_rate_past_saturation_budget_is_not_zero(self):
        # Here 1 + beta*mu*x overflows while the second factor of f - 1,
        # (mu-1)/(1 + beta*mu*x) = 2.1e-146, is normal: the lane is redone
        # exactly, as one whose first factor leaves the normal range.
        params = DerivedParams(1.0327266203056355e+283, 6.287542798183648e+164,
                               4.790368288204546e+174)
        x = 7.598562151282281e-20
        rate = af_achievable_rate_at(params, PowerBudget(1.0, 1e156), x)
        ref = af_rate(params.alpha, params.beta, params.mu, x)
        assert rate == pytest.approx(ref, rel=1e-14, abs=0.0)
        assert rate == pytest.approx(1.509844318176459e-146, rel=1e-14, abs=0.0)

    def test_exact_fallback_stays_off_the_common_path(self, monkeypatch):
        # The fallback runs only where a first factor leaves the normal range
        # and secrecy is possible: never on verify-like draws (alpha <= beta
        # included) nor on an oracle grid, whose eval_f has no fallback.
        calls = []
        monkeypatch.setattr(af, "_exact_lanes", lambda *args: calls.append(args))
        rng = np.random.default_rng(207)
        for _ in range(400):
            params, pb = random_case(rng)
            x_max = pb.p_r / params.mu
            for x in (0.0, rng.uniform(0.0, x_max), x_max):
                af_achievable_rate_at(params, pb, float(x))
            lambda_hat_closed_form(RatioQuadraticProblem(params.alpha, params.beta, params.mu, x_max))
        for alpha, beta in ((4.0, 1.0), (1.0, 4.0)):
            grid_oracle(RatioQuadraticProblem(alpha, beta, 2.0, 0.25), 200_001)
        assert calls == []

    def test_matches_oracle_value_shape(self):
        # Rate at x is half the log of the ratio the oracle maximizes.
        pb = PowerBudget(1.0, 0.5)
        x_star, f_star = grid_oracle(RatioQuadraticProblem(4.0, 1.0, 2.0, 0.25), 100_001)
        assert af_achievable_rate_at(PARAMS, pb, x_star) == pytest.approx(
            0.5 * math.log2(f_star), abs=1e-12
        )
