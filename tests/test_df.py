import math

import numpy as np
import pytest

from secrelay.af import af_secrecy_capacity
from secrelay.channel import DerivedParams, PowerBudget, Strategy
from secrelay.df import (
    df_secrecy_capacity,
    second_hop_secrecy_capacity,
    source_relay_capacity,
)


def random_case(rng):
    return (
        DerivedParams(rng.exponential(), rng.exponential(), rng.uniform(1.0, 20.0)),
        PowerBudget(1.0, rng.uniform(0.0, 50.0)),
    )


class TestCuts:
    def test_first_hop_values(self):
        assert source_relay_capacity(DerivedParams(1.0, 1.0, 1.0)) == 0.0
        assert source_relay_capacity(DerivedParams(1.0, 1.0, 2.0)) == 1.0
        assert source_relay_capacity(DerivedParams(1.0, 1.0, 11.0)) == pytest.approx(
            3.4594316186372973, abs=1e-15
        )

    def test_second_hop_clamped(self):
        assert second_hop_secrecy_capacity(DerivedParams(1.0, 4.0, 2.0), PowerBudget(1.0, 5.0)) == 0.0
        assert second_hop_secrecy_capacity(DerivedParams(4.0, 1.0, 2.0), PowerBudget(1.0, 0.0)) == 0.0

    def test_second_hop_reference_value(self):
        val = second_hop_secrecy_capacity(DerivedParams(4.0, 1.0, 2.0), PowerBudget(1.0, 1.0))
        assert val == pytest.approx(math.log2(2.5), abs=1e-15)

    def test_second_hop_matches_gain_scan(self):
        # Oracle: scan the per-gain rate difference over the feasible interval.
        params = DerivedParams(4.0, 1.0, 2.0)
        pb = PowerBudget(1.0, 1.0)
        xs = np.linspace(0.0, pb.p_r, 100_001)
        rates = np.log2((1.0 + params.alpha * xs) / (1.0 + params.beta * xs))
        assert second_hop_secrecy_capacity(params, pb) == pytest.approx(
            float(rates.max()), abs=1e-9
        )


class TestCapacity:
    def test_weak_destination(self):
        res = df_secrecy_capacity(DerivedParams(1.0, 4.0, 3.0), PowerBudget(1.0, 2.0))
        assert (res.capacity, res.x_hat, res.consumed_power) == (0.0, 0.0, 0.0)
        assert res.strategy is Strategy.DF

    def test_second_hop_limited(self):
        res = df_secrecy_capacity(DerivedParams(4.0, 1.0, 8.0), PowerBudget(1.0, 1.0))
        assert res.capacity == pytest.approx(0.6609640474436812, abs=1e-15)
        assert res.x_hat == 1.0

    def test_first_hop_limited_saves_power(self):
        res = df_secrecy_capacity(DerivedParams(4.0, 1.0, 2.0), PowerBudget(1.0, 1.0))
        assert res.capacity == 0.5
        assert res.x_hat == 0.5
        assert res.consumed_power == 0.5
        # The dialed-down gain makes the second hop exactly match the first.
        assert math.log2((1.0 + 4.0 * res.x_hat) / (1.0 + 1.0 * res.x_hat)) == pytest.approx(
            1.0, abs=1e-15
        )

    def test_gain_branches(self):
        assert df_secrecy_capacity(DerivedParams(1.0, 4.0, 2.0), PowerBudget(1.0, 1.0)).x_hat == 0.0
        assert df_secrecy_capacity(DerivedParams(4.0, 1.0, 2.0), PowerBudget(1.0, 1.0)).x_hat == 0.5
        assert df_secrecy_capacity(DerivedParams(4.0, 1.0, 8.0), PowerBudget(1.0, 1.0)).x_hat == 1.0


class TestProperties:
    def test_balancing_branch_never_divides_by_nonpositive(self):
        rng = np.random.default_rng(30)
        for _ in range(500):
            params, pb = random_case(rng)
            ratio = (1.0 + params.alpha * pb.p_r) / (1.0 + params.beta * pb.p_r)
            if params.alpha > params.beta and ratio > params.mu:
                assert params.alpha - params.beta * params.mu > 0.0
            res = df_secrecy_capacity(params, pb)
            assert math.isfinite(res.x_hat)
            assert 0.0 <= res.x_hat <= pb.p_r + 1e-12

    def test_power_saving_equality(self):
        rng = np.random.default_rng(31)
        for _ in range(500):
            params, pb = random_case(rng)
            ratio = (1.0 + params.alpha * pb.p_r) / (1.0 + params.beta * pb.p_r)
            if not (params.alpha > params.beta and ratio > params.mu):
                continue
            x = df_secrecy_capacity(params, pb).x_hat
            balanced = math.log2((1.0 + params.alpha * x) / (1.0 + params.beta * x))
            assert abs(balanced - math.log2(params.mu)) <= 1e-12

    def test_min_cut_decomposition(self):
        rng = np.random.default_rng(32)
        for _ in range(500):
            params, pb = random_case(rng)
            res = df_secrecy_capacity(params, pb)
            expected = 0.5 * min(
                source_relay_capacity(params), second_hop_secrecy_capacity(params, pb)
            )
            assert abs(res.capacity - expected) <= 1e-12

    def test_df_dominates_af(self):
        rng = np.random.default_rng(33)
        for _ in range(1000):
            params, pb = random_case(rng)
            af = af_secrecy_capacity(params, pb).capacity
            df = df_secrecy_capacity(params, pb).capacity
            assert df >= af - 1e-12

    def test_second_hop_ratio_monotone_in_gain(self):
        rng = np.random.default_rng(34)
        for _ in range(200):
            a = rng.exponential() + 0.1
            b = rng.uniform(0.0, a * 0.99)
            xs = np.linspace(0.0, 10.0, 50)
            vals = (1.0 + a * xs) / (1.0 + b * xs)
            assert all(v2 >= v1 for v1, v2 in zip(vals, vals[1:]))
