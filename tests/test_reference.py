"""Checks of the exact reference itself, which every precision test leans on:
its two AF forms against each other, and its values where they are known in
closed form."""

import math
from fractions import Fraction

import pytest

from reference import (
    af_capacity,
    af_excess,
    af_peak_excess,
    af_rate,
    df_capacity,
    genie,
    pi_of_lambda,
)
from secrelay.channel import ChannelRealization, DerivedParams
from secrelay.converse import select_phi


def test_endpoint_and_interior_forms_meet_at_the_saturation_budget():
    # sqrt(mu/(alpha*beta)) = 1 = p_r: f - 1 = 3/8 * 3/2 at full power, and
    # 3*3/(2 + 2)^2 at the interior optimum.
    assert af_excess(4.0, 1.0, 4.0, 1.0) == Fraction(9, 16)
    assert Fraction(af_peak_excess(4.0, 1.0, 4.0)) == Fraction(9, 16)


def test_full_power_capacity():
    # alpha = 4, beta = 1, mu = 2, p_r = 0.5: f(0.25) = 1.25, so the DF
    # second cut is log2(2) and pi vanishes at lambda = 1.25.
    assert af_excess(4.0, 1.0, 2.0, 0.5) == Fraction(1, 4)
    half_log2 = 0.5 * math.log2(1.25)
    assert abs(af_capacity(4.0, 1.0, 2.0, 0.5) - half_log2) <= math.ulp(half_log2)
    assert df_capacity(4.0, 1.0, 2.0, 0.5) == 0.5
    assert pi_of_lambda(4.0, 1.0, 2.0, 0.25, 1.25) == 0.0


@pytest.mark.parametrize("x", [0.0, 1e-300, 0.1, 0.25, 0.7, 1e10])
def test_genie_bound_at_select_phi_is_the_rate(x):
    # h_r = 1, h_d = 2, h_e = 1 with P_s = 1: alpha = 4, beta = 1, mu = 2,
    # and select_phi gives phi = 1/2 exactly, where the bound collapses.
    ch, params = ChannelRealization(1.0, 2.0, 1.0), DerivedParams(4.0, 1.0, 2.0)
    phi = select_phi(ch, params)
    assert phi.phi == 0.5
    assert genie(ch, params, phi, x)[2] == af_rate(4.0, 1.0, 2.0, x)
