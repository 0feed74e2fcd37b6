import cmath
import math

import numpy as np
import pytest

from secrelay.channel import (
    ChannelRealization,
    DerivedParams,
    PowerBudget,
    Strategy,
    db_to_linear,
    derive_params,
    gain_domain,
)


def test_derive_params_definitional():
    ch = ChannelRealization(1.0, 2.0, 1.0)
    params = derive_params(ch, PowerBudget(10.0, 1.0))
    assert params.alpha == 4.0
    assert params.beta == 1.0
    assert params.mu == 11.0


def test_derive_params_zero_first_hop_gives_mu_exactly_one():
    ch = ChannelRealization(0.0, 3.0 + 1j, 2.0)
    params = derive_params(ch, PowerBudget(123.0, 1.0))
    assert params.mu == 1.0


def test_derive_params_complex_unit_gain():
    ch = ChannelRealization(1.0 + 0.0j, 1.0, 1.0)
    params = derive_params(ch, PowerBudget(10.0, 1.0))
    assert params.mu == 11.0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_nonfinite_inputs_rejected(bad):
    with pytest.raises(ValueError):
        ChannelRealization(complex(bad, 0.0), 1.0, 1.0)
    with pytest.raises(ValueError):
        PowerBudget(bad, 1.0)
    with pytest.raises(ValueError):
        DerivedParams(1.0, 1.0, bad)
    with pytest.raises(ValueError):
        db_to_linear(bad)


def test_params_invariants_enforced():
    with pytest.raises(ValueError):
        DerivedParams(-1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        DerivedParams(1.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        PowerBudget(-1.0, 0.0)


def test_gain_domain_branches():
    params = DerivedParams(4.0, 1.0, 2.0)
    assert gain_domain(Strategy.AF, params, PowerBudget(1.0, 0.5)) == 0.25
    assert gain_domain(Strategy.DF, params, PowerBudget(1.0, 0.5)) == 0.5
    assert gain_domain(Strategy.AF, params, PowerBudget(1.0, 0.0)) == 0.0


def test_db_to_linear_anchors():
    assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-14)
    assert db_to_linear(0.0) == 1.0
    assert db_to_linear(-10.0) == pytest.approx(0.1, rel=1e-14)


def test_alpha_invariant_under_phase_rotation():
    rng = np.random.default_rng(3)
    pb = PowerBudget(2.0, 1.0)
    for _ in range(200):
        h_d = complex(rng.normal(), rng.normal())
        theta = rng.uniform(0.0, 2.0 * math.pi)
        base = derive_params(ChannelRealization(1.0, h_d, 1.0), pb)
        rot = derive_params(ChannelRealization(1.0, h_d * cmath.exp(1j * theta), 1.0), pb)
        assert rot.alpha == pytest.approx(base.alpha, rel=1e-12, abs=1e-15)


def test_af_domain_never_exceeds_df_domain():
    rng = np.random.default_rng(4)
    for _ in range(200):
        params = DerivedParams(rng.exponential(), rng.exponential(), rng.uniform(1.0, 30.0))
        pb = PowerBudget(1.0, rng.uniform(0.0, 50.0))
        assert gain_domain(Strategy.AF, params, pb) <= gain_domain(Strategy.DF, params, pb)


def test_db_scale_is_multiplicative():
    rng = np.random.default_rng(5)
    for _ in range(200):
        a, b = rng.uniform(-30.0, 30.0, 2)
        prod = db_to_linear(a) * db_to_linear(b)
        assert prod == pytest.approx(db_to_linear(a + b), rel=1e-12)


def test_power_budget_stores_negative_zero_as_zero():
    pb = PowerBudget(-0.0, -0.0)
    assert (pb.p_s, pb.p_r) == (0.0, 0.0)
    assert math.copysign(1.0, pb.p_s) == math.copysign(1.0, pb.p_r) == 1.0
    assert pb == PowerBudget(0.0, 0.0)
    assert PowerBudget(np.float64(-0.0), 2.0).p_s == 0.0
    assert math.copysign(1.0, PowerBudget(np.float64(-0.0), 2.0).p_s) == 1.0
