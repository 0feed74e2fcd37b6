import functools
import math
import re
import sys
import threading
import time
import tracemalloc
import warnings
from contextlib import closing
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secrelay import montecarlo
from secrelay.af import af_saturation_budget, af_secrecy_capacity
from secrelay.channel import (
    ChannelRealization,
    DerivedParams,
    PowerBudget,
    Strategy,
    db_to_linear,
    derive_params,
    secrecy_possible,
)
from secrelay.df import df_balancing_gain, df_secrecy_capacity
from secrelay.montecarlo import (
    EnsembleConfig,
    af_batch,
    df_batch,
    ergodic_sweep,
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
            EnsembleConfig(var_hd=(0.0,))

    @pytest.mark.parametrize("var_hd", [1.0, np.float64(1.0), (), (1.0, 0.0), (-1.0,),
                                        (1.0, math.inf), (math.nan,)])
    def test_var_hd_is_a_non_empty_tuple_of_variances(self, var_hd):
        # One curve per entry: a bare float is no tuple of curves.
        with pytest.raises(ValueError, match="var_hd must be"):
            EnsembleConfig(var_hd=var_hd)

    def test_var_hd_entries_stored_as_floats(self):
        cfg = EnsembleConfig(var_hd=(np.float64(2.0), 3))
        assert cfg.var_hd == (2.0, 3.0)
        assert all(type(v) is float for v in cfg.var_hd)

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

    @pytest.mark.parametrize("field", ["seed", "n_samples"])
    @pytest.mark.parametrize("value", [1.5, 2.0, np.float64(3.0), True, np.True_, "3", None])
    def test_non_integer_counts_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            EnsembleConfig(**{field: value})

    def test_budget_too_large_for_the_sample_count(self):
        # The consumed power's M2 reaches n*p**2/4; past float range the
        # sweep gave stderr nan, and its mean inf once n*p overflowed.
        p = math.sqrt(sys.float_info.max / 1000)
        EnsembleConfig(p_r_grid=(0.0, p), n_samples=1000)
        for grid, n in (((0.0, 2 * p), 1000), ((0.0, p), 4000), ((1e308,), 1)):
            with pytest.raises(ValueError, match="p_r_grid reaches"):
                EnsembleConfig(p_r_grid=grid, n_samples=n)
        EnsembleConfig(p_r_grid=(0.0, 1e-200), n_samples=10**12)  # p**2 underflows

    def test_negative_zero_budget_stored_as_zero(self):
        cfg = EnsembleConfig(p_r_grid=(-0.0, 1.0), n_samples=3)
        assert cfg.p_r_grid == (0.0, 1.0)
        assert math.copysign(1.0, cfg.p_r_grid[0]) == 1.0
        for rec in ergodic_sweep(cfg):
            assert math.copysign(1.0, rec.p_r) == 1.0

    @pytest.mark.parametrize("value", [np.int64(5), np.uint64(5), 5])
    def test_integer_types_accepted_as_int(self, value):
        cfg = EnsembleConfig(seed=value, n_samples=value)
        assert type(cfg.seed) is int and type(cfg.n_samples) is int
        assert cfg == EnsembleConfig(seed=5, n_samples=5)


def _gains(cfg, z):
    """h_r, h_d, h_e of the standard normals z, each sqrt(var/2)*(x + 1j*y)
    of its pair of columns."""
    return tuple(math.sqrt(var / 2.0) * (z[..., k] + 1j * z[..., k + 1])
                 for var, k in ((cfg.var_hr, 0), (cfg.var_hd[0], 2), (cfg.var_he, 4)))


def _sweep_lanes(monkeypatch, cfg):
    """The (alpha, beta, mu) of every sample of a one-curve sweep, chunk by
    chunk, as the sweep builds them and tests where secrecy is possible."""
    lanes = []
    possible = montecarlo.secrecy_possible
    monkeypatch.setattr(montecarlo, "secrecy_possible", lambda *args: (
        lanes.append(args) or possible(*args)))
    ergodic_sweep(cfg)
    return tuple(np.concatenate(column) for column in zip(*lanes))


class TestSampling:
    @pytest.mark.parametrize("var", [1.0, 4.0])
    def test_mean_square_gain_matches_variance(self, monkeypatch, var):
        # Each |h|^2 is exponential with mean var; mu - 1 is p_s times one.
        cfg = EnsembleConfig(var_hr=var, var_hd=(var,), var_he=var,
                             **{**SMALL, "n_samples": 300_000, "seed": 8})
        alpha, beta, mu = _sweep_lanes(monkeypatch, cfg)
        for power in (alpha, beta, (mu - 1.0) / db_to_linear(cfg.p_s_dbw)):
            se = power.std(ddof=1) / math.sqrt(power.size)
            assert abs(power.mean() - var) <= 5.0 * se


class TestSweepInputs:
    """The per-sample (alpha, beta, mu) the sweep evaluates."""

    @pytest.mark.parametrize("var_hd", [1.0, 8.0, 0.3])
    def test_lanes_equal_halved_sums_of_squares(self, monkeypatch, var_hd):
        # Across chunk edges, bit for bit against one (n, 6) block, and to
        # rounding against derive_params of the gains the normals stand for.
        monkeypatch.setattr(montecarlo, "_CHUNK", SMALL_CHUNK)
        cfg = EnsembleConfig(var_hr=2.0, var_hd=(var_hd,), var_he=0.7, p_s_dbw=7.0,
                             n_samples=2 * SMALL_CHUNK + 5, seed=31)
        got = _sweep_lanes(monkeypatch, cfg)
        z = np.random.default_rng(cfg.seed).standard_normal((cfg.n_samples, 6))
        x, y = z[:, 0::2], z[:, 1::2]
        g_r, g_d, g_e = (x * x + y * y).T
        p_s = db_to_linear(cfg.p_s_dbw)
        want = (var_hd / 2.0 * g_d, cfg.var_he / 2.0 * g_e, 1.0 + p_s * (cfg.var_hr / 2.0 * g_r))
        for lane, ref in zip(got, want):
            assert np.array_equal(lane, ref)
        pb = PowerBudget(p_s, 1.0)
        for row, lanes in zip(z, zip(*got)):
            params = derive_params(ChannelRealization(*map(complex, _gains(cfg, row))), pb)
            np.testing.assert_allclose(lanes, (params.alpha, params.beta, params.mu),
                                       rtol=1e-15, atol=0.0)

    def test_normals_to_terms_without_complex_temporaries(self):
        # The normals of one piece (half a chunk) are squared in place and
        # each output is built in place, so the step holds no temporary
        # beyond its outputs.
        m = montecarlo._CHUNK // 2
        z = np.random.default_rng(32).standard_normal((m, 6))
        tracemalloc.start()
        try:
            kept = tuple(np.empty(m) for _ in range(3))
            montecarlo._params_from_normals(EnsembleConfig(**SMALL), 10.0, z, kept)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - sum(v.nbytes for v in kept) <= 4096


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
        z = np.random.default_rng(123).standard_normal(6)
        ch = ChannelRealization(*map(complex, _gains(cfg, z)))
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
        caps = [at(ergodic_sweep(EnsembleConfig(var_hd=(v,), **base)), 8.0)
                for v in (1.0, 2.0, 4.0, 8.0)]
        assert all(b > a for a, b in zip(caps, caps[1:]))

    def test_strategy_subset(self):
        cfg = EnsembleConfig(strategies=(Strategy.DF,), **SMALL)
        records = ergodic_sweep(cfg)
        assert {r.strategy for r in records} == {Strategy.DF}
        assert len(records) == len(cfg.p_r_grid)


class TestTinyBudgets:
    """Budgets so small that the squares of their values underflow: each
    group whose mean is that small is reduced with its deviations scaled by
    an exact power of two, whatever the budget."""

    @pytest.mark.parametrize("p", [1e-170, 1e-200, 1e-300, 1e-315])
    def test_standard_errors_scale_with_the_budget(self, p):
        # Every value is linear in the budget this far below 1, so each
        # record divided by its budget is that of 1e-100, where nothing
        # underflows. The standard errors were 0.0 before. At 1e-315
        # (about 2**-1046) every value is subnormal and carries about
        # 1074 - 1046 = 28 bits, so each is within 2**-27 (7.5e-9) relative
        # of the 1e-100 value times 1e-215; means and standard errors, sums
        # and roots of such values, stay within a small multiple of that.
        def per_budget(q):
            cfg = EnsembleConfig(var_hd=(1.0,), p_r_grid=(q,), n_samples=1000, seed=42)
            return _as_array(ergodic_sweep(cfg)) / q

        got, want = per_budget(p), per_budget(1e-100)
        assert got[:, [1, 3]].all()
        rtol = 1e-12 if p >= sys.float_info.min else 1e-6
        np.testing.assert_allclose(got, want, rtol=rtol, atol=0.0)

    def test_other_budgets_keep_their_bits(self):
        base = dict(var_hd=(2.0,), n_samples=3001, seed=30)
        mixed = ergodic_sweep(EnsembleConfig(p_r_grid=(0.0, 1e-200, 1e-170, 0.5, 8.0), **base))
        alone = ergodic_sweep(EnsembleConfig(p_r_grid=(0.0, 0.5, 8.0), **base))
        assert [r for r in mixed if r.p_r not in (1e-200, 1e-170)] == alone

    def test_values_far_below_their_budget(self, monkeypatch):
        # With var_hd = var_he = 1e300 the AF saturation budgets are near
        # 1e-300, so every budget here consumes about 1e-300: the standard
        # error of that consumed power was 0.0 when the scale followed the
        # budget. The reference is numpy's on the values times 2**600.
        cfg = EnsembleConfig(var_hd=(1e300,), var_he=1e300, p_r_grid=(1e-200, 1e-100, 1.0),
                             n_samples=1000)
        alpha, beta, mu = _sweep_lanes(monkeypatch, cfg)
        records = [r for r in ergodic_sweep(cfg) if r.strategy is Strategy.AF]
        scale = 2.0**600
        for record in records:
            consumed = af_batch(alpha, beta, mu, record.p_r)[1] * scale
            want = consumed.std(ddof=1) / math.sqrt(consumed.size) / scale
            assert 0.0 < record.mean_consumed_power < 1e-290
            assert record.stderr_consumed_power > 0.0
            assert math.isclose(record.stderr_consumed_power, want, rel_tol=1e-12)

    @pytest.mark.parametrize("strategy", [Strategy.AF, Strategy.DF])
    def test_lanes_settled_at_tiny_budgets(self, strategy):
        # DF lanes with mu - 1 a few ulps and a huge alpha balance at about
        # 1e-176 and settle there; their capacity, the first cut, is of
        # order 1e-16, far above the budget, while the unsettled lanes'
        # values are of the order of the budget. numpy's reference squares
        # the tiny budgets' values times 2**450, which keeps them normal.
        rng = np.random.default_rng(31)
        alpha, beta, mu = rng.exponential(2.0, 50), rng.exponential(1.0, 50), \
            1.0 + rng.exponential(10.0, 50)
        alpha[:8] = 1e160 * (1.0 + rng.uniform(0.0, 1.0, 8))
        beta[:8] = rng.uniform(0.0, 1.0, 8)
        mu[:8] = 1.0 + 2.0**-52 * rng.integers(1, 9, 8)
        assert np.all(df_balancing_gain(alpha[:8], beta[:8], mu[:8]) < 1e-170)
        grid = np.array([1e-200, 1e-180, 1e-170, 1e-160, 1e-100, 0.5, 4.0])
        n, sums, roots = _chunk_moments(strategy, alpha, beta, mu, grid)
        assert (n == alpha.size).all()
        for i, p_r in enumerate(grid):
            values = np.array(montecarlo._KERNELS[strategy](alpha, beta, mu, p_r))
            scale = 2.0**450 if p_r < 2.0**-400 else 1.0
            np.testing.assert_allclose(sums[i], values.sum(axis=1), rtol=1e-13, atol=0.0)
            np.testing.assert_allclose(roots[i] * scale, _roots(values * scale),
                                       rtol=1e-12, atol=0.0)
            assert roots[i].all()


def _chunk_moments(strategy, alpha, beta, mu, grid):
    """montecarlo._chunk_moments on the lanes where secrecy is possible, with
    the others merged in as zeros, as the sweep does: (counts, sums, roots),
    each of shape (len(grid), 2), of capacity and consumed power at each
    budget."""
    lanes = np.flatnonzero(secrecy_possible(alpha, beta, mu))
    zeros = (alpha.size - lanes.size, 0.0, 0.0)
    active = (a.take(lanes) for a in (alpha, beta, mu))
    moments = [montecarlo._merge(zeros, group)
               for group in montecarlo._chunk_moments(strategy, *active, grid)]
    return (np.reshape(column, (len(grid), 2)) for column in zip(*moments))


def _roots(values):
    """Root of each row's M2, sqrt(var*n), by numpy."""
    return np.sqrt(values.var(axis=1) * values.shape[1])


class TestMoments:
    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(st.lists(st.integers(0, 2**52), max_size=40), st.integers(-1074, 945),
           st.lists(st.integers(0, 40), max_size=4))
    def test_merged_parts_give_the_moments_of_the_whole(self, mantissas, exponent, cuts):
        # The values m * 2**exponent are exact for integers m < 2**53, from
        # subnormal (exponent -1074) to about 1e300. Rescaled exactly by
        # 2**-exponent they are the integers m, whose count, sum and M2
        # Python's integers give exactly. Folding _merge over the parts'
        # _moments, empty parts included, keeps within _merge's bound.
        x = np.ldexp(np.array(mantissas, dtype=float), exponent)
        parts = np.split(x, sorted(min(c, x.size) for c in cuts))
        n, total, root = functools.reduce(montecarlo._merge, map(montecarlo._moments, parts))
        s, q = sum(mantissas), sum(m * m for m in mantissas)
        k = math.log2(max(max(part.size for part in parts), 2)) + len(parts) + 3
        assert n == len(mantissas)
        assert abs(math.ldexp(total, -exponent) - s) <= k * 2.0**-53 * s
        want = math.sqrt(Fraction(n * q - s * s, max(n, 1)))
        error = abs(math.ldexp(root, -exponent) - want)
        assert error <= k * (2.0**-53 * math.sqrt(q) + 2.0**(-1074 - exponent) * math.sqrt(n))


def _block_reference(cfg):
    """Per-budget (mean, stderr) of capacity and consumed power from one
    (n, 6) draw and one kernel call on all samples per budget."""
    z = np.random.default_rng(cfg.seed).standard_normal((cfg.n_samples, 6))
    h_r, h_d, h_e = _gains(cfg, z)
    alpha, beta = np.abs(h_d) ** 2, np.abs(h_e) ** 2
    mu = 1.0 + db_to_linear(cfg.p_s_dbw) * np.abs(h_r) ** 2
    n = cfg.n_samples
    rows = []
    for strategy in cfg.strategies:
        kernel = af_batch if strategy is Strategy.AF else df_batch
        for p_r in cfg.p_r_grid:
            row = []
            for v in kernel(alpha, beta, mu, p_r):
                row += [np.mean(v), np.std(v, ddof=1) / math.sqrt(n) if n > 1 else 0.0]
            rows.append(row)
    return np.array(rows)


def _as_array(records):
    return np.array([[r.mean_capacity, r.stderr_capacity,
                      r.mean_consumed_power, r.stderr_consumed_power] for r in records])


# Budgets below, between and above most lanes' AF saturation budgets and DF
# balancing gains at the default 10 dBW source power.
STREAM_GRID = (0.0, 0.05, 0.5, 2.0, 8.0, 30.0, 1e3)
SMALL_CHUNK = 64


class TestStreaming:
    @pytest.mark.parametrize("n", [1, SMALL_CHUNK - 1, SMALL_CHUNK, SMALL_CHUNK + 1,
                                   2 * SMALL_CHUNK + 3])
    @pytest.mark.parametrize("var_hd", [1.0, 8.0])
    def test_matches_whole_block_reference(self, monkeypatch, n, var_hd):
        monkeypatch.setattr(montecarlo, "_CHUNK", SMALL_CHUNK)
        cfg = EnsembleConfig(var_hd=(var_hd,), p_r_grid=STREAM_GRID, n_samples=n, seed=21)
        got, want = _as_array(ergodic_sweep(cfg)), _block_reference(cfg)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
        if n == 1:
            assert not got[:, [1, 3]].any()

    def test_independent_of_chunk_size(self, monkeypatch):
        cfg = EnsembleConfig(var_hd=(4.0,), p_r_grid=STREAM_GRID, n_samples=3001, seed=22)
        results = []
        for chunk in (7, 1000, 3001, montecarlo._CHUNK):
            monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
            results.append(_as_array(ergodic_sweep(cfg)))
        for got in results[1:]:
            np.testing.assert_allclose(got, results[0], rtol=1e-13, atol=0.0)

    def test_memory_flat_in_sample_count(self):
        def peak(n):
            cfg = EnsembleConfig(p_r_grid=(0.0, 1.0, 4.0, 16.0), n_samples=n, seed=23)
            tracemalloc.start()
            try:
                ergodic_sweep(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(2**19) <= peak(2**17) + 2**20

    def test_first_chunk_holds_nothing_per_sample_count(self, monkeypatch):
        # 2**20 chunks of 64: a per-chunk list would take 8 MiB.
        monkeypatch.setattr(montecarlo, "_CHUNK", SMALL_CHUNK)
        cfg = EnsembleConfig(**{**SMALL, "n_samples": 2**26})
        tracemalloc.start()
        try:
            with closing(montecarlo._chunks(cfg)) as chunks:
                next(chunks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


SHARED_VARS = (1.0, 2.0, 8.0)


class TestSharedDraw:
    @pytest.mark.parametrize("n", [1, SMALL_CHUNK - 1, SMALL_CHUNK, SMALL_CHUNK + 1,
                                   2 * SMALL_CHUNK + 3])
    def test_equals_separate_sweeps(self, monkeypatch, n):
        monkeypatch.setattr(montecarlo, "_CHUNK", SMALL_CHUNK)
        cfg = EnsembleConfig(var_hd=SHARED_VARS, p_r_grid=STREAM_GRID, n_samples=n, seed=25)
        records = ergodic_sweep(cfg)
        assert records == [rec for v in SHARED_VARS
                           for rec in ergodic_sweep(replace(cfg, var_hd=(v,)))]
        per_curve = 2 * len(STREAM_GRID)
        assert [r.var_hd for r in records] == [v for v in SHARED_VARS for _ in range(per_curve)]

    def test_each_chunk_drawn_once(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_CHUNK", SMALL_CHUNK)
        # Each piece of half a chunk is drawn and built once for every curve.
        draws = []
        params = montecarlo._params_from_normals
        monkeypatch.setattr(montecarlo, "_params_from_normals", lambda cfg, p_s, z, out: (
            draws.append(len(z)) or params(cfg, p_s, z, out)))
        ergodic_sweep(EnsembleConfig(var_hd=SHARED_VARS,
                                     **{**SMALL, "n_samples": 2 * SMALL_CHUNK + 3}))
        assert draws == [SMALL_CHUNK // 2] * 4 + [3]

    def test_same_variance_twice(self):
        once = ergodic_sweep(EnsembleConfig(**SMALL))
        assert ergodic_sweep(EnsembleConfig(var_hd=(1.0, 1.0), **SMALL)) == once + once

    def test_chunk_keeps_no_view_of_the_normals(self, monkeypatch):
        # So that the piece buffers are refilled while the curves are
        # evaluated: every yielded term owns its memory.
        monkeypatch.setattr(montecarlo, "_CHUNK", SMALL_CHUNK)
        cfg = EnsembleConfig(**{**SMALL, "n_samples": 2 * SMALL_CHUNK + 3})
        with closing(montecarlo._chunks(cfg)) as chunks:
            for chunk in chunks:
                assert all(term.base is None for term in chunk)

    def test_memory_flat_in_curve_count(self):
        # Nearby variances, so that every curve evaluates about as many lanes.
        def peak(curves):
            cfg = EnsembleConfig(var_hd=tuple(4.0 + k / 64 for k in range(curves)),
                                 p_r_grid=(0.0, 1.0, 4.0), n_samples=2**17, seed=26)
            tracemalloc.start()
            try:
                ergodic_sweep(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(16) <= peak(1) + 2**20


class TestOverflow:
    """Variances so large that a sampled |h|^2 overflows are a ValueError
    naming the variance, raised without a warning, with the draw joined."""

    @pytest.mark.parametrize("field, var, name", [
        ("var_hr", 1e307, "mu"), ("var_he", 1e308, "beta"), ("var_hd", 1e308, "alpha")])
    def test_overflowed_gain_rejected(self, field, var, name):
        cfg = EnsembleConfig(**{**SMALL, field: (var,) if field == "var_hd" else var})
        baseline = threading.active_count()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(f"{field}={var!r} is too large: {name} =")):
                ergodic_sweep(cfg)
        assert threading.active_count() == baseline

    def test_one_overflowing_curve_rejects_the_sweep(self):
        cfg = EnsembleConfig(var_hd=(1.0, 1e308), **SMALL)
        with pytest.raises(ValueError, match="var_hd=1e\\+308"):
            ergodic_sweep(cfg)

    def test_largest_finite_gains_accepted(self):
        # Every lane finite: the check rejects nothing a sweep could evaluate.
        cfg = EnsembleConfig(**{**SMALL, "var_hd": (1e300,), "var_he": 1e300})
        records = ergodic_sweep(cfg)
        assert all(math.isfinite(r.mean_capacity) for r in records)


class _DrawError(RuntimeError):
    pass


class _SlowAllocation:
    """numpy for the sweep's own calls, with np.empty sleeping first."""

    def __getattr__(self, name):
        return getattr(np, name)

    def empty(self, *args, **kwargs):
        time.sleep(1e-3)
        return np.empty(*args, **kwargs)


class TestDrawThread:
    """One helper thread draws the next chunk while the caller evaluates one."""

    CFG = EnsembleConfig(**{**SMALL, "n_samples": 2 * SMALL_CHUNK + 3})

    def test_one_helper_during_the_sweep_joined_after(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_CHUNK", SMALL_CHUNK)
        baseline = threading.active_count()
        seen = []
        kernel = montecarlo._KERNELS[Strategy.AF]
        monkeypatch.setitem(montecarlo._KERNELS, Strategy.AF, lambda *a, **k: (
            seen.append(threading.active_count()) or kernel(*a, **k)))
        ergodic_sweep(self.CFG)
        assert seen and set(seen) <= {baseline, baseline + 1}
        assert threading.active_count() == baseline

    def test_helper_started_once_per_sweep(self, monkeypatch):
        # Not once per chunk: each start lets the scheduler place the thread
        # anew, often on the caller's core.
        monkeypatch.setattr(montecarlo, "_CHUNK", SMALL_CHUNK)
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: started.append(thread) or start(thread))
        ergodic_sweep(replace(self.CFG, n_samples=6 * SMALL_CHUNK + 1))
        assert len(started) == 1

    def test_draw_error_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_CHUNK", SMALL_CHUNK)
        default_rng = np.random.default_rng
        draws = []

        class FailingGenerator:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def standard_normal(self, *args, **kwargs):
                draws.append(1)
                if len(draws) == 2:
                    raise _DrawError("chunk 2")
                return self.rng.standard_normal(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", FailingGenerator)
        baseline = threading.active_count()
        with pytest.raises(_DrawError, match="chunk 2"):
            ergodic_sweep(self.CFG)
        assert len(draws) == 2
        assert threading.active_count() == baseline

    def test_kernel_error_joins_the_helper(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_CHUNK", SMALL_CHUNK)
        calls = []
        kernel = montecarlo._KERNELS[Strategy.DF]

        def failing(*args, **kwargs):
            calls.append(1)
            if len(calls) == len(SMALL["p_r_grid"]) + 2:  # second chunk
                raise _DrawError("kernel")
            return kernel(*args, **kwargs)

        monkeypatch.setitem(montecarlo._KERNELS, Strategy.DF, failing)
        baseline = threading.active_count()
        with pytest.raises(_DrawError, match="kernel"):
            # Chunks left, so the helper is waiting for the buffer.
            ergodic_sweep(replace(self.CFG, n_samples=6 * SMALL_CHUNK))
        assert threading.active_count() == baseline

    def test_concurrent_sweeps_match_serial(self, monkeypatch):
        # More sweeps than cores, switching threads as often as possible, and
        # the sweep's allocations slowed: a buffer handed to the helper before
        # it is in place, or read before it is drawn, would change the records
        # or stall the sweep.
        monkeypatch.setattr(montecarlo, "_CHUNK", SMALL_CHUNK)
        cfgs = [EnsembleConfig(**{**SMALL, "n_samples": 9 * SMALL_CHUNK + 5, "seed": s})
                for s in range(6)]
        want = [ergodic_sweep(cfg) for cfg in cfgs]
        monkeypatch.setattr(montecarlo, "np", _SlowAllocation())
        got = [None] * len(cfgs)

        def sweep(k):
            got[k] = ergodic_sweep(cfgs[k])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=sweep, args=(k,), daemon=True)
                       for k in range(len(cfgs))]
            for w in workers:
                w.start()
            deadline = time.monotonic() + 30
            for w in workers:
                w.join(timeout=max(0.0, deadline - time.monotonic()))
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert got == want


def _serial_chunks(cfg):
    """The sweep's chunks drawn whole, one after another, into one (m, 6)
    buffer on the calling thread, with each term built as a fresh array."""
    rng = np.random.default_rng(cfg.seed)
    p_s = db_to_linear(cfg.p_s_dbw)
    n = cfg.n_samples
    z = np.empty((min(montecarlo._CHUNK, n), 6))
    for start in range(0, n, montecarlo._CHUNK):
        rows = rng.standard_normal(out=z[:n - start])
        np.square(rows, out=rows)
        g_r, g_d, g_e = (np.add(rows[:, k], rows[:, k + 1]) for k in (0, 2, 4))
        g_e *= cfg.var_he / 2.0
        g_r *= cfg.var_hr / 2.0
        g_r *= p_s
        g_r += 1.0
        yield g_d, g_e, g_r


class TestPieces:
    """The draw fills half-chunk pieces into two buffers, one piece ahead of
    the piece the caller builds."""

    HALF = SMALL_CHUNK // 2

    @pytest.mark.parametrize("chunk, n", [
        *((SMALL_CHUNK, n) for n in (1, HALF - 1, HALF, HALF + 1, SMALL_CHUNK - 1,
                                     SMALL_CHUNK + 1, 2 * SMALL_CHUNK + 3)),
        (7, 1), (7, 3), (7, 4), (7, 8), (7, 11), (7, 40), (1, 5)])
    def test_records_equal_a_one_buffer_serial_draw(self, monkeypatch, chunk, n):
        monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
        cfg = EnsembleConfig(var_hr=2.0, var_hd=(1.0, 8.0), var_he=0.7, p_r_grid=STREAM_GRID,
                             n_samples=n, seed=28)
        got = ergodic_sweep(cfg)
        monkeypatch.setattr(montecarlo, "_chunks", _serial_chunks)
        assert got == ergodic_sweep(cfg)

    def test_next_fill_submitted_before_a_piece_is_built(self, monkeypatch):
        # Each build waits until the next piece's fill has started: had the
        # fill been submitted only after the build, it would never start.
        # Builds are slowed, so a third buffer's fill would run early.
        monkeypatch.setattr(montecarlo, "_CHUNK", SMALL_CHUNK)
        cfg = EnsembleConfig(**{**SMALL, "n_samples": 6 * SMALL_CHUNK + 5})
        want = ergodic_sweep(cfg)
        pieces = 13
        default_rng = np.random.default_rng
        fills, built, early = [], [], []

        class RecordingGenerator:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def standard_normal(self, *, out):
                if len(built) < len(fills) - 1:  # a third piece outstanding
                    early.append(len(fills))
                fills.append(len(out))
                return self.rng.standard_normal(out=out)

        params = montecarlo._params_from_normals

        def build(cfg, p_s, z, out):
            k = len(built)
            deadline = time.monotonic() + 10
            while len(fills) < min(k + 2, pieces) and time.monotonic() < deadline:
                time.sleep(1e-4)
            assert len(fills) >= min(k + 2, pieces), f"piece {k + 1} not drawn during build {k}"
            time.sleep(2e-3)
            params(cfg, p_s, z, out)
            built.append(len(z))

        monkeypatch.setattr(np.random, "default_rng", RecordingGenerator)
        monkeypatch.setattr(montecarlo, "_params_from_normals", build)
        assert ergodic_sweep(cfg) == want
        assert fills == built == [self.HALF] * (pieces - 1) + [5]
        assert not early

    def test_memory_of_a_one_buffer_sweep(self):
        cfg = EnsembleConfig(p_r_grid=(0.0, 1.0, 4.0), n_samples=2**17 + 5, seed=29)

        def peak(chunks):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(montecarlo, "_chunks", chunks)
                tracemalloc.start()
                try:
                    ergodic_sweep(cfg)
                    return tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()

        assert peak(montecarlo._chunks) <= peak(_serial_chunks) + 2**16


class _SpyKernel:
    """Wraps a kernel and records the lanes and budget of every call, and
    the `lanes=` terms it was given, which are passed through."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.calls = []
        self.terms = []

    def __call__(self, alpha, beta, mu, p_r, **terms):
        out = self.kernel(alpha, beta, mu, p_r, **terms)
        self.calls.append((alpha.copy(), beta.copy(), mu.copy(), p_r, np.array(out)))
        self.terms.append(terms.get("lanes"))
        return out


def _edge_lanes():
    """Random lanes plus the cases the sweep must not skip: beta == 0 (AF
    never saturates), alpha <= beta*mu (DF never balances), mu == 1 and
    alpha <= beta (zero at every budget)."""
    rng = np.random.default_rng(24)
    n = 400
    alpha = rng.exponential(2.0, n)
    beta = rng.exponential(1.0, n)
    mu = 1.0 + rng.exponential(10.0, n)
    alpha[:20], beta[:20] = 1.0 + rng.exponential(1.0, 20), 0.0
    share = 1.0 / mu[20:40]
    beta[20:40] = alpha[20:40] * (share + (1.0 - share) * rng.uniform(0.01, 0.99, 20))
    mu[40:50] = 1.0
    alpha[50:60] = beta[50:60]
    return alpha, beta, mu


def _sweep_one_chunk(monkeypatch, alpha, beta, mu, grid):
    """ergodic_sweep over the given lanes as its one chunk, in place of a
    draw: the chunk's g_d is alpha and var_hd is 2, so the sweep's alpha is
    alpha itself."""
    def one_chunk(cfg):
        yield alpha.copy(), beta.copy(), mu.copy()

    monkeypatch.setattr(montecarlo, "_chunks", one_chunk)
    return ergodic_sweep(EnsembleConfig(var_hd=(2.0,), p_r_grid=tuple(grid),
                                        n_samples=alpha.size))


def _edge_grid(alpha, beta, mu):
    # Budgets at and one ulp above some lanes' thresholds. At its DF
    # threshold the two cuts are equal up to rounding, so the kernel may take
    # either branch there and just above it.
    with np.errstate(divide="ignore"):
        s_af = af_saturation_budget(alpha[60:63], beta[60:63], mu[60:63])
        s_df = df_balancing_gain(alpha, beta, mu)
    s_df = s_df[np.isfinite(s_df) & (alpha > beta)][:10]
    near = np.concatenate([s_af, s_df])
    return np.unique(np.concatenate([[0.0, 0.3, 1.0, 5.0, 40.0, 1e4], near,
                                     np.nextafter(near, np.inf)]))


class TestChunkEvaluation:
    @pytest.mark.parametrize("strategy", [Strategy.AF, Strategy.DF])
    def test_per_lane_values_match_one_call(self, monkeypatch, strategy):
        # Rebuild each lane's value at each budget from the calls made: a
        # lane the sweep stops evaluating keeps the output of its last call.
        alpha, beta, mu = _edge_lanes()
        grid = _edge_grid(alpha, beta, mu)
        spy = _SpyKernel(montecarlo._KERNELS[strategy])
        monkeypatch.setitem(montecarlo._KERNELS, strategy, spy)
        n, sums, roots = _chunk_moments(strategy, alpha, beta, mu, grid)
        assert [c[3] for c in spy.calls] == list(grid)
        lanes = spy.calls[0][:3]
        settled = np.empty((2, 0))
        for k, (a, _, _, p_r, out) in enumerate(spy.calls):
            full = np.array(spy.kernel(*lanes, p_r))
            assert np.array_equal(np.concatenate([settled, out], axis=1), full)
            if k + 1 < len(spy.calls):
                drop = a.size - spy.calls[k + 1][0].size
                settled = np.concatenate([settled, out[:, :drop]], axis=1)
        assert (n == alpha.size).all()
        for i, p_r in enumerate(grid):
            values = np.array(spy.kernel(alpha, beta, mu, p_r))
            np.testing.assert_allclose(sums[i], values.sum(axis=1), rtol=1e-13, atol=0.0)
            np.testing.assert_allclose(roots[i], _roots(values), rtol=1e-12, atol=0.0)

    def test_lane_terms_built_once_per_chunk_curve_and_strategy(self, monkeypatch):
        # The sweep builds each lane set's terms once and the kernels take
        # them: a kernel looking up any term function fails.
        from secrelay import af, df

        monkeypatch.setattr(montecarlo, "_CHUNK", SMALL_CHUNK)
        cfg = EnsembleConfig(var_hd=SHARED_VARS, **{**SMALL, "n_samples": 2 * SMALL_CHUNK + 3})
        want = ergodic_sweep(cfg)

        def fail(*args, **kwargs):
            raise AssertionError("a kernel recomputed a lane term")

        for module, name in [(af, "af_lane_terms"), (af, "af_saturation_budget"),
                             (df, "df_lane_terms"), (df, "df_balancing_gain")]:
            monkeypatch.setattr(module, name, fail)
        built = []
        for strategy, (threshold, terms) in list(montecarlo._STRATEGIES.items()):
            monkeypatch.setitem(montecarlo._STRATEGIES, strategy, (
                threshold, lambda *a, _s=strategy, _t=terms: built.append(_s) or _t(*a)))
        assert ergodic_sweep(cfg) == want
        assert built == [Strategy.AF, Strategy.DF] * (3 * len(SHARED_VARS))

    @pytest.mark.parametrize("strategy, never_settle", [
        (Strategy.AF, slice(0, 20)),    # beta == 0
        (Strategy.DF, slice(20, 40)),   # alpha <= beta*mu
    ])
    def test_unsaturating_lanes_evaluated_at_every_budget(self, monkeypatch, strategy,
                                                          never_settle):
        alpha, beta, mu = _edge_lanes()
        grid = _edge_grid(alpha, beta, mu)
        spy = _SpyKernel(montecarlo._KERNELS[strategy])
        monkeypatch.setitem(montecarlo._KERNELS, strategy, spy)
        _chunk_moments(strategy, alpha, beta, mu, grid)
        assert len(spy.calls) == grid.size
        for a, b, m, _, _ in spy.calls:
            assert np.isin(alpha[never_settle], a).all()
            assert not np.isin(alpha[50:60], a).any()
            assert np.all(a > b)
        # Saturating lanes do drop out.
        assert spy.calls[-1][0].size < spy.calls[0][0].size

    def test_af_leaves_out_lanes_with_mu_one(self, monkeypatch):
        # AF and DF are (0, 0) at every budget where mu == 1. The sweep
        # leaves those lanes out with the alpha <= beta ones, for both
        # kernels, so the AF lanes sorted after them still settle: each AF
        # call holds exactly the lanes whose saturation budget is at least
        # the budget before. (The sums and roots on these lanes are checked
        # by test_kernels_get_no_inactive_mask.)
        alpha, beta, mu = _edge_lanes()
        grid = _edge_grid(alpha, beta, mu)
        one = mu == 1.0
        assert one.sum() == 10 and (alpha[one] > beta[one]).any()
        spies = {s: _SpyKernel(montecarlo._KERNELS[s]) for s in (Strategy.AF, Strategy.DF)}
        for strategy, spy in spies.items():
            monkeypatch.setitem(montecarlo._KERNELS, strategy, spy)
        _sweep_one_chunk(monkeypatch, alpha, beta, mu, grid)
        active = (alpha > beta) & ~one
        with np.errstate(divide="ignore"):
            s = af_saturation_budget(alpha[active], beta[active], mu[active])
        for strategy, spy in spies.items():
            assert spy.calls[0][0].size == s.size
            for k, (a, _, m, _, _) in enumerate(spy.calls):
                assert not (m == 1.0).any()
                if strategy is Strategy.AF:
                    assert a.size == (s.size if k == 0 else np.sum(s >= grid[k - 1]))

    @pytest.mark.parametrize("strategy", [Strategy.AF, Strategy.DF])
    def test_kernels_get_no_inactive_mask(self, monkeypatch, strategy):
        # The chunk has inactive lanes of every kind, and the sweep hands
        # the kernels none of them, so no zeroing pass runs; it counts them
        # as zeros, so each record is the mean of one call on every lane.
        alpha, beta, mu = _edge_lanes()
        grid = _edge_grid(alpha, beta, mu)
        spy = _SpyKernel(montecarlo._KERNELS[strategy])
        monkeypatch.setitem(montecarlo._KERNELS, strategy, spy)
        records = [r for r in _sweep_one_chunk(monkeypatch, alpha, beta, mu, grid)
                   if r.strategy is strategy]
        assert len(spy.terms) == grid.size
        assert all(terms is not None and terms[-1] is None for terms in spy.terms)
        assert all(secrecy_possible(a, b, m).all() for a, b, m, _, _ in spy.calls)
        for record, p_r in zip(records, grid):
            capacity, consumed = spy.kernel(alpha, beta, mu, p_r)
            np.testing.assert_allclose([record.mean_capacity, record.mean_consumed_power],
                                       [capacity.mean(), consumed.mean()], rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("strategy", [Strategy.AF, Strategy.DF])
    def test_consumed_power_not_reduced_over_the_tail(self, monkeypatch, strategy):
        # A lane at or above the budget consumes exactly the budget, so its
        # consumed power is not read back. Per budget the moments reduce the
        # capacity of the unsettled lanes, the settling prefix a second time
        # (its thresholds), and DF's lanes below the budget that did not
        # settle, which together are the unsettled lanes below the budget.
        alpha, beta, mu = _edge_lanes()
        grid = _edge_grid(alpha, beta, mu)
        spy = _SpyKernel(montecarlo._KERNELS[strategy])
        monkeypatch.setitem(montecarlo._KERNELS, strategy, spy)
        reduced = []
        moments = montecarlo._moments
        monkeypatch.setattr(montecarlo, "_moments",
                            lambda row: reduced.append(row.size) or moments(row))
        _chunk_moments(strategy, alpha, beta, mu, grid)
        a, b, m = spy.calls[0][:3]
        with np.errstate(divide="ignore", invalid="ignore"):
            below = np.searchsorted(np.sort(montecarlo._STRATEGIES[strategy][0](a, b, m)), grid)
        tails = [call[0].size for call in spy.calls]
        bound = sum(tail + max(0, j - (a.size - tail)) for tail, j in zip(tails, below))
        assert sum(reduced) <= bound
        assert bound < 2 * sum(tails) - a.size  # the tail above the budget is large

    def test_df_lanes_behind_a_lane_that_does_not_balance(self):
        # Where the second cut is nearly flat, a DF lane can keep full power
        # at budgets above its balancing gain. It does not settle there, nor
        # does the lane sorted behind it, whose consumed power below the
        # budget must then be read from the kernel's row.
        s_first = 13245940493.545452
        alpha = np.array([10.31339689757713, (1e6 - 1.0) / (s_first + 5.0)])
        beta = np.array([2.5249889848273144, 0.0])
        mu = np.array([4.084531441252843, 1e6])
        s = df_balancing_gain(alpha, beta, mu)
        p = s_first * (1.0 + 1e-9)
        assert s[0] == s_first and s[0] < s[1] < p
        assert np.array_equal(df_batch(alpha, beta, mu, p)[1], [p, s[1]])
        grid = np.array([1.0, p, 2.0 * p])
        n, sums, roots = _chunk_moments(Strategy.DF, alpha, beta, mu, grid)
        assert (n == alpha.size).all()
        for i, p_r in enumerate(grid):
            values = np.array(df_batch(alpha, beta, mu, p_r))
            np.testing.assert_allclose(sums[i], values.sum(axis=1), rtol=1e-13, atol=0.0)
            np.testing.assert_allclose(roots[i], _roots(values), rtol=1e-12, atol=0.0)
