import math
import re
import sys
import threading
import time
import tracemalloc
import warnings
from contextlib import closing
from dataclasses import replace

import numpy as np
import pytest

from secrelay import montecarlo
from secrelay.af import af_saturation_budget, af_secrecy_capacity
from secrelay.channel import DerivedParams, PowerBudget, Strategy, db_to_linear, derive_params
from secrelay.df import df_balancing_gain, df_secrecy_capacity
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

    @pytest.mark.parametrize("field", ["seed", "n_samples"])
    @pytest.mark.parametrize("value", [1.5, 2.0, np.float64(3.0), True, np.True_, "3", None])
    def test_non_integer_counts_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            EnsembleConfig(**{field: value})

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


class TestSweepInputs:
    """The per-sample (alpha, beta, mu) the sweep evaluates."""

    @pytest.mark.parametrize("var_hd", [1.0, 8.0, 0.3])
    def test_lanes_equal_derive_params_of_sample_channel(self, monkeypatch, var_hd):
        monkeypatch.setattr(montecarlo, "_CHUNK", SMALL_CHUNK)
        cfg = EnsembleConfig(var_hr=2.0, var_hd=var_hd, var_he=0.7, p_s_dbw=7.0,
                             n_samples=2 * SMALL_CHUNK + 5, seed=31)
        lanes = []
        with closing(montecarlo._chunks(cfg)) as chunks:
            for x_d, y_d, beta, mu in chunks:
                lanes += zip(montecarlo._abs2_of_gain(var_hd, x_d, y_d), beta, mu)
        assert len(lanes) == cfg.n_samples
        rng = np.random.default_rng(cfg.seed)
        pb = PowerBudget(db_to_linear(cfg.p_s_dbw), 1.0)
        for got in lanes:
            params = derive_params(sample_channel(cfg, rng), pb)
            assert tuple(map(float, got)) == (params.alpha, params.beta, params.mu)

    @staticmethod
    def _peak(fn, *args):
        tracemalloc.start()
        try:
            out = fn(*args)
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_normals_to_terms_without_complex_temporaries(self):
        m = 1 << 16
        z = np.random.default_rng(32).standard_normal((m, 6))
        kept, peak = self._peak(montecarlo._params_from_normals, EnsembleConfig(**SMALL), 10.0, z)
        # Beyond its own outputs the step holds less than half a complex
        # array at any time, so no complex temporary fits.
        assert peak - sum(v.nbytes for v in kept) < m * np.dtype(complex).itemsize // 2
        # Each |h|^2 holds one real temporary beside its result.
        x, y = z[:, 0].copy(), z[:, 1].copy()
        power, peak = self._peak(montecarlo._abs2_of_gain, 2.0, x, y)
        assert peak - power.nbytes <= power.nbytes + 4096


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


def _block_reference(cfg):
    """Per-budget (mean, stderr) of capacity and consumed power from one
    (n, 6) draw and one kernel call on all samples per budget."""
    z = np.random.default_rng(cfg.seed).standard_normal((cfg.n_samples, 6))
    h_r, h_d, h_e = montecarlo._gains_from_normals(cfg, z)
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
        cfg = EnsembleConfig(var_hd=var_hd, p_r_grid=STREAM_GRID, n_samples=n, seed=21)
        got, want = _as_array(ergodic_sweep(cfg)), _block_reference(cfg)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)
        if n == 1:
            assert not got[:, [1, 3]].any()

    def test_independent_of_chunk_size(self, monkeypatch):
        cfg = EnsembleConfig(var_hd=4.0, p_r_grid=STREAM_GRID, n_samples=3001, seed=22)
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


SHARED_VARS = (1.0, 2.0, 8.0)


class TestSharedDraw:
    @pytest.mark.parametrize("n", [1, SMALL_CHUNK - 1, SMALL_CHUNK, SMALL_CHUNK + 1,
                                   2 * SMALL_CHUNK + 3])
    def test_equals_separate_sweeps(self, monkeypatch, n):
        monkeypatch.setattr(montecarlo, "_CHUNK", SMALL_CHUNK)
        cfgs = [EnsembleConfig(var_hd=v, p_r_grid=STREAM_GRID, n_samples=n, seed=25)
                for v in SHARED_VARS]
        records = ergodic_sweep(*cfgs)
        assert records == [rec for cfg in cfgs for rec in ergodic_sweep(cfg)]
        per_curve = 2 * len(STREAM_GRID)
        assert [r.var_hd for r in records] == [v for v in SHARED_VARS for _ in range(per_curve)]

    def test_each_chunk_drawn_once(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_CHUNK", SMALL_CHUNK)
        draws = []
        params = montecarlo._params_from_normals
        monkeypatch.setattr(montecarlo, "_params_from_normals",
                            lambda cfg, p_s, z: draws.append(len(z)) or params(cfg, p_s, z))
        cfgs = [EnsembleConfig(var_hd=v, **{**SMALL, "n_samples": 2 * SMALL_CHUNK + 3})
                for v in SHARED_VARS]
        ergodic_sweep(*cfgs)
        assert draws == [SMALL_CHUNK, SMALL_CHUNK, 3]

    def test_same_variance_twice(self):
        cfg = EnsembleConfig(**SMALL)
        once = ergodic_sweep(cfg)
        assert ergodic_sweep(cfg, cfg) == once + once

    @pytest.mark.parametrize("change", [
        {"seed": 8},
        {"n_samples": 2001},
        {"var_hr": 2.0},
        {"var_he": 0.5},
        {"p_s_dbw": 11.0},
        {"p_r_grid": (0.0, 0.5, 2.0, 9.0)},
        {"strategies": (Strategy.AF,)},
        {"strategies": (Strategy.DF, Strategy.AF)},
    ])
    def test_other_differences_rejected(self, change):
        base = EnsembleConfig(**SMALL)
        other = EnsembleConfig(**{**SMALL, "var_hd": 2.0, **change})
        with pytest.raises(ValueError, match="only in var_hd"):
            ergodic_sweep(base, other)
        with pytest.raises(ValueError, match="only in var_hd"):
            ergodic_sweep(base, base, other)

    def test_chunk_keeps_no_view_of_the_normals(self):
        # So that the (m, 6) block is freed while the curves are evaluated.
        z = np.random.default_rng(27).standard_normal((SMALL_CHUNK, 6))
        for kept in montecarlo._params_from_normals(EnsembleConfig(**SMALL), 10.0, z):
            assert not np.shares_memory(kept, z)

    def test_no_config_rejected(self):
        with pytest.raises(ValueError):
            ergodic_sweep()

    def test_memory_flat_in_curve_count(self):
        # Nearby variances, so that every curve evaluates about as many lanes.
        def peak(curves):
            cfgs = [EnsembleConfig(var_hd=4.0 + k / 64, p_r_grid=(0.0, 1.0, 4.0),
                                   n_samples=2**17, seed=26) for k in range(curves)]
            tracemalloc.start()
            try:
                ergodic_sweep(*cfgs)
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
        cfg = EnsembleConfig(**{**SMALL, field: var})
        baseline = threading.active_count()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(f"{field}={var!r} is too large: {name} =")):
                ergodic_sweep(cfg)
        assert threading.active_count() == baseline

    def test_one_overflowing_curve_rejects_the_sweep(self):
        cfgs = [EnsembleConfig(**SMALL), EnsembleConfig(**{**SMALL, "var_hd": 1e308})]
        with pytest.raises(ValueError, match="var_hd=1e\\+308"):
            ergodic_sweep(*cfgs)

    def test_largest_finite_gains_accepted(self):
        # Every lane finite: the check rejects nothing a sweep could evaluate.
        cfg = EnsembleConfig(**{**SMALL, "var_hd": 1e300, "var_he": 1e300})
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
        n, sums, m2 = montecarlo._chunk_moments(strategy, alpha, beta, mu, grid)
        assert [c[3] for c in spy.calls] == list(grid)
        lanes = spy.calls[0][:3]
        settled = np.empty((2, 0))
        for k, (a, _, _, p_r, out) in enumerate(spy.calls):
            full = np.array(spy.kernel(*lanes, p_r))
            assert np.array_equal(np.concatenate([settled, out], axis=1), full)
            if k + 1 < len(spy.calls):
                drop = a.size - spy.calls[k + 1][0].size
                settled = np.concatenate([settled, out[:, :drop]], axis=1)
        assert n == alpha.size
        for i, p_r in enumerate(grid):
            values = np.array(spy.kernel(alpha, beta, mu, p_r))
            np.testing.assert_allclose(sums[i], values.sum(axis=1), rtol=1e-13, atol=0.0)
            np.testing.assert_allclose(m2[i], values.var(axis=1) * n, rtol=1e-12, atol=0.0)

    def test_lane_terms_built_once_per_chunk_curve_and_strategy(self, monkeypatch):
        # The sweep builds each lane set's terms once and the kernels take
        # them: a kernel looking up any term function fails.
        from secrelay import af, df

        monkeypatch.setattr(montecarlo, "_CHUNK", SMALL_CHUNK)
        cfgs = [EnsembleConfig(var_hd=v, **{**SMALL, "n_samples": 2 * SMALL_CHUNK + 3})
                for v in SHARED_VARS]
        want = ergodic_sweep(*cfgs)

        def fail(*args, **kwargs):
            raise AssertionError("a kernel recomputed a lane term")

        for module, name in [(af, "af_lane_terms"), (af, "af_saturation_budget"),
                             (df, "df_lane_terms"), (df, "df_balancing_gain")]:
            monkeypatch.setattr(module, name, fail)
        built = []
        for strategy, terms in list(montecarlo._LANE_TERMS.items()):
            monkeypatch.setitem(montecarlo._LANE_TERMS, strategy,
                                lambda *a, _s=strategy, _t=terms: built.append(_s) or _t(*a))
        assert ergodic_sweep(*cfgs) == want
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
        montecarlo._chunk_moments(strategy, alpha, beta, mu, grid)
        assert len(spy.calls) == grid.size
        for a, b, m, _, _ in spy.calls:
            assert np.isin(alpha[never_settle], a).all()
            assert not np.isin(alpha[50:60], a).any()
            assert np.all(a > b)
        # Saturating lanes do drop out.
        assert spy.calls[-1][0].size < spy.calls[0][0].size

    def test_af_leaves_out_lanes_with_mu_one(self, monkeypatch):
        # AF is (0, 0) at every budget where mu == 1. Those lanes are left
        # out with the alpha <= beta ones, so the lanes sorted after them
        # still settle: each call holds exactly the lanes whose saturation
        # budget is at least the budget before. (The sums and M2 on these
        # lanes are checked by test_per_lane_values_match_one_call.)
        alpha, beta, mu = _edge_lanes()
        grid = _edge_grid(alpha, beta, mu)
        one = mu == 1.0
        assert one.sum() == 10 and (alpha[one] > beta[one]).any()
        spy = _SpyKernel(montecarlo._KERNELS[Strategy.AF])
        monkeypatch.setitem(montecarlo._KERNELS, Strategy.AF, spy)
        montecarlo._chunk_moments(Strategy.AF, alpha, beta, mu, grid)
        active = (alpha > beta) & ~one
        with np.errstate(divide="ignore"):
            s = af_saturation_budget(alpha[active], beta[active], mu[active])
        for k, (a, _, m, _, _) in enumerate(spy.calls):
            assert not (m == 1.0).any()
            assert a.size == (s.size if k == 0 else np.sum(s >= grid[k - 1]))

    @pytest.mark.parametrize("strategy", [Strategy.AF, Strategy.DF])
    def test_kernels_get_no_inactive_mask(self, monkeypatch, strategy):
        # The chunk has inactive lanes of every kind, and the sweep hands
        # the kernels none of them, so no zeroing pass runs.
        alpha, beta, mu = _edge_lanes()
        grid = _edge_grid(alpha, beta, mu)
        spy = _SpyKernel(montecarlo._KERNELS[strategy])
        monkeypatch.setitem(montecarlo._KERNELS, strategy, spy)
        montecarlo._chunk_moments(strategy, alpha, beta, mu, grid)
        assert len(spy.terms) == grid.size
        assert all(terms is not None and terms[-1] is None for terms in spy.terms)

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
        montecarlo._chunk_moments(strategy, alpha, beta, mu, grid)
        a, b, m = spy.calls[0][:3]
        with np.errstate(divide="ignore", invalid="ignore"):
            below = np.searchsorted(np.sort(montecarlo._THRESHOLDS[strategy](a, b, m)), grid)
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
        n, sums, m2 = montecarlo._chunk_moments(Strategy.DF, alpha, beta, mu, grid)
        for i, p_r in enumerate(grid):
            values = np.array(df_batch(alpha, beta, mu, p_r))
            np.testing.assert_allclose(sums[i], values.sum(axis=1), rtol=1e-13, atol=0.0)
            np.testing.assert_allclose(m2[i], values.var(axis=1) * n, rtol=1e-12, atol=0.0)
