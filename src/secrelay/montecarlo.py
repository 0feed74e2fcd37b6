"""Monte Carlo sweeps of ergodic secrecy capacity over Rayleigh fading.

Gains are circularly symmetric complex Gaussian (Rayleigh magnitudes) with
configurable per-link variances. One set of channel realizations is drawn per
sweep and reused across every budget grid point, both strategies and every
destination variance swept together (common random numbers), which slashes
comparison variance and makes the DF-beats-AF ordering hold sample by sample.

Randomness comes from numpy's default PCG64 generator seeded with the 64-bit
config seed. Samples are drawn in chunks of _CHUNK rows of six standard
normals, together the same stream, row for row, as one (n, 6) block in C
order, so results are reproducible bit for bit for a given seed within this
implementation. A sweep holds the chunk it evaluates and the normals of the
next one, which a thread started for that chunk draws meanwhile (numpy's
Generator releases the GIL for the fill), so its memory does not grow with
the sample count or the number of variances. Each sample's |h|^2 values are
formed as derive_params forms them from a sample_channel draw, bit for bit,
and, as there, a value that overflows is a ValueError. The sweep leaves out
the samples a kernel gives zero at every budget (af_active, df_active),
evaluates the kernels only on samples whose output still depends on the
budget, and hands them every per-sample term that does not depend on it,
built once per chunk, curve and strategy, as their `lanes=` argument. Per
budget it reduces only the capacities of the samples not yet settled: a
sample consumes the budget itself while its AF saturation budget or DF
balancing gain is at or above it, and that threshold, which the sweep holds
sorted, once it has settled.
"""

from __future__ import annotations

import math
import operator
import threading
from contextlib import closing
from dataclasses import dataclass, replace

import numpy as np

from .af import af_active, af_batch, af_lane_terms, af_saturation_budget
from .channel import ChannelRealization, Strategy, db_to_linear
from .df import df_active, df_balancing_gain, df_batch, df_lane_terms

__all__ = [
    "EnsembleConfig",
    "SweepRecord",
    "sample_channel",
    "ergodic_sweep",
    "af_batch",
    "df_batch",
]


@dataclass(frozen=True)
class EnsembleConfig:
    """Fading variances, source power (dBW), budget grid, and sampling controls."""

    var_hr: float = 1.0
    var_hd: float = 1.0
    var_he: float = 1.0
    p_s_dbw: float = 10.0
    p_r_grid: tuple[float, ...] = tuple(np.linspace(0.0, 20.0, 41))
    n_samples: int = 100_000
    seed: int = 42
    strategies: tuple[Strategy, ...] = (Strategy.AF, Strategy.DF)

    def __post_init__(self) -> None:
        for name in ("var_hr", "var_hd", "var_he"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be a positive finite variance, got {v!r}")
        if not math.isfinite(self.p_s_dbw):
            raise ValueError("p_s_dbw must be finite")
        grid = tuple(float(p) + 0.0 for p in self.p_r_grid)  # -0.0 becomes 0.0
        if len(grid) == 0:
            raise ValueError("p_r_grid must not be empty")
        if any(not math.isfinite(p) or p < 0 for p in grid):
            raise ValueError("p_r_grid entries must be finite and nonnegative")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("p_r_grid must be strictly increasing")
        object.__setattr__(self, "p_r_grid", grid)
        for name in ("n_samples", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not hasattr(value, "__index__"):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, operator.index(value))
        if self.n_samples < 1:
            raise ValueError("n_samples must be at least 1")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        strategies = tuple(self.strategies)
        if len(strategies) == 0:
            raise ValueError("at least one strategy is required")
        if any(not isinstance(s, Strategy) for s in strategies):
            raise ValueError("strategies must be Strategy members")
        if len(set(strategies)) != len(strategies):
            raise ValueError("duplicate strategies")
        object.__setattr__(self, "strategies", strategies)


@dataclass(frozen=True)
class SweepRecord:
    """One curve point: ensemble means and standard errors at a budget value."""

    strategy: Strategy
    var_hd: float
    p_r: float
    mean_capacity: float
    stderr_capacity: float
    mean_consumed_power: float
    stderr_consumed_power: float
    n_samples: int
    seed: int


def _pair(z: np.ndarray, k: int) -> np.ndarray:
    """Columns k and k+1 of the standard normals z as re + 1j*im."""
    return z[..., k] + 1j * z[..., k + 1]


def _gain(var: float, pair: np.ndarray) -> np.ndarray:
    """Gain of variance var from a pair of standard normals."""
    return math.sqrt(var / 2.0) * pair


def _gains_from_normals(cfg: EnsembleConfig, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return (_gain(cfg.var_hr, _pair(z, 0)), _gain(cfg.var_hd, _pair(z, 2)),
            _gain(cfg.var_he, _pair(z, 4)))


def sample_channel(cfg: EnsembleConfig, rng: np.random.Generator) -> ChannelRealization:
    """Draw one channel realization; deterministic given the generator state.

    Consumes six standard normals per call, the same as one row of the
    sweep's chunked draw, so n calls on a fresh generator give the gains of
    the sweep's first n samples.
    """
    h_r, h_d, h_e = _gains_from_normals(cfg, rng.standard_normal(6))
    return ChannelRealization(complex(h_r), complex(h_d), complex(h_e))


_KERNELS = {Strategy.AF: af_batch, Strategy.DF: df_batch}
# The lanes each kernel evaluates; it gives the others (0, 0) at every budget.
_ACTIVE = {Strategy.AF: af_active, Strategy.DF: df_active}
_THRESHOLDS = {Strategy.AF: af_saturation_budget, Strategy.DF: df_balancing_gain}
# (alpha, beta, mu, threshold) -> the kernel's `lanes=` terms.
_LANE_TERMS = {Strategy.AF: af_lane_terms, Strategy.DF: df_lane_terms}


# Samples drawn and evaluated at a time. Larger chunks spend less time on
# per-budget call overhead but hold more memory.
_CHUNK = 1 << 16


def _chunks(cfg: EnsembleConfig):
    """(h_d normals x, y, beta, mu) for successive blocks of at most _CHUNK
    samples.

    Successive standard_normal calls on one generator give the same stream,
    row for row, as one (n_samples, 6) draw. One thread per block draws it
    into a fresh buffer while the caller works on the block before; the
    buffer is allocated only after the previous one is dropped, as soon as
    that block's terms are copied out of it. Each thread is joined before
    its block is read, and on close; a draw error is raised here.
    """
    rng = np.random.default_rng(cfg.seed)
    p_s = db_to_linear(cfg.p_s_dbw)
    sizes = [min(_CHUNK, cfg.n_samples - start) for start in range(0, cfg.n_samples, _CHUNK)]
    error = None

    def fill(z):
        nonlocal error
        try:
            rng.standard_normal(out=z)
        except BaseException as exc:  # re-raised by the caller, never lost
            error = exc

    def draw(m):
        z = np.empty((m, 6))
        thread = threading.Thread(target=fill, args=(z,), daemon=True)
        thread.start()
        return thread, z

    thread, z = draw(sizes[0])
    try:
        for m_next in sizes[1:] + [0]:
            thread.join()
            if error is not None:
                raise error
            params = _params_from_normals(cfg, p_s, z)
            z = None  # freed before the next buffer is allocated
            if m_next:
                thread, z = draw(m_next)
            yield params
    finally:
        thread.join()


def _abs2_of_gain(var: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """|h|^2 lanewise for the gain h = sqrt(var/2)*(x + 1j*y), formed as
    channel._abs2 forms it, (s*x)**2 + (s*y)**2, so that it equals the value
    derive_params gives a sample_channel draw bit for bit. Built in place:
    no complex temporary, and one real one."""
    s = math.sqrt(var / 2.0)
    re, im = np.multiply(x, s), np.multiply(y, s)
    np.square(re, out=re)
    return np.add(re, np.square(im, out=im), out=re)


def _params_from_normals(cfg: EnsembleConfig, p_s: float, z: np.ndarray):
    # Every array returned is a copy, so that z is freed before the chunk is
    # evaluated. Only alpha depends on var_hd: the normals behind h_d are
    # kept to build it for each curve.
    with np.errstate(over="ignore"):  # overflowed lanes are rejected below
        beta = _abs2_of_gain(cfg.var_he, z[:, 4], z[:, 5])
        mu = _abs2_of_gain(cfg.var_hr, z[:, 0], z[:, 1])
        np.multiply(mu, p_s, out=mu)
    np.add(mu, 1.0, out=mu)
    return (z[:, 2].copy(), z[:, 3].copy(), _finite(beta, "beta = |h_e|^2", "var_he", cfg.var_he),
            _finite(mu, "mu = 1 + p_s*|h_r|^2", "var_hr", cfg.var_hr))


def _finite(values, name, field, var):
    """`values`, a chunk's nonnegative per-sample terms, or a ValueError
    naming the variance `field` if a lane overflowed. One max-reduce: inf
    and NaN both fail."""
    if not values.max() < math.inf:
        raise ValueError(f"{field}={var!r} is too large: {name} overflows on a sampled channel")
    return values


def _moments(row):
    """(count, sum, M2) of one array as Python numbers: pairwise sum,
    two-pass M2."""
    n = row.size
    total = float(np.add.reduce(row))
    dev = np.subtract(row, total / max(n, 1))
    return n, total, float(np.add.reduce(np.square(dev, out=dev)))


def _merge(a, b):
    """Moments of the union of two disjoint groups, either possibly empty
    (Chan, Golub & LeVeque 1983).

    Sums are added rather than means averaged: the values are nonnegative,
    so the sums carry no cancellation and every M2 term is nonnegative. A
    sweep's sum is pairwise within each reduced group; the consumed power
    of the lanes at or above a budget, all equal to it, is one product n*p,
    rounded once, with M2 zero. The groups are added sequentially: the
    settling groups of the budgets so far, at most three more per budget,
    and one chunk per _CHUNK samples, so the relative error is at most
    about (log2(_CHUNK) + 2*budgets + 3 + chunks) * 2**-53.
    """
    (na, sa, qa), (nb, sb, qb) = a, b
    n = na + nb
    delta = sb / max(nb, 1) - sa / max(na, 1)
    return n, sa + sb, qa + qb + delta * delta * (na / max(n, 1) * nb)


def _chunk_moments(strategy: Strategy, alpha, beta, mu, grid):
    """Moments of (capacity, consumed) over one chunk at every budget.

    Returns (count, sums, M2), sums and M2 of shape (len(grid), 2). Lanes
    the kernel does not evaluate (`af_active`, `df_active`: alpha <= beta,
    and for AF mu == 1) are (0, 0) at every budget and are left out first.
    The others are sorted by their threshold s, past which the kernel
    output is constant, and the kernel runs only on the tail not yet
    settled. A lane settles, after the lanes before it, at a budget p > s
    where its consumed power is s: for AF at any such p, for DF where the
    kernel took the cut-balancing branch, which it keeps at larger budgets
    because its second cut is nondecreasing in P_r. (At p = s the two cuts
    tie up to rounding and either branch may be taken.) A settled lane's
    outputs are its values at every later budget, so each lane gets the
    value a call on all lanes gives it, bit for bit.

    The consumed power is taken from the sorted thresholds, not from the
    tail: a settled lane consumes its threshold, and a lane with s >= p
    consumes exactly p (AF's min(p, s); DF's full power, or a balancing
    gain equal to p). Only DF's lanes with s < p that did not settle, where
    the cuts tie, are reduced from the kernel's consumed row, which is
    otherwise read only to find the settling prefix.
    """
    size = alpha.size
    lanes = np.flatnonzero(_ACTIVE[strategy](alpha, beta, mu))
    alpha, beta, mu = alpha.take(lanes), beta.take(lanes), mu.take(lanes)
    with np.errstate(divide="ignore", invalid="ignore"):
        threshold = _THRESHOLDS[strategy](alpha, beta, mu)
    order = np.argsort(threshold)
    alpha, beta, mu, threshold = (a.take(order) for a in (alpha, beta, mu, threshold))
    del lanes, order  # not held through the budget loop
    below = np.searchsorted(threshold, grid)  # lanes with s < p, per budget
    kernel = _KERNELS[strategy]
    terms = _LANE_TERMS[strategy](alpha, beta, mu, threshold)
    tail = terms
    out = []  # per budget, the moments of capacity and of consumed power
    settled_capacity = settled_consumed = (0, 0.0, 0.0)
    done = 0
    for p_r, j in zip(grid, below):
        j = int(j)
        capacity, consumed = kernel(alpha[done:], beta[done:], mu[done:], p_r, lanes=tail)
        count = 0
        if j > done:
            settles = consumed[: j - done] == threshold[done:j]
            count = settles.size if settles.all() else int(np.argmin(settles))
        # The settling prefix joins the settled groups; the rest is counted
        # at this budget only. Each lane is counted once per budget.
        if count:
            settled_capacity = _merge(settled_capacity, _moments(capacity[:count]))
            settled_consumed = _merge(settled_consumed,
                                      _moments(threshold[done:done + count]))
        out.append(_merge(settled_capacity, _moments(capacity[count:])))
        rest = (alpha.size - j, (alpha.size - j) * p_r, 0.0)
        if j - done > count:
            rest = _merge(_moments(consumed[count:j - done]), rest)
        out.append(_merge(settled_consumed, rest))
        del capacity, consumed  # freed before the next call
        if count:
            done += count
            tail = tuple(None if term is None else term[done:] for term in terms)
    _, sums, m2 = (np.reshape(column, (len(grid), 2)) for column in zip(*out))
    return _merge((size - alpha.size, 0.0, 0.0), (alpha.size, sums, m2))


def ergodic_sweep(*cfgs: EnsembleConfig) -> list[SweepRecord]:
    """Mean secrecy capacity and consumed relay power per (strategy, budget),
    for configs that differ only in var_hd.

    The configs share one draw: each chunk is drawn once and only alpha is
    built per config. Records are config-major in argument order, then
    strategy-major in config order, budgets ascending; each config's records
    equal those of a sweep of it alone. Each sample's values are those the
    kernels give it on the whole ensemble; means and standard errors, merged
    chunk by chunk, differ from one-block numpy reductions only by rounding.
    """
    if not cfgs:
        raise ValueError("ergodic_sweep needs at least one config")
    cfg = cfgs[0]
    if any(replace(other, var_hd=cfg.var_hd) != cfg for other in cfgs):
        raise ValueError("configs swept together may differ only in var_hd")
    totals = {(k, s): (0, 0.0, 0.0) for k in range(len(cfgs)) for s in cfg.strategies}
    with closing(_chunks(cfg)) as chunks:
        for x_d, y_d, beta, mu in chunks:
            for k, curve in enumerate(cfgs):
                with np.errstate(over="ignore"):
                    alpha = _finite(_abs2_of_gain(curve.var_hd, x_d, y_d), "alpha = |h_d|^2",
                                    "var_hd", curve.var_hd)
                for strategy in cfg.strategies:
                    chunk = _chunk_moments(strategy, alpha, beta, mu, cfg.p_r_grid)
                    totals[k, strategy] = _merge(totals[k, strategy], chunk)
    records: list[SweepRecord] = []
    for (k, strategy), (n, sums, m2) in totals.items():
        means = sums / n
        stderrs = np.sqrt(m2 / (n - 1)) / math.sqrt(n) if n > 1 else np.zeros_like(m2)
        for p_r, (mean_c, mean_p), (se_c, se_p) in zip(cfg.p_r_grid, means, stderrs):
            records.append(
                SweepRecord(
                    strategy=strategy,
                    var_hd=cfgs[k].var_hd,
                    p_r=p_r,
                    mean_capacity=float(mean_c),
                    stderr_capacity=float(se_c),
                    mean_consumed_power=float(mean_p),
                    stderr_consumed_power=float(se_p),
                    n_samples=cfg.n_samples,
                    seed=cfg.seed,
                )
            )
    return records
