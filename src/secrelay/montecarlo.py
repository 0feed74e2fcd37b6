"""Monte Carlo sweeps of ergodic secrecy capacity over Rayleigh fading.

Each link gain is circularly symmetric Gaussian (a Rayleigh magnitude) with a
configurable per-link variance var, and the capacities depend on a draw only
through alpha = |h_d|^2, beta = |h_e|^2 and mu = 1 + p_s*|h_r|^2. One set of
channel realizations is drawn per sweep and reused across every budget grid
point, both strategies and every destination variance swept together
(common random numbers), which slashes comparison variance and makes the
DF-beats-AF ordering hold sample by sample.

Randomness comes from numpy's default PCG64 generator seeded with the 64-bit
config seed. Samples are drawn in chunks of _CHUNK rows of six standard
normals, together the same stream, row for row, as one (n, 6) block in C
order, so results are reproducible bit for bit for a given seed within this
implementation. A sweep holds the chunk it evaluates and two half-chunk
buffers of normals, together the size of one chunk. One helper thread draws
into them, half a chunk at a time, while the caller builds the piece before
or evaluates the chunk (numpy's Generator releases the GIL for the fill), so
the draw runs ahead of the caller and memory does not grow with the sample
count or the number of variances. Each |h|^2 is var/2*(x*x + y*y)
of a pair (x, y) of a sample's normals, and a value that overflows is a
ValueError. Per chunk and curve the sweep counts the samples where no
secrecy is possible (`secrecy_possible`) as zeros and gathers the others
once for both strategies, evaluates the kernels only on samples whose
output still depends on the budget, and hands them every per-sample term
that does not depend on it, built once per strategy, as their `lanes=`
argument. Per budget it reduces only the capacities of the samples not yet
settled: a sample consumes the budget itself while its AF
saturation budget or DF balancing gain is at or above it, and that
threshold, which the sweep holds sorted, once it has settled. Each group
of values is carried as (count, sum, root), root the square root of its
sum of squared deviations, so that merged groups keep full relative
precision at any scale.
"""

from __future__ import annotations

import math
import operator
import sys
from collections import deque
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from .af import af_batch, af_lane_terms, af_saturation_budget
from .channel import Strategy, db_to_linear, secrecy_possible
from .df import df_balancing_gain, df_batch, df_lane_terms

__all__ = [
    "EnsembleConfig",
    "SweepRecord",
    "ergodic_sweep",
]


@dataclass(frozen=True, slots=True)
class EnsembleConfig:
    """Fading variances (`var_hd`: one curve each, all on one draw), source
    power (dBW), budget grid, and sampling controls."""

    var_hr: float = 1.0
    var_hd: tuple[float, ...] = (1.0,)
    var_he: float = 1.0
    p_s_dbw: float = 10.0
    p_r_grid: tuple[float, ...] = tuple(np.linspace(0.0, 20.0, 41))
    n_samples: int = 100_000
    seed: int = 42
    strategies: tuple[Strategy, ...] = (Strategy.AF, Strategy.DF)

    def __post_init__(self) -> None:
        if not isinstance(self.var_hd, tuple) or not self.var_hd:
            raise ValueError(f"var_hd must be a non-empty tuple of variances, got {self.var_hd!r}")
        object.__setattr__(self, "var_hd", tuple(map(float, self.var_hd)))
        for name, v in (("var_hr", self.var_hr), *(("var_hd", v) for v in self.var_hd),
                        ("var_he", self.var_he)):
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
        # The consumed power's sum, at most n_samples*p, is finite where
        # n_samples*p**2 is; compared so that no product can overflow.
        square = grid[-1] * grid[-1]
        if square and not self.n_samples <= sys.float_info.max / square:
            raise ValueError(f"p_r_grid reaches {grid[-1]!r}: n_samples*p_r**2 must be finite "
                             f"for n_samples={self.n_samples}")
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


@dataclass(frozen=True, slots=True)
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


# Per strategy: the threshold past which its kernel's output is constant,
# and (alpha, beta, mu, threshold) -> the kernel's `lanes=` terms.
_STRATEGIES = {
    Strategy.AF: (af_saturation_budget, af_lane_terms),
    Strategy.DF: (df_balancing_gain, df_lane_terms),
}
_KERNELS = {Strategy.AF: af_batch, Strategy.DF: df_batch}


# Samples drawn and evaluated at a time. Larger chunks spend less time on
# per-budget call overhead but hold more memory.
_CHUNK = 1 << 16


def _chunks(cfg: EnsembleConfig):
    """(g_d, beta, mu) for successive blocks of at most _CHUNK samples; see
    _params_from_normals.

    Successive standard_normal calls on one generator give the same stream,
    row for row, as one (n_samples, 6) draw. A one-worker executor per sweep
    (a thread started per block was placed anew each time, often on the
    caller's core) draws the stream in pieces of at most half a chunk into
    two half-chunk buffers in turn, one (2, ceil(m/2), 6) block of the bytes
    of one (m, 6) chunk. The caller builds each piece's terms into its rows
    of the chunk's fresh outputs as soon as it lands and hands its buffer
    back for the piece two ahead, so the worker draws piece k+2 while the
    caller builds piece k+1 or evaluates the chunk. A fill runs only if the
    one before it succeeded, so a draw error stops the draw and is raised
    here; the worker is joined on close. Nothing here grows with n_samples.
    concurrent.futures loads logging, so it is imported here, not by every
    command at start-up.
    """
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(cfg.seed)
    p_s = db_to_linear(cfg.p_s_dbw)
    n = cfg.n_samples
    half = -(-min(_CHUNK, n) // 2)
    drawn = 0  # rows handed to the worker so far

    def fill(after, z):
        if after is not None:
            after.result()  # a failed draw stops the ones behind it
        return rng.standard_normal(out=z)

    with ThreadPoolExecutor(max_workers=1) as draw:
        pending = deque()  # (fill, buffer), oldest first: at most two

        def draw_ahead(buffer):
            # The next piece: to the chunk's middle or its end, whichever
            # comes first, and at most half a chunk.
            nonlocal drawn
            if drawn < n:
                stop = min(drawn + half, (drawn // _CHUNK + 1) * _CHUNK, n)
                after = pending[-1][0] if pending else None
                pending.append((draw.submit(fill, after, buffer[:stop - drawn]), buffer))
                drawn = stop

        for buffer in np.empty((2, half, 6)):
            draw_ahead(buffer)
        for start in range(0, n, _CHUNK):
            terms = tuple(np.empty(min(_CHUNK, n - start)) for _ in range(3))
            for lo in range(0, terms[0].size, half):
                filled, buffer = pending.popleft()
                z = filled.result()
                _params_from_normals(cfg, p_s, z, tuple(t[lo:lo + len(z)] for t in terms))
                draw_ahead(buffer)
            yield terms


def _params_from_normals(cfg: EnsembleConfig, p_s: float, z: np.ndarray, out):
    """Fills out = (g_d, beta, mu), each of len(z), from one piece z of
    standard normals, squared in place. Columns (0, 1), (2, 3), (4, 5) give
    h_r, h_d, h_e: each |h|^2 is var/2*(x*x + y*y), and g_d = x*x + y*y,
    which each curve scales by var_hd/2. Nothing is kept of z, so that it can
    be refilled meanwhile."""
    g_d, beta, mu = out
    np.square(z, out=z)
    for k, term in zip((0, 2, 4), (mu, g_d, beta)):
        np.add(z[:, k], z[:, k + 1], out=term)
    with np.errstate(over="ignore"):  # overflowed lanes are rejected below
        np.multiply(beta, cfg.var_he / 2.0, out=beta)
        np.multiply(mu, cfg.var_hr / 2.0, out=mu)
        np.multiply(mu, p_s, out=mu)
    np.add(mu, 1.0, out=mu)
    _finite(beta, "beta = |h_e|^2", "var_he", cfg.var_he)
    _finite(mu, "mu = 1 + p_s*|h_r|^2", "var_hr", cfg.var_hr)


def _finite(values, name, field, var):
    """`values`, a chunk's nonnegative per-sample terms, or a ValueError
    naming the variance `field` if a lane overflowed. One max-reduce: inf
    and NaN both fail."""
    if not values.max() < math.inf:
        raise ValueError(f"{field}={var!r} is too large: {name} overflows on a sampled channel")
    return values


def _moments(row):
    """(count, sum, root) of one array as Python numbers: a pairwise sum,
    and root = sqrt(sum(dev**2)) of the two-pass deviations dev from the
    mean. Where the group's mean is positive and below 2**-400 (down to
    subnormal) or above 2**400, dev is first multiplied by the exact power
    of two 2**600 or 2**-600, and the root divided by it after, so that no
    square of a deviation that matters underflows or overflows: the values
    are nonnegative, so none exceeds count*mean. Other groups take no extra
    pass."""
    n = row.size
    total = float(np.add.reduce(row))
    dev = np.subtract(row, total / max(n, 1))
    scale = (2.0**600 if 0.0 < total < n * 2.0**-400 else
             2.0**-600 if total > n * 2.0**400 else 1.0)
    if scale != 1.0:
        dev *= scale
    return n, total, math.sqrt(float(np.add.reduce(np.square(dev, out=dev)))) / scale


def _merge(a, b):
    """Moments of the union of two disjoint groups, either possibly empty
    (Chan, Golub & LeVeque 1983), with M2 carried as its root: the roots
    and the mean-shift term are combined by math.hypot, which neither
    underflows nor overflows where their squares would (Blue 1978).

    Sums are added rather than means averaged: the values are nonnegative,
    so the sums carry no cancellation. A sweep's sum is pairwise within each
    reduced group; the consumed power of the lanes at or above a budget, all
    equal to it, is one product n*p, rounded once, with root zero. The
    groups are added sequentially: the settling groups of the budgets so
    far, at most three more per budget, and one chunk per _CHUNK samples,
    so k = log2(_CHUNK) + 2*budgets + 3 + chunks (for m groups of at most N
    values, log2(N) + m + 3). The sum is within about k * 2**-53 relative,
    and the root within about
    k * (2**-53 * sqrt(sum(x**2)) + 2**-1074 * sqrt(count))
    of the root of the exact M2. The values' 2-norm bounds both the root
    and sqrt(count)*mean, and a rounded mean shifts every deviation; where
    a mean is subnormal, that shift is a multiple of the spacing 2**-1074.
    """
    (na, sa, ra), (nb, sb, rb) = a, b
    n = na + nb
    delta = sb / max(nb, 1) - sa / max(na, 1)
    return n, sa + sb, math.hypot(ra, rb, delta * math.sqrt(na / max(n, 1) * nb))


def _chunk_moments(strategy: Strategy, alpha, beta, mu, grid):
    """Moments of (capacity, consumed) over one chunk at every budget.

    `alpha`, `beta` and `mu` hold only lanes where `secrecy_possible`
    holds; the others are (0, 0) at every budget. Returns the moments
    (count, sum, root) of capacity, then of consumed power, at each budget
    in turn: 2*len(grid) of them. The lanes are sorted by their threshold
    s, past which the kernel output is constant, and the kernel runs only
    on the tail not yet settled. A lane settles, after the lanes before it,
    at a budget p > s where its consumed power is s: for AF at any such p,
    for DF where the kernel took the cut-balancing branch, which it keeps
    at larger budgets because its second cut is nondecreasing in P_r. (At
    p = s the two cuts tie up to rounding and either branch may be taken.)
    A settled lane's outputs are its values at every later budget, so each
    lane gets the value a call on all lanes gives it, bit for bit.

    The consumed power is taken from the sorted thresholds, not from the
    tail: a settled lane consumes its threshold, and a lane with s >= p
    consumes exactly p (AF's min(p, s); DF's full power, or a balancing
    gain equal to p). Only DF's lanes with s < p that did not settle, where
    the cuts tie, are reduced from the kernel's consumed row, which is
    otherwise read only to find the settling prefix.
    """
    threshold_of, lane_terms = _STRATEGIES[strategy]
    with np.errstate(divide="ignore", invalid="ignore"):
        threshold = threshold_of(alpha, beta, mu)
    order = np.argsort(threshold)
    alpha, beta, mu, threshold = (a.take(order) for a in (alpha, beta, mu, threshold))
    del order  # not held through the budget loop
    below = np.searchsorted(threshold, grid)  # lanes with s < p, per budget
    kernel = _KERNELS[strategy]
    terms = lane_terms(alpha, beta, mu, threshold)
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
            settled_consumed = _merge(settled_consumed, _moments(threshold[done:done + count]))
        out.append(_merge(settled_capacity, _moments(capacity[count:])))
        rest = (alpha.size - j, (alpha.size - j) * p_r, 0.0)
        if j - done > count:
            rest = _merge(_moments(consumed[count:j - done]), rest)
        out.append(_merge(settled_consumed, rest))
        del capacity, consumed  # freed before the next call
        if count:
            done += count
            tail = tuple(None if term is None else term[done:] for term in terms)
    return out


def ergodic_sweep(cfg: EnsembleConfig) -> list[SweepRecord]:
    """Mean secrecy capacity and consumed relay power per (strategy, budget),
    for each destination variance in cfg.var_hd.

    The curves share one draw: each chunk is drawn once and only alpha is
    built per curve. Records are curve-major in var_hd order, then
    strategy-major in config order, budgets ascending; each curve's records
    equal those of a sweep of it alone. Each sample's values are those the
    kernels give it on the whole ensemble; means and standard errors, merged
    chunk by chunk, differ from one-block numpy reductions only by rounding.
    """
    empty = [(0, 0.0, 0.0)] * (2 * len(cfg.p_r_grid))
    totals = {(k, s): empty for k in range(len(cfg.var_hd)) for s in cfg.strategies}
    with closing(_chunks(cfg)) as chunks:
        for g_d, beta, mu in chunks:
            for k, var_hd in enumerate(cfg.var_hd):
                with np.errstate(over="ignore"):
                    alpha = _finite(g_d * (var_hd / 2.0), "alpha = |h_d|^2", "var_hd", var_hd)
                lanes = np.flatnonzero(secrecy_possible(alpha, beta, mu))
                zeros = (alpha.size - lanes.size, 0.0, 0.0)
                active = tuple(a.take(lanes) for a in (alpha, beta, mu))
                del alpha, lanes  # not held through the strategies
                for strategy in cfg.strategies:
                    chunk = _chunk_moments(strategy, *active, cfg.p_r_grid)
                    totals[k, strategy] = [_merge(total, _merge(zeros, group))
                                           for total, group in zip(totals[k, strategy], chunk)]
    records: list[SweepRecord] = []
    for (k, strategy), groups in totals.items():
        estimates = [(total / n, root / math.sqrt(n - 1) / math.sqrt(n) if n > 1 else 0.0)
                     for n, total, root in groups]
        for p_r, (mean_c, se_c), (mean_p, se_p) in zip(cfg.p_r_grid, estimates[::2],
                                                        estimates[1::2]):
            records.append(
                SweepRecord(
                    strategy=strategy,
                    var_hd=cfg.var_hd[k],
                    p_r=p_r,
                    mean_capacity=mean_c,
                    stderr_capacity=se_c,
                    mean_consumed_power=mean_p,
                    stderr_consumed_power=se_p,
                    n_samples=cfg.n_samples,
                    seed=cfg.seed,
                )
            )
    return records
