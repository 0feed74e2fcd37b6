"""Monte Carlo sweeps of ergodic secrecy capacity over Rayleigh fading.

Gains are circularly symmetric complex Gaussian (Rayleigh magnitudes) with
configurable per-link variances. One set of channel realizations is drawn per
sweep and reused across every budget grid point and both strategies (common
random numbers), which slashes comparison variance and makes the DF-beats-AF
ordering hold sample by sample.

Randomness comes from numpy's default PCG64 generator seeded with the 64-bit
config seed; samples are drawn as a single (n, 6) standard-normal block in C
order, so results are reproducible bit for bit for a given seed within this
implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .af import af_batch
from .channel import ChannelRealization, Strategy, db_to_linear
from .df import df_batch

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
        grid = tuple(float(p) for p in self.p_r_grid)
        if len(grid) == 0:
            raise ValueError("p_r_grid must not be empty")
        if any(not math.isfinite(p) or p < 0 for p in grid):
            raise ValueError("p_r_grid entries must be finite and nonnegative")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("p_r_grid must be strictly increasing")
        object.__setattr__(self, "p_r_grid", grid)
        if self.n_samples < 1:
            raise ValueError("n_samples must be at least 1")
        if not 0 <= int(self.seed) < 2**64:
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
    p_r: float
    mean_capacity: float
    stderr_capacity: float
    mean_consumed_power: float
    stderr_consumed_power: float
    n_samples: int
    seed: int


def _gains_from_normals(cfg: EnsembleConfig, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    h_r = math.sqrt(cfg.var_hr / 2.0) * (z[..., 0] + 1j * z[..., 1])
    h_d = math.sqrt(cfg.var_hd / 2.0) * (z[..., 2] + 1j * z[..., 3])
    h_e = math.sqrt(cfg.var_he / 2.0) * (z[..., 4] + 1j * z[..., 5])
    return h_r, h_d, h_e


def sample_channel(cfg: EnsembleConfig, rng: np.random.Generator) -> ChannelRealization:
    """Draw one channel realization; deterministic given the generator state.

    Consumes the same six standard normals per call as one row of the sweep's
    block draw, so scalar and vectorized sampling paths line up.
    """
    h_r, h_d, h_e = _gains_from_normals(cfg, rng.standard_normal(6))
    return ChannelRealization(complex(h_r), complex(h_d), complex(h_e))


_KERNELS = {Strategy.AF: af_batch, Strategy.DF: df_batch}


def _mean_stderr(v: np.ndarray) -> tuple[float, float]:
    n = v.size
    mean = float(np.mean(v))
    if n < 2:
        return mean, 0.0
    return mean, float(np.std(v, ddof=1) / math.sqrt(n))


def ergodic_sweep(cfg: EnsembleConfig) -> list[SweepRecord]:
    """Mean secrecy capacity and consumed relay power per (strategy, budget).

    Records are ordered strategy-major in config order, budgets ascending.
    """
    rng = np.random.default_rng(cfg.seed)
    z = rng.standard_normal((cfg.n_samples, 6))
    h_r, h_d, h_e = _gains_from_normals(cfg, z)
    p_s = db_to_linear(cfg.p_s_dbw)
    alpha = np.abs(h_d) ** 2
    beta = np.abs(h_e) ** 2
    mu = 1.0 + p_s * np.abs(h_r) ** 2

    records: list[SweepRecord] = []
    for strategy in cfg.strategies:
        kernel = _KERNELS[strategy]
        for p_r in cfg.p_r_grid:
            capacity, consumed = kernel(alpha, beta, mu, p_r)
            mean_c, se_c = _mean_stderr(capacity)
            mean_p, se_p = _mean_stderr(consumed)
            records.append(
                SweepRecord(
                    strategy=strategy,
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

