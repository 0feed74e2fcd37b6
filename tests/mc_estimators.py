"""Monte Carlo estimators that check the closed forms from outside.

Each simulates the received signals sample by sample through the relay and
returns (estimate, standard error) over batches; none uses the formulas
under test. They are statistical, so they live with the tests rather than
in the package, whose `verify` checks are deterministic.
"""

from __future__ import annotations

import math

import numpy as np

from secrelay.channel import ChannelRealization, PowerBudget
from secrelay.converse import _as_correlation


def _mi_mc(signal_coeff: complex, noise_gain: complex, n_samples: int,
           n_batches: int, rng: np.random.Generator) -> tuple[float, float]:
    # Sample SNR per batch through the received-signal model, then the
    # Gaussian-channel formula; batching gives the standard error.
    m = max(n_samples // n_batches, 1)
    vals = np.empty(n_batches)
    for k in range(n_batches):
        x_s = _cn_samples(rng, m)
        z_r = _cn_samples(rng, m)
        z_0 = _cn_samples(rng, m)
        sig = signal_coeff * x_s
        noise = noise_gain * z_r + z_0
        snr = np.mean(np.abs(sig) ** 2) / np.mean(np.abs(noise) ** 2)
        vals[k] = math.log2(1.0 + snr)
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(n_batches))


def _cn_samples(rng: np.random.Generator, n: int) -> np.ndarray:
    """Unit-variance circularly symmetric complex Gaussian draws."""
    z = rng.standard_normal((n, 2))
    return (z[:, 0] + 1j * z[:, 1]) / math.sqrt(2.0)


def mutual_info_destination_mc(ch: ChannelRealization, pb: PowerBudget, x: float,
                               n_samples: int = 200_000, n_batches: int = 50,
                               rng: np.random.Generator | None = None) -> tuple[float, float]:
    """Monte Carlo estimate (value, stderr) of the destination mutual information.

    Independent of the closed form: draws the source symbol and both noise
    stages of the destination observation and converts the sample SNR.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    omega = math.sqrt(x)
    coeff = math.sqrt(pb.p_s) * ch.h_d * omega * ch.h_r
    return _mi_mc(coeff, ch.h_d * omega, n_samples, n_batches, rng)


def mutual_info_eavesdropper_mc(ch: ChannelRealization, pb: PowerBudget, x: float,
                                n_samples: int = 200_000, n_batches: int = 50,
                                rng: np.random.Generator | None = None) -> tuple[float, float]:
    """Monte Carlo estimate (value, stderr) of the eavesdropper mutual information."""
    if rng is None:
        rng = np.random.default_rng(0)
    omega = math.sqrt(x)
    coeff = math.sqrt(pb.p_s) * ch.h_e * omega * ch.h_r
    return _mi_mc(coeff, ch.h_e * omega, n_samples, n_batches, rng)


def lmmse_error_variance_mc(ch: ChannelRealization, pb: PowerBudget, x: float,
                            phi, n_samples: int = 1_000_000, n_batches: int = 100,
                            rng: np.random.Generator | None = None) -> tuple[float, float]:
    """Sample-covariance estimate (value, stderr) of the LMMSE error variance.

    Simulates both receiver outputs through the relay including the noise
    cross-correlation, then forms Var(y_d) - |Cov(y_d, y_e)|^2 / Var(y_e) per
    batch. Independent of `secrelay.converse.lmmse_error_variance`.
    """
    phi = _as_correlation(phi)
    if rng is None:
        rng = np.random.default_rng(0)
    omega = math.sqrt(x)
    p = complex(phi.phi)
    resid = math.sqrt(max(1.0 - phi.abs2, 0.0))
    m = max(n_samples // n_batches, 1)
    vals = np.empty(n_batches)
    for k in range(n_batches):
        x_s = _cn_samples(rng, m)
        z_r = _cn_samples(rng, m)
        z_d = _cn_samples(rng, m)
        w = _cn_samples(rng, m)
        z_e = p * z_d + resid * w  # E[z_d * conj(z_e)] = conj(phi)
        y_d = math.sqrt(pb.p_s) * ch.h_d * omega * ch.h_r * x_s + ch.h_d * omega * z_r + z_d
        y_e = math.sqrt(pb.p_s) * ch.h_e * omega * ch.h_r * x_s + ch.h_e * omega * z_r + z_e
        var_d = np.mean(np.abs(y_d) ** 2)
        var_e = np.mean(np.abs(y_e) ** 2)
        cov = np.mean(y_d * np.conj(y_e))
        vals[k] = var_d - abs(cov) ** 2 / var_e
    return float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(n_batches))
