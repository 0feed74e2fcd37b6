"""Genie-aided upper bound on the AF secrecy capacity.

The bound hands the destination the eavesdropper's observation as side
information. With the two receiver noises jointly Gaussian (cross-correlation
phi, |phi| <= 1 for a valid covariance), the conditional mutual information
is a ratio of an LMMSE error variance to a noise-only conditional variance,
both explicit in x = |omega|^2. A channel-dependent choice of phi makes the
bound objective coincide with the achievable log ratio, which is exactly what
certifies the closed-form capacity; phi is nevertheless kept free here so
dominance can be probed at arbitrary admissible correlations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .af import _cn_samples
from .channel import ChannelRealization, DerivedParams, PowerBudget
from .fractional import _blockwise, maximize_on_interval

__all__ = [
    "PSDViolationError",
    "DegenerateDistributionError",
    "NoiseCorrelation",
    "BoundEvaluation",
    "lmmse_error_variance",
    "conditional_noise_entropy",
    "select_phi",
    "bound_objective",
    "genie_upper_bound",
    "gain_ratio_identity_residual",
    "lmmse_error_variance_mc",
]

_LOG2_PI_E = math.log2(math.pi * math.e)

# Slack for |phi|^2 <= 1 so the boundary choices (|phi| exactly 1 up to
# rounding) are admitted.
_PSD_TOL = 1e-12


class PSDViolationError(ValueError):
    """The noise covariance would not be positive semidefinite (|phi| > 1)."""


class DegenerateDistributionError(ValueError):
    """A conditional distribution collapsed (zero variance), no entropy exists."""


@dataclass(frozen=True)
class NoiseCorrelation:
    """Cross-correlation of the destination and eavesdropper noises."""

    phi: complex

    def __post_init__(self) -> None:
        z = complex(self.phi)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise ValueError(f"phi must be finite, got {z!r}")
        if self.abs2 > 1.0 + _PSD_TOL:
            raise PSDViolationError(f"|phi|={abs(z)!r} exceeds 1")

    @property
    def abs2(self) -> float:
        z = complex(self.phi)
        return z.real * z.real + z.imag * z.imag


@dataclass(frozen=True)
class BoundEvaluation:
    """Maximized bound value (bits per channel use) with its argmax and phi."""

    bound_value: float
    x_arg: float
    phi_used: NoiseCorrelation


def _as_correlation(phi) -> NoiseCorrelation:
    if isinstance(phi, NoiseCorrelation):
        return phi
    return NoiseCorrelation(complex(phi))


def _cross_term(ch: ChannelRealization, phi: NoiseCorrelation) -> float:
    """Re{h_d * conj(h_e) * phi}, the interference term of both variances."""
    return (complex(ch.h_d) * complex(ch.h_e).conjugate() * complex(phi.phi)).real


def lmmse_error_variance(ch: ChannelRealization, params: DerivedParams, x: float,
                         phi) -> float:
    """Error variance of linearly estimating the destination output from the
    eavesdropper output:

        (1 + (alpha+beta)*mu*x - |phi|^2 - 2*Re{mu*x*h_d*conj(h_e)*phi}) / (1 + beta*mu*x)

    Nonnegative for every admissible phi.
    """
    phi = _as_correlation(phi)
    if x < 0:
        raise ValueError("x must be nonnegative")
    m = params.mu
    num = (
        1.0
        + (params.alpha + params.beta) * m * x
        - phi.abs2
        - 2.0 * m * x * _cross_term(ch, phi)
    )
    return max(num, 0.0) / (1.0 + params.beta * m * x)


def conditional_noise_entropy(ch: ChannelRealization, params: DerivedParams, x: float,
                              phi) -> float:
    """Differential entropy (bits) of the destination's effective noise given
    the eavesdropper's effective noise.

    Uses the complex-Gaussian convention h = log2(pi*e*sigma^2). Raises when
    the joint noise covariance is singular.
    """
    phi = _as_correlation(phi)
    if x < 0:
        raise ValueError("x must be nonnegative")
    det = (
        1.0
        + (params.alpha + params.beta) * x
        - phi.abs2
        - 2.0 * x * _cross_term(ch, phi)
    )
    if det <= 0.0:
        raise DegenerateDistributionError(
            f"joint noise covariance determinant {det!r} is not positive"
        )
    return _LOG2_PI_E + math.log2(det / (1.0 + params.beta * x))


def select_phi(ch: ChannelRealization, params: DerivedParams) -> NoiseCorrelation:
    """Correlation choice that collapses the bound onto the achievable rate.

    |phi|^2 is alpha/beta when the eavesdropper link dominates and beta/alpha
    otherwise; both satisfy the covariance constraint. A channel with both
    second-hop gains zero gets phi = 0.
    """
    if params.alpha > params.beta:
        return NoiseCorrelation(complex(ch.h_e) / complex(ch.h_d))
    if params.beta == 0.0:
        return NoiseCorrelation(0.0)
    return NoiseCorrelation(complex(ch.h_d).conjugate() / complex(ch.h_e).conjugate())


def bound_objective(ch: ChannelRealization, params: DerivedParams, x, phi):
    """Conditional-mutual-information bound at gain x and correlation phi:

        0.5*log2[ (1+beta*x)/(1+beta*mu*x) * N(mu*x) / N(x) ],
        N(t) = 1 + (alpha+beta)*t - |phi|^2 - 2*Re{t*h_d*conj(h_e)*phi}.

    Accepts a scalar x, for which it returns a float, or a numpy array,
    evaluated in cache-sized blocks. Raises when either variance term is
    nonpositive (possible only at |phi| = 1).
    """
    phi = _as_correlation(phi)
    a, b, m = params.alpha, params.beta, params.mu
    cross = _cross_term(ch, phi)
    phi2 = phi.abs2

    def value(x):
        n_mu = 1.0 + (a + b) * m * x - phi2 - 2.0 * m * x * cross
        n_one = 1.0 + (a + b) * x - phi2 - 2.0 * x * cross
        # count_nonzero, unlike any(), is cheap on the bools of a scalar x.
        if np.count_nonzero(n_one <= 0.0) or np.count_nonzero(n_mu <= 0.0):
            raise DegenerateDistributionError("conditional variance is not positive")
        return 0.5 * np.log2((1.0 + b * x) * n_mu / ((1.0 + b * m * x) * n_one))

    if np.isscalar(x):
        return float(value(x))
    return _blockwise(value, x)


def genie_upper_bound(ch: ChannelRealization, params: DerivedParams, pb: PowerBudget,
                      n_points: int = 1_000_000) -> BoundEvaluation:
    """Bound maximized over the feasible gain interval with phi from `select_phi`.

    When the eavesdropper link dominates (alpha <= beta) the objective is
    identically zero for this phi, so 0 is returned directly; otherwise the
    maximization reuses the brute-force grid-plus-golden-section engine so the
    result stays independent of the parametric solver.
    """
    phi = select_phi(ch, params)
    if params.alpha <= params.beta:
        return BoundEvaluation(0.0, 0.0, phi)
    x_max = pb.p_r / params.mu
    x_arg, value = maximize_on_interval(
        lambda xs: bound_objective(ch, params, xs, phi), x_max, n_points
    )
    return BoundEvaluation(value, x_arg, phi)


def gain_ratio_identity_residual(params: DerivedParams, x: float) -> float:
    """Absolute gap of the rewrite that collapses the bound onto the rate:

        (1+alpha*mu*x)/(1+alpha*x) == (1-beta/alpha+(alpha-beta)*mu*x)
                                      / (1-beta/alpha+(alpha-beta)*x)

    Zero up to rounding whenever alpha > 0 and alpha != beta.
    """
    a, b, m = params.alpha, params.beta, params.mu
    if a == 0.0:
        raise ValueError("identity requires alpha > 0")
    if a == b:
        raise ValueError("identity requires alpha != beta")
    lhs = (1.0 + a * m * x) / (1.0 + a * x)
    rhs = (1.0 - b / a + (a - b) * m * x) / (1.0 - b / a + (a - b) * x)
    return abs(lhs - rhs)


def lmmse_error_variance_mc(ch: ChannelRealization, pb: PowerBudget, x: float,
                            phi, n_samples: int = 1_000_000, n_batches: int = 100,
                            rng: np.random.Generator | None = None) -> tuple[float, float]:
    """Sample-covariance estimate (value, stderr) of the LMMSE error variance.

    Simulates both receiver outputs through the relay including the noise
    cross-correlation, then forms Var(y_d) - |Cov(y_d, y_e)|^2 / Var(y_e) per
    batch. Independent of the closed form above.
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
