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

from .channel import ChannelRealization, DerivedParams, PowerBudget
from .fractional import _blockwise, maximize_on_interval

__all__ = [
    "PSDViolationError",
    "DegenerateDistributionError",
    "NoiseCorrelation",
    "BoundEvaluation",
    "lmmse_error_variance",
    "select_phi",
    "bound_objective",
    "genie_upper_bound",
    "gain_ratio_identity_residual",
]

# Slack for |phi|^2 <= 1 so the boundary choices (|phi| exactly 1 up to
# rounding) are admitted.
_PSD_TOL = 1e-12


class PSDViolationError(ValueError):
    """The noise covariance would not be positive semidefinite (|phi| > 1)."""


class DegenerateDistributionError(ValueError):
    """A conditional distribution collapsed (zero variance), no entropy exists."""


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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


def _noise_determinant(params: DerivedParams, cross: float, phi2: float, t):
    """N(t) = 1 + (alpha+beta)*t - |phi|^2 - 2*t*Re{h_d*conj(h_e)*phi}.

    The determinant of the joint covariance of the destination and
    eavesdropper outputs when the relay forwards variance t: t = x for the
    noise alone, t = mu*x with the signal. Divided by 1 + beta*t it is the
    variance of the destination output given the eavesdropper output.
    `cross` is Re{h_d*conj(h_e)*phi} and `phi2` is |phi|^2.
    """
    return 1.0 + (params.alpha + params.beta) * t - phi2 - 2.0 * t * cross


def lmmse_error_variance(ch: ChannelRealization, params: DerivedParams, x: float,
                         phi) -> float:
    """Error variance N(mu*x) / (1 + beta*mu*x) of linearly estimating the
    destination output from the eavesdropper output, clamped at zero so it
    is nonnegative for every admissible phi.
    """
    phi = _as_correlation(phi)
    if x < 0:
        raise ValueError("x must be nonnegative")
    t = params.mu * x
    det = _noise_determinant(params, _cross_term(ch, phi), phi.abs2, t)
    return max(det, 0.0) / (1.0 + params.beta * t)


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


def bound_objective(ch: ChannelRealization, params: DerivedParams, x, phi, out=None):
    """Conditional-mutual-information bound at gain x and correlation phi:

        0.5*log2[ (1+beta*x)/(1+beta*mu*x) * N(mu*x) / N(x) ]

    with N(t) from `_noise_determinant`.

    Accepts a scalar x, for which it returns a float, or a numpy array,
    evaluated in cache-sized blocks into `out` (fresh unless given; it may
    be `x` itself, as in numpy). Raises when either variance term is
    nonpositive (possible only at |phi| = 1).
    """
    phi = _as_correlation(phi)
    b, m = params.beta, params.mu
    cross = _cross_term(ch, phi)
    phi2 = phi.abs2

    def value(x):
        n_mu = _noise_determinant(params, cross, phi2, m * x)
        n_one = _noise_determinant(params, cross, phi2, x)
        # count_nonzero, unlike any(), is cheap on the bools of a scalar x.
        if np.count_nonzero(n_one <= 0.0) or np.count_nonzero(n_mu <= 0.0):
            raise DegenerateDistributionError("conditional variance is not positive")
        return 0.5 * np.log2((1.0 + b * x) * n_mu / ((1.0 + b * m * x) * n_one))

    if np.isscalar(x):
        return float(value(x))
    return _blockwise(value, x, out)


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
        lambda xs: bound_objective(ch, params, xs, phi, out=xs), x_max, n_points
    )
    return BoundEvaluation(value, x_arg, phi)


def gain_ratio_identity_residual(params: DerivedParams, x: float) -> float:
    """Absolute gap of the rewrite that collapses the bound onto the rate:

        (1+alpha*mu*x)/(1+alpha*x) == (d+(alpha-beta)*mu*x) / (d+(alpha-beta)*x),
        d = 1 - beta/alpha = (alpha-beta)/alpha.

    Zero up to rounding whenever alpha > 0 and alpha != beta; relative to
    the left side it is at most about 14u = 1.6e-15, u = 2**-53. The bound
    follows Higham, Accuracy and Stability of Numerical Algorithms (2002),
    ch. 2-3, with gamma_n = n*u/(1-n*u):
    - d is formed as (alpha-beta)/alpha. alpha - beta is exact when
      beta/alpha is in [1/2, 2] (Sterbenz's lemma) and within u otherwise,
      so d is within gamma_2. Formed as 1 - beta/alpha, the subtraction is
      exact but the rounding of beta/alpha is not cancelled: d would carry
      relative error up to u*beta/|alpha-beta|, unbounded as beta -> alpha.
    - Both terms of each sum have the sign of alpha - beta (on the left,
      are positive), so no sum cancels, and each side is within gamma_8
      (right) and gamma_6 (left) of the same exact value.
    """
    a, b, m = params.alpha, params.beta, params.mu
    if a == 0.0:
        raise ValueError("identity requires alpha > 0")
    if a == b:
        raise ValueError("identity requires alpha != beta")
    lhs = (1.0 + a * m * x) / (1.0 + a * x)
    gap = a - b
    d = gap / a
    rhs = (d + gap * m * x) / (d + gap * x)
    return abs(lhs - rhs)
