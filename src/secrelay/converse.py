"""Genie-aided upper bound on the AF secrecy capacity.

The genie hands the destination the eavesdropper's observation. With the two
receiver noises jointly Gaussian (correlation phi, |phi| <= 1), the bound is
half the log-ratio of two variances of the destination output given the
eavesdropper output, with and without the relayed signal. At relay variance
t >= 0 (t = mu*x, or x for the noise alone; x = |omega|^2) that variance is
v(t) = N(t)/(1 + beta*t): the joint covariance's determinant N(t) = c0 + c1*t
is affine, c0 = 1 - |phi|^2, c1 = alpha + beta - 2*Re{h_d*conj(h_e)*phi}. A
ratio of affine functions is monotone on t >= 0, so v lies between c0 and
c1/beta, and it overflows no sooner than its terms c1*t and beta*t. A
channel-dependent phi makes the bound coincide with the achievable log
ratio, which certifies the closed-form capacity; phi is kept free so
dominance can be probed at any admissible correlation.
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


def _conditional_variance(ch: ChannelRealization, params: DerivedParams,
                          phi: NoiseCorrelation):
    """v(t) = (c0 + c1*t)/(1 + beta*t) (module docstring), c0 and c1 formed
    once. For t >= 0 it has the sign of N(t)."""
    c0 = 1.0 - phi.abs2
    cross = (complex(ch.h_d) * complex(ch.h_e).conjugate() * complex(phi.phi)).real
    c1 = params.alpha + params.beta - 2.0 * cross
    b = params.beta
    return lambda t: (c0 + c1 * t) / (1.0 + b * t)


def lmmse_error_variance(ch: ChannelRealization, params: DerivedParams, x: float,
                         phi) -> float:
    """Error variance v(mu*x) of linearly estimating the destination output
    from the eavesdropper output, x >= 0, clamped at zero so it is
    nonnegative for every admissible phi. It lies between c0 and c1/beta
    (module docstring), so it is bounded wherever beta > 0.
    """
    phi = _as_correlation(phi)
    if x < 0:
        raise ValueError("x must be nonnegative")
    return max(_conditional_variance(ch, params, phi)(params.mu * x), 0.0)


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
    """Conditional-mutual-information bound at gain x >= 0 and correlation phi:

        0.5*log2[ v(mu*x) / v(x) ],   v(t) = N(t)/(1 + beta*t),

    the LMMSE error variance over the noise-only one (module docstring).
    Each variance lies between c0 and c1/beta and is formed on its own, so
    the ratio is finite wherever both variances are.

    Accepts a scalar x, for which it returns a float, or a numpy array,
    evaluated in cache-sized blocks into `out` (fresh unless given; it may
    be `x` itself, as in numpy). Raises when either variance is not positive
    (possible only at |phi| = 1).
    """
    phi = _as_correlation(phi)
    v = _conditional_variance(ch, params, phi)
    m = params.mu

    def value(x):
        v_mu = v(m * x)
        v_one = v(x)
        # count_nonzero, unlike any(), is cheap on the bools of a scalar x.
        if np.count_nonzero(v_one <= 0.0) or np.count_nonzero(v_mu <= 0.0):
            raise DegenerateDistributionError("conditional variance is not positive")
        return 0.5 * np.log2(v_mu / v_one)

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
