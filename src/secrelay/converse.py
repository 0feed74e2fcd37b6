"""Genie-aided upper bound on the AF secrecy capacity.

The genie hands the destination the eavesdropper's observation. With the two
receiver noises jointly Gaussian (correlation phi, |phi| <= 1), the bound is
half the log-ratio of two variances of the destination output given the
eavesdropper output, with and without the relayed signal. At relay variance
t >= 0 (t = mu*x, or x for the noise alone; x = |omega|^2) that variance is
v(t) = N(t)/(1 + beta*t): the joint covariance's determinant N(t) = c0 + c1*t
is affine, c0 = 1 - |phi|^2, c1 = alpha + beta - 2*Re{h_d*conj(h_e)*phi}. A
ratio of affine functions is monotone on t >= 0, so v lies between c0 and
c1/beta. The bound is log1p of the excess v(mu*x)/v(x) - 1,

    [k/(c0 + c1*x)] * [(mu-1)*x/(1 + beta*mu*x)],  k = c1 - beta*c0 = |h_d - conj(phi)*h_e|^2,

nonnegative, with relative precision kept at small bounds, where a
log-ratio near 1 has no correct digit. With p = c1/c0 and q = beta, its
derivative in x has the sign of (mu-1)*(p - q)*(1 - p*q*mu*x^2), and
p - q = k/c0 > 0: it rises, then falls, peaking at x* = 1/sqrt(p*q*mu). At
`select_phi` it is the achievable rate, which certifies the closed-form
capacity; phi is free so dominance can be probed at any admissible phi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .af import _HALF_LOG2_E
from .channel import ChannelRealization, DerivedParams, PowerBudget, _abs2
from .fractional import _blockwise, _into, maximize_on_interval

__all__ = [
    "PSDViolationError",
    "DegenerateDistributionError",
    "NoiseCorrelation",
    "BoundEvaluation",
    "lmmse_error_variance",
    "select_phi",
    "bound_objective",
    "genie_upper_bound",
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


def _coefficients(ch: ChannelRealization, params: DerivedParams,
                  phi: NoiseCorrelation) -> tuple[float, float, float]:
    """(c0, c1, k) of the module docstring in Python floats; k is formed as
    |h_d - conj(phi)*h_e|^2, never negative however c1 - beta*c0 cancels."""
    z = complex(phi.phi)
    cross = (complex(ch.h_d) * complex(ch.h_e).conjugate() * z).real
    c1 = params.alpha + params.beta - 2.0 * cross
    return 1.0 - phi.abs2, c1, _abs2(complex(ch.h_d) - z.conjugate() * complex(ch.h_e))


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
    c0, c1, _ = _coefficients(ch, params, phi)
    t = params.mu * x
    return max((c0 + c1 * t) / (1.0 + params.beta * t), 0.0)


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
    """Conditional-mutual-information bound at gain x >= 0 and correlation phi,
    0.5*log2[v(mu*x)/v(x)] = _HALF_LOG2_E*log1p(excess), the excess of the
    module docstring: one formula for scalars and arrays.

    Accepts a scalar x or a 0-d array, evaluated in Python floats (bit for
    bit an array element) and returned as a float, or a numpy array,
    evaluated in cache-sized blocks. The result goes into `out` if given (it
    may be `x` itself, as in numpy). Raises `ValueError` for x < 0 and
    `DegenerateDistributionError` where N(x) is not positive (possible only
    at |phi| = 1; N(mu*x) >= N(x) then); a NaN x does not raise.
    """
    phi = _as_correlation(phi)
    c0, c1, k = _coefficients(ch, params, phi)
    b, m = params.beta, params.mu

    def excess(x, den):
        return k / den * ((m - 1.0) * x / (1.0 + b * (m * x)))

    if not isinstance(x, np.ndarray) or x.ndim == 0:
        x = float(x)
        if x < 0.0:
            raise ValueError("x must be nonnegative")
        den = c0 + c1 * x
        if den <= 0.0:
            raise DegenerateDistributionError("conditional variance is not positive")
        # np.log1p, not math.log1p, which differs from the array's by an ulp.
        return _into(out, float(_HALF_LOG2_E * np.log1p(excess(x, den))))

    def value(x):
        # fmin skips NaN, so, as for a scalar, a NaN x does not raise.
        if np.fmin.reduce(x, axis=None, initial=np.inf) < 0.0:
            raise ValueError("x must be nonnegative")
        den = c0 + c1 * x
        if np.fmin.reduce(den, axis=None, initial=np.inf) <= 0.0:
            raise DegenerateDistributionError("conditional variance is not positive")
        e = excess(x, den)
        np.log1p(e, out=e)
        e *= _HALF_LOG2_E
        return e

    return _blockwise(value, x, out)


def genie_upper_bound(ch: ChannelRealization, params: DerivedParams, pb: PowerBudget,
                      n_points: int = 1_000_000) -> BoundEvaluation:
    """Bound maximized over the feasible gain interval with phi from `select_phi`.

    When the eavesdropper link dominates (alpha <= beta) the objective is
    identically zero for this phi, so 0 is returned directly. Otherwise it is
    the larger of a brute-force grid-plus-golden-section scan of [0, P_r/mu]
    (independent of the parametric solver) and the objective at the peak x*
    (module docstring) clamped to it, which a scan can miss in its first cell.
    """
    phi = select_phi(ch, params)
    if params.alpha <= params.beta:
        return BoundEvaluation(0.0, 0.0, phi)
    x_max = pb.p_r / params.mu
    x_arg, value = maximize_on_interval(
        lambda xs: bound_objective(ch, params, xs, phi, out=xs), x_max, n_points
    )
    c0, c1, _ = _coefficients(ch, params, phi)
    # x* (a 0-d array, as a section step is) with square roots factor by
    # factor, so no product overflows; inf at beta = 0; fmin skips a NaN.
    with np.errstate(divide="ignore", invalid="ignore"):
        x_peak = np.array(np.fmin(
            np.sqrt(c0) / np.sqrt(c1) / np.sqrt(params.beta) / np.sqrt(params.mu), x_max))
    peak = bound_objective(ch, params, x_peak, phi)
    if peak > value:
        return BoundEvaluation(peak, float(x_peak), phi)
    return BoundEvaluation(value, x_arg, phi)
