"""Achievable rate, optimal gain, and secrecy capacity for AF relaying.

The per-hop mutual informations reduce to log ratios in x = |omega|^2. The
optimal gain is full power below a saturation budget and the interior peak
of the rate above it (extra relay power would amplify noise more than
signal), so the capacity is constant beyond that budget. Both regimes are
one expression at x_hat, evaluated by the array kernel `af_batch`; the
scalar functions wrap it. Its budget-independent per-lane terms come from
`af_lane_terms`, which a caller evaluating many budgets builds once.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .channel import DerivedParams, PowerBudget, Strategy, gain_domain, secrecy_possible

__all__ = [
    "SecrecyResult",
    "mutual_info_destination",
    "mutual_info_eavesdropper",
    "af_batch",
    "af_lane_terms",
    "af_saturation_budget",
    "af_secrecy_capacity",
    "af_achievable_rate_at",
]

_HALF_LOG2_E = 0.5 / math.log(2.0)
_MIN_NORMAL = sys.float_info.min


@dataclass(frozen=True, slots=True)
class SecrecyResult:
    """Capacity in bits per channel use, the optimal squared gain, and the
    relay transmit power actually consumed at that gain."""

    capacity: float
    x_hat: float
    consumed_power: float
    strategy: Strategy


def mutual_info_destination(params: DerivedParams, x: float) -> float:
    """log2((1 + alpha*mu*x) / (1 + alpha*x)), nonnegative for x >= 0."""
    a, m = params.alpha, params.mu
    return math.log2((1.0 + a * m * x) / (1.0 + a * x))


def mutual_info_eavesdropper(params: DerivedParams, x: float) -> float:
    """Same log ratio with beta in place of alpha."""
    b, m = params.beta, params.mu
    return math.log2((1.0 + b * m * x) / (1.0 + b * x))


def _exact_lanes(fn, values, redo, *args):
    """`values` with the lanes in `redo` recomputed as `fn(*args)` in exact
    rational arithmetic and rounded once."""
    # Imported here: the fallback is rare, and fractions pulls in decimal.
    from fractions import Fraction

    lanes = np.broadcast_arrays(redo, *args)
    out = np.array(values, dtype=float)
    out[lanes[0]] = [float(fn(*map(Fraction, map(float, vals))))
                     for vals in zip(*(lane[lanes[0]] for lane in lanes[1:]))]
    return out


def _zero_where(values, mask):
    """`values`, a fresh ufunc result, as an array with the lanes in `mask`
    set to 0; unchanged when `mask` is None. A masked write touches only
    those lanes, where np.where would copy every lane."""
    out = np.asarray(values)
    if mask is not None:
        np.copyto(out, 0.0, where=mask)
    return out


def _inactive(active):
    """The mask of lanes outside `active`, or None when there are none."""
    inactive = np.logical_not(active)
    return inactive if inactive.any() else None


def _af_factors(alpha, beta, mu, excess, mu_excess, consumed):
    # f(x) - 1 = (alpha-beta)*x/(1+alpha*x) * (mu-1)/(1+beta*mu*x) at x =
    # consumed/mu, the first factor divided by x; excess and mu_excess are
    # alpha - beta and mu - 1.
    return excess / (alpha + mu / consumed), mu_excess / (1 + beta * consumed)


def _af_excess(alpha, beta, mu, excess, mu_excess, consumed):
    """f - 1 at consumed power `consumed`, the product of `_af_factors`.
    Where alpha > beta the first factor lies in [0, 1] and the second in
    [0, mu-1], so neither overflows. At extreme scales either can still
    leave the normal range: the first where mu/consumed overflows, the
    second past the saturation budget, where 1 + beta*consumed overflows.
    Those lanes are redone exactly where secrecy is possible and the
    consumed power is finite and positive, and one pass per factor rules
    them out in the common case."""
    gain, mu_gain = _af_factors(alpha, beta, mu, excess, mu_excess, consumed)
    redo = None
    if not (np.minimum.reduce(gain, axis=None, initial=np.inf) >= _MIN_NORMAL
            and np.minimum.reduce(mu_gain, axis=None, initial=np.inf) >= _MIN_NORMAL):
        normal = (gain >= _MIN_NORMAL) & (mu_gain >= _MIN_NORMAL)
        redo = (0.0 < consumed) & (consumed < np.inf) & ~normal & secrecy_possible(alpha, beta, mu)
    gain *= mu_gain  # the product, in place
    if redo is not None and redo.any():
        gain = _exact_lanes(lambda a, b, m, c: math.prod(_af_factors(a, b, m, a - b, m - 1, c)),
                            gain, redo, alpha, beta, mu, consumed)
    return gain


def af_saturation_budget(alpha, beta, mu):
    """Relay budget sqrt(mu/(alpha*beta)) beyond which the AF capacity and
    consumed power are constant; inf when beta == 0.

    Square roots are taken factor by factor so no product overflows. The
    caller silences the division warning at beta == 0.
    """
    return np.sqrt(mu) / np.sqrt(alpha) / np.sqrt(beta)


def af_lane_terms(alpha, beta, mu, saturation_budget=None):
    """The per-lane terms of `af_batch` that do not depend on the budget, as
    the tuple (saturation budget, alpha - beta, mu - 1, inactive) it takes
    as `lanes=`. `inactive` masks the lanes outside `secrecy_possible`, and
    is None when there are none.

    `saturation_budget`, if given, must be `af_saturation_budget(alpha,
    beta, mu)`; a caller that already holds it passes it.
    """
    if saturation_budget is None:
        with np.errstate(divide="ignore"):
            saturation_budget = af_saturation_budget(alpha, beta, mu)
    return (saturation_budget, alpha - beta, mu - 1,
            _inactive(secrecy_possible(alpha, beta, mu)))


def af_batch(alpha: np.ndarray, beta: np.ndarray, mu: np.ndarray, p_r: float, *,
             lanes=None) -> tuple[np.ndarray, np.ndarray]:
    """AF (capacity, consumed power), lanewise over arrays or scalars.

    The only AF capacity formula in the package. With x_hat = min(P_r/mu,
    1/sqrt(alpha*beta*mu)) the capacity is

        0.5*log2(1 + (alpha-beta)*x/(1+alpha*x) * (mu-1)/(1+beta*mu*x)),

    zero when alpha <= beta or mu == 1. log1p keeps small capacities at full
    relative precision. `lanes`, if given, must be `af_lane_terms(alpha,
    beta, mu)`: a caller that evaluates the same lanes at several budgets
    computes it once. Without it the kernel computes it, with the same bits.

    Every capacity is within 15 ulps of the exact one rounded to a float, by
    a rounding count (Higham 2002, ch. 2-3; u = 2**-53, first order). Each
    factor of `_af_factors` is within 4u: a difference, a sum of two
    positive terms one of them rounded, a division. Where alpha +
    mu/consumed is subnormal, that sum and alpha - beta are exact, but
    mu/consumed >= 1/MAX loses up to 2**-1075, 4u of it, so the first
    factor is within 5u. The product adds u. Past the saturation budget the
    relay consumes that budget, where the excess is stationary, so the
    budget's own rounding moves it only at second order. log1p's condition
    number is at most 1 for an excess >= 0, and log1p is assumed within one
    ulp (2u); the constant and the product by it add 2u. That is 14u
    relative, under 14 ulps; a subnormal capacity loses at most half an ulp
    more, and the float the exact value rounds to lies half an ulp away.
    Lanes the exact fallback redoes start from a correctly rounded excess,
    so they are closer.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        saturation_budget, excess, mu_excess, inactive = (
            af_lane_terms(alpha, beta, mu) if lanes is None else lanes)
        # Consumed power mu*x_hat: the budget itself up to the saturation
        # budget, so consumed <= p_r holds exactly.
        consumed = np.minimum(p_r, saturation_budget)
        gain = _af_excess(alpha, beta, mu, excess, mu_excess, consumed)
        capacity = np.log1p(gain)
        capacity *= _HALF_LOG2_E
    return _zero_where(capacity, inactive), _zero_where(consumed, inactive)


def af_secrecy_capacity(params: DerivedParams, pb: PowerBudget) -> SecrecyResult:
    """Closed-form AF secrecy capacity with the optimal gain and consumed power."""
    capacity, consumed = af_batch(params.alpha, params.beta, params.mu, pb.p_r)
    consumed = float(consumed)
    return SecrecyResult(float(capacity), consumed / params.mu, consumed, Strategy.AF)


def af_achievable_rate_at(params: DerivedParams, pb: PowerBudget, x: float) -> float:
    """Secrecy rate at a fixed feasible gain, before the positive-part clamp:
    0.5*log2 of 1 plus `_af_excess` at consumed power mu*x.

    May be negative (alpha < beta); raises for x outside [0, P_r/mu].
    """
    x_max = gain_domain(Strategy.AF, params, pb)
    if not 0.0 <= x <= x_max:
        raise ValueError(f"gain x={x!r} outside the feasible domain [0, {x_max!r}]")
    a, b, m = params.alpha, params.beta, params.mu
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        gain = _af_excess(a, b, m, a - b, m - 1, np.float64(m * x))
        return float(_HALF_LOG2_E * np.log1p(gain))
