"""DF secrecy capacity via the cut-set decomposition.

The rate is half the minimum of the first-hop capacity log2(mu) and the
second-hop secrecy capacity at full relay power. When the second hop is the
stronger cut the relay dials its gain down to the point where both cuts are
equal, saving power. The array kernel `df_batch` evaluates this; the scalar
functions wrap it. Its budget-independent per-lane terms come from
`df_lane_terms`, which a caller evaluating many budgets builds once.
"""

from __future__ import annotations

import math

import numpy as np

from .af import _HALF_LOG2_E, _MIN_NORMAL, SecrecyResult, _exact_lanes, _inactive, _zero_where
from .channel import DerivedParams, PowerBudget, Strategy

__all__ = [
    "source_relay_capacity",
    "second_hop_secrecy_capacity",
    "df_active",
    "df_batch",
    "df_balancing_gain",
    "df_first_cut",
    "df_lane_terms",
    "df_secrecy_capacity",
]


def source_relay_capacity(params: DerivedParams) -> float:
    """First-hop capacity log2(mu) in bits per channel use."""
    return math.log2(params.mu)


def second_hop_secrecy_capacity(params: DerivedParams, pb: PowerBudget) -> float:
    """Second-hop secrecy capacity at full relay power, clamped at zero.

    log2((1+alpha*P_r)/(1+beta*P_r)) as a ratio, written independently of
    `df_batch` so that it can check it. Above P_r = 1 numerator and
    denominator are divided by P_r so neither overflows; where the ratio
    itself would, the two logs are subtracted instead.
    """
    a, b, p = params.alpha, params.beta, pb.p_r
    num, den = (1.0 / p + a, 1.0 / p + b) if p > 1.0 else (1.0 + a * p, 1.0 + b * p)
    if not num > den:
        return 0.0
    ratio = num / den
    return math.log2(ratio) if math.isfinite(ratio) else math.log2(num) - math.log2(den)


def _second_hop_gain(alpha, beta, p_r):
    # (1+alpha*P_r)/(1+beta*P_r) - 1 divided through by P_r. It overflows
    # only where the true value exceeds MAX, and inf is the right limit
    # there: the first cut is then the smaller.
    return (alpha - beta) / (beta + 1 / p_r)


def df_balancing_gain(alpha, beta, mu):
    """Cut-balancing gain (mu-1)/(alpha-beta*mu), the relay power beyond which
    the DF capacity and consumed power are constant; inf where it is negative
    or undefined, since there the second hop never outgrows the first.

    Never NaN. The caller silences the division warnings.
    """
    gain = np.asarray(np.divide(np.subtract(mu, 1.0), np.subtract(alpha, np.multiply(beta, mu))))
    np.copyto(gain, np.inf, where=np.logical_not(gain >= 0.0))
    return gain


def df_first_cut(mu):
    """Half the first-hop cut, 0.5*log2(mu): the DF capacity's ceiling."""
    return 0.5 * np.log2(mu)


def df_active(alpha, beta, mu):
    """The lanes `df_batch` evaluates, alpha > beta; both its outputs are
    zero on the others at every budget."""
    return alpha > beta


def df_lane_terms(alpha, beta, mu, balancing_gain=None):
    """The per-lane terms of `df_batch` that do not depend on the budget, as
    the tuple (balancing gain, 0.5*log2(mu), alpha - beta, inactive) it
    takes as `lanes=`. `inactive` masks the lanes outside `df_active`, and
    is None when there are none.

    `balancing_gain`, if given, must be `df_balancing_gain(alpha, beta,
    mu)`; a caller that already holds it passes it.
    """
    if balancing_gain is None:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            balancing_gain = df_balancing_gain(alpha, beta, mu)
    return balancing_gain, df_first_cut(mu), alpha - beta, _inactive(df_active(alpha, beta, mu))


def df_batch(alpha: np.ndarray, beta: np.ndarray, mu: np.ndarray, p_r: float, *,
             lanes=None) -> tuple[np.ndarray, np.ndarray]:
    """DF (capacity, consumed power), lanewise over arrays or scalars.

    The only DF capacity formula in the package:
    0.5*min(log2(mu), log2(1 + (alpha-beta)*P_r/(1+beta*P_r))), zero when
    alpha <= beta. Consumed power equals the squared gain because the
    re-encoded symbol has unit power: full power, or, on the lanes where
    the second hop is the stronger cut, the cut-balancing gain
    (mu-1)/(alpha-beta*mu) capped at P_r.

    `lanes`, if given, must be `df_lane_terms(alpha, beta, mu, ...)`: a
    caller that evaluates the same lanes at several budgets computes it
    once. Without it the kernel computes it, with the same bits.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        balancing_gain, first, excess, inactive = (
            df_lane_terms(alpha, beta, mu) if lanes is None else lanes)
        p_r = np.asarray(p_r, dtype=float)
        # _second_hop_gain, with alpha - beta from the lane terms.
        snr = excess / (beta + 1 / p_r)
        # Lanes where an extreme scale pushed the gain out of the normal
        # range are redone exactly; one pass rules them out in the common case.
        if not np.minimum.reduce(snr, axis=None, initial=np.inf) >= _MIN_NORMAL:
            redo = (p_r > 0.0) & ~(snr >= _MIN_NORMAL)
            if inactive is not None:
                redo = redo & ~inactive
            if np.any(redo):
                snr = _exact_lanes(_second_hop_gain, snr, redo, alpha, beta, p_r)
        # Half of each cut, rounded the way af_batch rounds its capacity.
        second = np.log1p(snr)
        second *= _HALF_LOG2_E
        del snr
        capacity = _zero_where(np.minimum(first, second), inactive)
        # Full power, or the balancing gain where the second cut is the
        # larger. The gain lies in [0, P_r] there; where rounding at equal
        # cuts pushes it out, P_r is its limit.
        consumed = _zero_where(np.full_like(capacity, p_r), inactive)
        balancing = second > first
        if inactive is not None:
            balancing = balancing & ~inactive
        np.minimum(balancing_gain, p_r, out=consumed, where=balancing)
    return capacity, consumed


def df_secrecy_capacity(params: DerivedParams, pb: PowerBudget) -> SecrecyResult:
    """DF secrecy capacity with gain and consumed power."""
    capacity, x_hat = df_batch(params.alpha, params.beta, params.mu, pb.p_r)
    x_hat = float(x_hat)
    return SecrecyResult(float(capacity), x_hat, x_hat, Strategy.DF)

