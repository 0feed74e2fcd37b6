"""Channel realizations, power budgets, and the derived link parameters.

Gains are complex baseband coefficients; receiver noises are fixed at unit
variance, so everything downstream is driven by three reals: alpha = |h_d|^2,
beta = |h_e|^2 and mu = 1 + P_s*|h_r|^2. Capacities are in bits per channel
use (log base 2) throughout the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "Strategy",
    "ChannelRealization",
    "DerivedParams",
    "PowerBudget",
    "derive_params",
    "surrogate_channel",
    "gain_domain",
    "db_to_linear",
    "secrecy_possible",
]


class Strategy(Enum):
    """Relaying strategy: scale-and-retransmit (AF) or decode-and-retransmit (DF)."""

    AF = "af"
    DF = "df"


def _abs2(z: complex) -> float:
    return z.real * z.real + z.imag * z.imag


def _require_finite(name: str, v: float) -> None:
    if not math.isfinite(v):
        raise ValueError(f"{name} must be finite, got {v!r}")


def _require_finite_complex(name: str, z: complex) -> None:
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"{name} must be finite, got {z!r}")


@dataclass(frozen=True)
class ChannelRealization:
    """One draw of the link gains: source->relay, relay->destination, relay->eavesdropper."""

    h_r: complex
    h_d: complex
    h_e: complex

    def __post_init__(self) -> None:
        _require_finite_complex("h_r", complex(self.h_r))
        _require_finite_complex("h_d", complex(self.h_d))
        _require_finite_complex("h_e", complex(self.h_e))


@dataclass(frozen=True)
class PowerBudget:
    """Source power per symbol and relay peak power, both in linear watts."""

    p_s: float
    p_r: float

    def __post_init__(self) -> None:
        _require_finite("p_s", self.p_s)
        _require_finite("p_r", self.p_r)
        if self.p_s < 0 or self.p_r < 0:
            raise ValueError("powers must be nonnegative")
        # -0.0 is stored as 0.0, so that no output carries its sign.
        for name in ("p_s", "p_r"):
            if getattr(self, name) == 0:
                object.__setattr__(self, name, 0.0)


@dataclass(frozen=True)
class DerivedParams:
    """alpha = |h_d|^2, beta = |h_e|^2, mu = 1 + P_s*|h_r|^2.

    mu equals 1 exactly when the first hop carries no signal power; that is a
    valid degenerate input (zero secrecy capacity downstream), not an error.
    """

    alpha: float
    beta: float
    mu: float

    def __post_init__(self) -> None:
        _require_finite("alpha", self.alpha)
        _require_finite("beta", self.beta)
        _require_finite("mu", self.mu)
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be nonnegative")
        if self.mu < 1:
            raise ValueError("mu must be at least 1 (it is 1 + first-hop SNR)")


def derive_params(ch: ChannelRealization, pb: PowerBudget) -> DerivedParams:
    """Reduce a channel draw plus source power to (alpha, beta, mu)."""
    return DerivedParams(
        alpha=_abs2(complex(ch.h_d)),
        beta=_abs2(complex(ch.h_e)),
        mu=1.0 + pb.p_s * _abs2(complex(ch.h_r)),
    )


def secrecy_possible(alpha, beta, mu):
    """alpha > beta and mu > 1, lanewise over arrays or Python floats: where
    the AF and DF secrecy capacities can be positive. Elsewhere both, and
    the relay power each consumes, are zero at every budget."""
    return (alpha > beta) & (mu > 1.0)


def surrogate_channel(params: DerivedParams) -> ChannelRealization:
    """Real gains with squared magnitudes alpha and beta and a unit first hop.

    Stands in for a channel when only (alpha, beta, mu) are known: every
    quantity the package reports depends on the gains only through alpha,
    beta, mu and the products that `converse.select_phi` reduces to.
    """
    return ChannelRealization(1.0, math.sqrt(params.alpha), math.sqrt(params.beta))


def gain_domain(strategy: Strategy, params: DerivedParams, pb: PowerBudget) -> float:
    """Upper end X of the feasible squared-gain interval [0, X].

    The peak-power constraint caps |omega|^2 at P_r divided by the power of
    the symbol being scaled: mu for AF (noisy first-hop observation), 1 for
    DF (unit-power re-encoded symbol).
    """
    if strategy is Strategy.AF:
        return pb.p_r / params.mu
    return pb.p_r


def db_to_linear(p_db: float) -> float:
    """Convert a dB quantity (dBW for powers) to linear scale.

    Raises ValueError when the linear value does not fit in a float.
    """
    _require_finite("p_db", p_db)
    try:
        return 10.0 ** (p_db / 10.0)
    except OverflowError:
        raise ValueError(f"{p_db!r} dB overflows the float range") from None
