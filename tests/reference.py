"""Exact reference values for the tests: each quantity once, from its
definition, rounded to a float once.

Inputs are floats and are taken as the exact rationals they are. Every
quantity below is a rational function of them up to one logarithm, so it is
formed in `Fraction` arithmetic and goes through `half_log2_1p` only at the
end; the excess at the AF interior optimum, the one irrational one, is
formed from positive terms only, at `DIGITS` digits. So each value keeps
its relative precision at any scale, subnormal inputs and results
included: before its final rounding it is within about 1e-39 relative of
the exact value, so the float returned is the exact value correctly
rounded unless that lies that close to a tie.

Inputs must be finite. The formulas follow the paper's definitions, not
the package's factored forms, so that the tests compare two independent
routes.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction

# Working precision of the one rounding step, and the series cut-off: below
# an excess of 1e-20, log(1 + d) is taken as d - d^2/2, whose next term,
# d^3/3, is under 1e-40*|d|; above it 1 + d rounded to DIGITS digits keeps
# 40 digits of its log.
DIGITS = 60
_INVERSE_CUTOFF = 10**20

with localcontext() as _ctx:
    _ctx.prec = DIGITS
    _TWO_LN2 = 2 * Decimal(2).ln()


def _exact(*values):
    return tuple(Fraction(float(v)) for v in values)


def half_log2_1p(excess) -> float:
    """0.5*log2(1 + excess) rounded to a float, for an exact excess > -1: a
    `Fraction`, or a `Decimal` already at `DIGITS` digits. 1 + excess is
    formed exactly, before the one rounding to `DIGITS` digits."""
    num, den = excess.as_integer_ratio()
    with localcontext() as ctx:
        ctx.prec = DIGITS
        if abs(num) * _INVERSE_CUTOFF < den:
            d = Decimal(num) / den
            log1p = d - d * d / 2
        else:
            log1p = (Decimal(num + den) / den).ln()
        return float(log1p / _TWO_LN2)


def _excess_at_gain(a, b, m, x) -> Fraction:
    # num(x)/den(x) - 1 with num - den = (n1 - d1)*x = (a-b)*(m-1)*x and
    # den = a*b*m*x^2 + d1*x + 1 = (1 + a*x)*(1 + b*m*x).
    return (a - b) * (m - 1) * x / ((1 + a * x) * (1 + b * m * x))


def af_excess(alpha, beta, mu, consumed) -> Fraction:
    """f - 1 at relay power `consumed` = mu*x, exactly. Signed: negative
    where alpha < beta."""
    a, b, m, c = _exact(alpha, beta, mu, consumed)
    return _excess_at_gain(a, b, m, c / m)


def af_peak_excess(alpha, beta, mu) -> Decimal:
    """f - 1 at the interior optimum x = 1/sqrt(alpha*beta*mu), at `DIGITS`
    digits: (alpha-beta)*(mu-1)/(sqrt(alpha) + sqrt(beta*mu))^2. Each term is
    positive for alpha > beta > 0 and mu > 1, so the irrational maximizer
    is never formed and nothing cancels."""
    a, b, m = _exact(alpha, beta, mu)
    with localcontext() as ctx:
        ctx.prec = DIGITS

        def sqrt(q):
            return (Decimal(q.numerator) / q.denominator).sqrt()

        root = sqrt(a) + sqrt(b * m)
        num = (a - b) * (m - 1)
        return Decimal(num.numerator) / num.denominator / (root * root)


def af_capacity(alpha, beta, mu, p_r) -> float:
    """AF secrecy capacity 0.5*log2 f(x_hat), x_hat = min(P_r/mu,
    1/sqrt(alpha*beta*mu)), and 0 where alpha <= beta, mu == 1 or P_r == 0.
    The regime is decided exactly: P_r^2*alpha*beta <= mu is full power."""
    a, b, m, p = _exact(alpha, beta, mu, p_r)
    if not (a > b and m > 1 and p > 0):
        return 0.0
    if p * p * a * b <= m:
        return half_log2_1p(_excess_at_gain(a, b, m, p / m))
    return half_log2_1p(af_peak_excess(alpha, beta, mu))


def af_rate(alpha, beta, mu, x) -> float:
    """Signed AF rate at gain x, 0.5*log2 f(x), before the positive-part
    clamp: the difference of the two mutual informations, with no
    cancellation."""
    return half_log2_1p(_excess_at_gain(*_exact(alpha, beta, mu, x)))


def _second_hop_excess(alpha, beta, p_r) -> Fraction:
    # (1 + alpha*P_r)/(1 + beta*P_r) - 1
    a, b, p = _exact(alpha, beta, p_r)
    return (a - b) * p / (1 + b * p)


def second_hop(alpha, beta, p_r) -> float:
    """Second-hop secrecy capacity log2((1+alpha*P_r)/(1+beta*P_r)) at full
    relay power, clamped at zero."""
    if not alpha > beta:
        return 0.0
    return 2.0 * half_log2_1p(_second_hop_excess(alpha, beta, p_r))


def df_capacity(alpha, beta, mu, p_r) -> float:
    """DF secrecy capacity, half the smaller cut: 0.5*min(log2(mu),
    log2((1+alpha*P_r)/(1+beta*P_r))), and 0 where alpha <= beta. log2(mu)
    is log2(1 + (mu - 1)), so the smaller cut is the one with the smaller
    excess, and it alone is rounded."""
    if not alpha > beta:
        return 0.0
    return half_log2_1p(min(Fraction(float(mu)) - 1, _second_hop_excess(alpha, beta, p_r)))


def pi_of_lambda(alpha, beta, mu, x_max, lam) -> float:
    """pi(lambda) = max of F(x, lambda) = num(x) - lambda*den(x) over
    [0, x_max], num = a*x^2 + n1*x + 1 and den = a*x^2 + d1*x + 1 (a =
    alpha*beta*mu, n1 = alpha*mu + beta, d1 = alpha + beta*mu). For lambda >=
    1, F is concave in x, so its maximizer is the stationary point
    (n1 - lambda*d1)/(2*a*(lambda - 1)) clamped to [0, x_max], or an end
    where F is linear; that point is rational, so pi is exact."""
    a, b, m, x_max, lam = _exact(alpha, beta, mu, x_max, lam)
    qa, n1, d1 = a * b * m, a * m + b, a + b * m
    slope = n1 - lam * d1
    curvature = 2 * qa * (lam - 1)
    if curvature > 0:
        x = min(max(slope / curvature, Fraction(0)), x_max)
    else:
        x = x_max if slope > 0 else Fraction(0)
    return float(qa * x * x + n1 * x + 1 - lam * (qa * x * x + d1 * x + 1))


def genie(ch, params, phi, x):
    """(v(mu*x), v(x)), (N(mu*x), N(x)) and the genie bound
    0.5*log2(v(mu*x)/v(x)) from the determinant's definition
    N(t) = 1 + (alpha+beta)*t - |phi|^2 - 2*t*Re{h_d*conj(h_e)*phi}
    and v(t) = N(t)/(1 + beta*t), on the float inputs as given: exact up to
    the excess v(mu*x)/v(x) - 1, which `half_log2_1p` rounds."""
    p, q, r, s, f, g, a, b, m, x = _exact(
        ch.h_d.real, ch.h_d.imag, ch.h_e.real, ch.h_e.imag,
        phi.phi.real, phi.phi.imag, params.alpha, params.beta, params.mu, x)
    # h_d*conj(h_e) = (p*r + q*s) + i*(q*r - p*s)
    cross = (p * r + q * s) * f - (q * r - p * s) * g

    def n_v(t):
        n = 1 + (a + b) * t - (f * f + g * g) - 2 * t * cross
        return n, n / (1 + b * t)

    (n_mu, v_mu), (n_one, v_one) = n_v(m * x), n_v(x)
    bound = half_log2_1p(v_mu / v_one - 1)
    return (float(v_mu), float(v_one)), (float(n_mu), float(n_one)), bound
