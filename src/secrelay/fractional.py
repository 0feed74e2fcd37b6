"""Maximization of a ratio of quadratics over the relay gain interval.

The AF secrecy objective reduces to

    f(x) = (a*x^2 + n1*x + 1) / (a*x^2 + d1*x + 1),
    a = alpha*beta*mu,  n1 = alpha*mu + beta,  d1 = alpha + beta*mu,

maximized over 0 <= x <= x_max. f is not concave, so the solver takes the
parametric route: search for lambda with

    pi(lambda) = max_x F(x, lambda) = 0,  F = num - lambda*den = (f - lambda)*den;

that root is the optimal ratio value and the inner argmax is the optimal
gain. f - 1 is evaluated in the AF kernel's factored form `af._af_factors`,
and F from it, so neither forms a. In the excess t = lambda - 1,
F = d1*(k - t)*x - t*a*x^2 - t with k = n1/d1 - 1 is concave in x for every
lambda >= 1, and pi -- F at its maximizer x(lambda), the stationary point
clamped to [0, x_max] -- is continuous and decreasing. For alpha > beta and
mu > 1 the root lies in [1, 1 + k]: pi(1) = (alpha-beta)*(mu-1)*x_max > 0,
and at t = k, F = -k*(a*x^2 + 1) < 0 for every x. Both signs hold by
argument, so the bisection (`lambda_hat_bisection`) evaluates neither end
and runs until its two ends are adjacent floats. The closed form
(`lambda_hat_closed_form`) is f at the maximizer min(x_max, 1/sqrt(a)), the
point where the bisection lands. `grid_oracle` is an intentionally
brute-force cross-check: a dense grid scan refined by golden-section search,
independent of the parametric machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .af import _af_excess, _af_factors, af_saturation_budget
from .channel import secrecy_possible

__all__ = [
    "RatioQuadraticProblem",
    "SolverBranch",
    "LambdaSolution",
    "eval_f",
    "eval_F",
    "x_of_lambda",
    "pi_of_lambda",
    "lambda_hat_closed_form",
    "lambda_hat_bisection",
    "grid_oracle",
    "maximize_on_interval",
]

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Grid points per block of `_blockwise`: a block's temporaries, 256 KiB
# each, then stay in a 2 MiB per-core L2 cache.
_BLOCK = 1 << 15


@dataclass(frozen=True, slots=True)
class RatioQuadraticProblem:
    """Coefficients (via alpha, beta, mu) and domain [0, x_max] of the ratio."""

    alpha: float
    beta: float
    mu: float
    x_max: float

    def __post_init__(self) -> None:
        # Python floats, so that numpy scalars overflow to inf with no warning.
        for name in ("alpha", "beta", "mu", "x_max"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
            object.__setattr__(self, name, float(v))
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be nonnegative")
        if self.mu < 1:
            raise ValueError("mu must be at least 1")
        if self.x_max < 0:
            raise ValueError("x_max must be nonnegative")


class SolverBranch(Enum):
    ENDPOINT = "endpoint"
    INTERIOR = "interior"
    DEGENERATE = "degenerate"


@dataclass(frozen=True, slots=True)
class LambdaSolution:
    """Optimal ratio value, its maximizer, and which solver branch produced it."""

    lambda_hat: float
    x_hat: float
    branch: SolverBranch


def _into(out, value):
    """`value` written into `out` and `out` returned, or `value` itself when
    `out` is None."""
    if out is None:
        return value
    out[...] = value
    return out


def _blockwise(fun, x, out=None):
    """`fun(x)` for an elementwise `fun`, evaluated `_BLOCK` points at a time.

    A 1-D array longer than `_BLOCK` is cut into consecutive slices whose
    results fill `out`, so the temporaries of each slice stay in cache;
    every element gets the same operations as in one call, so the values
    are the same bit for bit. `out` is a fresh float array unless given; it
    may be `x` itself, since each slice is read before its result is
    written. `eval_f` and `bound_objective` pass arrays of one or more
    dimensions; any other `x` or short array goes to `fun` whole, its
    result written into `out` if one is given.
    """
    if not isinstance(x, np.ndarray) or x.ndim != 1 or x.size <= _BLOCK:
        return _into(out, fun(x))
    if out is None:
        out = np.empty(x.shape)
    for start in range(0, x.size, _BLOCK):
        out[start:start + _BLOCK] = fun(x[start:start + _BLOCK])
    return out


def eval_f(prob: RatioQuadraticProblem, x, out=None):
    """f(x), 1 plus the product of `af._af_factors` at consumed power mu*x.

    A scalar or 0-d x is evaluated in Python floats, bit for bit an array
    element, and returned as a float; f = 1 exactly at x = 0 (for an array,
    mu/0 = inf makes the first factor 0). As in numpy, `out` is an optional
    array for the result, which may be `x` itself.
    """
    alpha, beta, mu = prob.alpha, prob.beta, prob.mu

    def ratio(x):
        gain, mu_gain = _af_factors(alpha, beta, mu, alpha - beta, mu - 1.0, mu * x)
        return 1.0 + gain * mu_gain

    if not isinstance(x, np.ndarray) or x.ndim == 0:
        x = float(x)
        try:
            f = ratio(x) if x != 0.0 else 1.0
        except ZeroDivisionError:  # numpy's inf or nan, e.g. alpha = 0 at mu*x = inf
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                f = float(ratio(np.float64(x)))
        return _into(out, f)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _blockwise(ratio, x, out)


def eval_F(prob: RatioQuadraticProblem, x, lam: float):
    """F(x, lambda) = (f(x) - lambda)*den(x), den = (1 + alpha*x)*(1 + beta*mu*x),
    for lambda >= 1 and a scalar x (as a float) or a numpy array.

    f - lambda is taken as (f - 1) - t, with t = lambda - 1 and f - 1 the
    product of `af._af_factors` at consumed power mu*x, and den is multiplied
    in factor by factor. That form divides by x; at x = 0, F = 1 - lambda.
    """
    if isinstance(x, np.ndarray):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return _F(prob, x, lam)  # mu/0 = inf at x = 0 makes f - 1 = 0 there
    return _F(prob, x, lam) if x > 0.0 else 1.0 - lam


def _F(prob: RatioQuadraticProblem, x, lam: float):
    alpha, beta, mu = prob.alpha, prob.beta, prob.mu
    gain, mu_gain = _af_factors(alpha, beta, mu, alpha - beta, mu - 1.0, mu * x)
    return (gain * mu_gain - (lam - 1.0)) * (1.0 + alpha * x) * (1.0 + beta * mu * x)


def _excess_bound(prob: RatioQuadraticProblem) -> float:
    """k = n1/d1 - 1 = (alpha-beta)/(alpha+beta*mu)*(mu-1), for alpha > 0.

    f - 1 = d1*k*x/den(x) < k, so the root of pi lies in t < k. Written
    through beta/alpha < 1 where alpha > beta, so neither beta*mu nor k
    overflows.
    """
    alpha, beta, mu = prob.alpha, prob.beta, prob.mu
    return (alpha - beta) / alpha * ((mu - 1.0) / (1.0 + beta / alpha * mu))


def x_of_lambda(prob: RatioQuadraticProblem, lam: float) -> float:
    """Maximizer of F(., lambda) over [0, x_max], for any lambda >= 1: the
    stationary point d1/(2a)*(k/t - 1) of F (t = lambda - 1), with d1/(2a) =
    1/(2*beta*mu) + 1/(2*alpha), clamped to [0, x_max].

    The clamp is taken without forming the point where that would divide by
    0: it is 0 where F falls from x = 0 (t >= k, or a degenerate problem,
    where f <= 1), and x_max where F is linear and rising (t = 0 or beta = 0).
    """
    if not lam >= 1.0:
        raise ValueError(f"lambda={lam!r} must be at least 1")
    t = lam - 1.0
    if _is_degenerate(prob) or not t < (k := _excess_bound(prob)):
        return 0.0
    beta, x_max = prob.beta, prob.x_max
    if t == 0.0 or beta == 0.0:
        return x_max
    return min(x_max, (0.5 / (beta * prob.mu) + 0.5 / prob.alpha) * (k / t - 1.0))


def pi_of_lambda(prob: RatioQuadraticProblem, lam: float) -> float:
    """pi(lambda): F(., lambda) at its constrained maximizer x(lambda)."""
    return eval_F(prob, x_of_lambda(prob, lam), lam)


def _is_degenerate(prob: RatioQuadraticProblem) -> bool:
    return not secrecy_possible(prob.alpha, prob.beta, prob.mu) or prob.x_max <= 0.0


_DEGENERATE_SOLUTION = LambdaSolution(1.0, 0.0, SolverBranch.DEGENERATE)


def lambda_hat_closed_form(prob: RatioQuadraticProblem) -> LambdaSolution:
    """Closed-form root of pi and the matching maximizer.

    f rises up to the unconstrained peak 1/sqrt(a) and falls after it, so
    the maximizer is x_hat = min(x_max, 1/sqrt(a)) and the root of pi is
    f(x_hat): 1 plus the kernel's `af._af_excess` at consumed power mu*x_max
    or `af_saturation_budget`, which forms neither a nor a subnormal x_hat.
    Degenerate inputs (alpha <= beta, mu = 1, or an empty domain) collapse
    the bracket to a point; the ratio is then maximized trivially at x = 0
    with value 1.
    """
    if _is_degenerate(prob):
        return _DEGENERATE_SOLUTION
    alpha, beta, mu = prob.alpha, prob.beta, prob.mu
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # inf at beta == 0
        saturation_budget = af_saturation_budget(alpha, beta, mu)
        consumed = np.minimum(mu * prob.x_max, saturation_budget)
        lam = 1.0 + float(_af_excess(alpha, beta, mu, alpha - beta, mu - 1.0, consumed))
    if mu * prob.x_max <= saturation_budget:
        return LambdaSolution(lam, prob.x_max, SolverBranch.ENDPOINT)
    return LambdaSolution(lam, float(saturation_budget) / mu, SolverBranch.INTERIOR)


def lambda_hat_bisection(prob: RatioQuadraticProblem) -> LambdaSolution:
    """Bisection on pi over the bracket [1, 1 + k], down to adjacent floats.

    pi is decreasing, positive at 1 and negative at 1 + k (module
    docstring), so the bisection keeps pi(lo) > 0 >= pi(hi) without
    evaluating either end. The top is 1 + k rounded up, so that t >= k and
    x(lambda) = 0 there in floats too. It stops when no float lies strictly
    between lo and hi and returns lo, the last lambda where pi > 0: within
    one ulp of the root, so |pi(lambda_hat)| is about den(x)*ulp at most.
    Where k is below half an ulp of 1, no float lies between 1 and the top,
    and the bisection returns 1.
    """
    if _is_degenerate(prob):
        return _DEGENERATE_SOLUTION
    lo, hi = 1.0, math.nextafter(1.0 + _excess_bound(prob), math.inf)
    # The midpoint rounds to an end only when no float lies between them.
    while (mid := lo + 0.5 * (hi - lo)) != lo and mid != hi:
        if pi_of_lambda(prob, mid) > 0.0:
            lo = mid
        else:
            hi = mid
    x_hat = x_of_lambda(prob, lo)
    branch = SolverBranch.ENDPOINT if x_hat == prob.x_max else SolverBranch.INTERIOR
    return LambdaSolution(lo, x_hat, branch)


def _grid_point(x_max: float, n: int, k: int) -> float:
    """`np.linspace(0.0, x_max, n)[k]` bit for bit, without the array: `k*step`,
    or `(k/(n-1))*x_max` where `step` underflows to 0 (numpy's gh-5437
    branch), and `x_max` itself as the last point."""
    if k == n - 1:
        return float(x_max)
    step = x_max / (n - 1)
    return k * step if step != 0.0 else k / (n - 1) * x_max


def maximize_on_interval(fun, x_max: float, n_points: int = 1_000_000,
                         refine_tol: float = 1e-12) -> tuple[float, float]:
    """Grid scan of `fun` over [0, x_max] refined by golden-section search.

    `fun` must accept a numpy array and evaluate elementwise. It may write
    its values over its argument: the grid is not read after the scan, and
    the grid points the search needs are recomputed by `_grid_point`. So a
    scan holds one full-size array. Ties resolve to the smallest x (first
    grid argmax; the section search keeps the left side on equal values).
    Each section step evaluates `fun` once: the surviving interior point
    keeps its value. The search stops once the bracket is within
    `refine_tol`, or when a step leaves it unshrunk: where float spacing
    exceeds `refine_tol` (above x = 8192 for 1e-12) the bracket cannot get
    that narrow. Deliberately brute force: this is the oracle the analytic
    solvers are checked against.
    """
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    if x_max < 0:
        raise ValueError("x_max must be nonnegative")
    if x_max == 0.0:
        return 0.0, float(np.asarray(fun(np.zeros(1)))[0])
    vals = np.asarray(fun(np.linspace(0.0, x_max, n_points)), dtype=float)
    i = int(np.argmax(vals))
    lo = _grid_point(x_max, n_points, i - 1) if i > 0 else 0.0
    hi = _grid_point(x_max, n_points, i + 1) if i + 1 < n_points else x_max

    def _scalar(x: float) -> float:
        return float(fun(np.array(x)))

    # fc/fd is None where that interior point has yet to be evaluated.
    c = d = fc = fd = None
    while hi - lo > refine_tol:
        span = hi - lo
        if fc is None:
            c = hi - span * _INV_GOLDEN
            fc = _scalar(c)
        if fd is None:
            d = lo + span * _INV_GOLDEN
            fd = _scalar(d)
        if fc >= fd:
            hi, d, fd, fc = d, c, fc, None
        else:
            lo, c, fc, fd = c, d, fd, None
        if not hi - lo < span:
            break  # float spacing, not refine_tol, bounds the bracket here
    x_star = 0.5 * lo + 0.5 * hi  # lo + hi overflows near x_max = MAX
    f_star = _scalar(x_star)
    # Keep the grid point only when refinement made things strictly worse
    # (impossible for a unimodal objective, cheap insurance otherwise). On a
    # flat objective the left-biased section search already lands at the
    # smallest x up to refine_tol.
    if vals[i] > f_star:
        return _grid_point(x_max, n_points, i), float(vals[i])
    return float(x_star), f_star


def grid_oracle(prob: RatioQuadraticProblem, n_points: int = 1_000_000) -> tuple[float, float]:
    """Brute-force (argmax, max) of f over [0, x_max]."""
    return maximize_on_interval(lambda xs: eval_f(prob, xs, out=xs), prob.x_max, n_points)
