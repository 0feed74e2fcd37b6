"""Maximization of a ratio of quadratics over the relay gain interval.

The AF secrecy objective reduces to

    f(x) = (a*x^2 + n1*x + 1) / (a*x^2 + d1*x + 1),
    a = alpha*beta*mu,  n1 = alpha*mu + beta,  d1 = alpha + beta*mu,

maximized over 0 <= x <= x_max. f is not concave, so the solver takes the
parametric route: search for lambda with

    pi(lambda) = max_x [num(x) - lambda*den(x)] = 0;

that root is the optimal ratio value and the inner argmax is the optimal
gain. For alpha > beta and mu > 1 the root is bracketed in
[1, n1/d1), the auxiliary quadratic F(x, lambda) is concave in x there, and
pi -- F at its constrained maximizer x(lambda) -- is continuous and
strictly decreasing, which yields a safe bisection
(`lambda_hat_bisection`). Its Newton polish on pi lands on f(x(lambda)),
Dinkelbach's update, since pi'(lambda) = -den(x(lambda)). The closed form
(`lambda_hat_closed_form`) is f at the maximizer min(x_max, 1/sqrt(a)),
the point where the bisection lands.
`grid_oracle` is an intentionally brute-force cross-check: a dense grid scan
refined by golden-section search, independent of the parametric machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

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

# Width of the lambda interval at which `lambda_hat_bisection` stops
# bisecting and starts its Newton polish.
_BISECTION_TOL = 1e-12


@dataclass(frozen=True, slots=True)
class RatioQuadraticProblem:
    """Coefficients (via alpha, beta, mu) and domain [0, x_max] of the ratio."""

    alpha: float
    beta: float
    mu: float
    x_max: float
    # Shared quadratic coefficient, and the numerator's and denominator's
    # linear coefficients, formed once from the four fields above.
    quad: float = field(init=False, repr=False, compare=False)
    num_lin: float = field(init=False, repr=False, compare=False)
    den_lin: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "mu", "x_max"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be nonnegative")
        if self.mu < 1:
            raise ValueError("mu must be at least 1")
        if self.x_max < 0:
            raise ValueError("x_max must be nonnegative")
        object.__setattr__(self, "quad", self.alpha * self.beta * self.mu)
        object.__setattr__(self, "num_lin", self.alpha * self.mu + self.beta)
        object.__setattr__(self, "den_lin", self.alpha + self.beta * self.mu)


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


def _blockwise(fun, x, out=None):
    """`fun(x)` for an elementwise `fun`, evaluated `_BLOCK` points at a time.

    A 1-D array longer than `_BLOCK` is cut into consecutive slices whose
    results fill `out`, so the temporaries of each slice stay in cache;
    every element gets the same operations as in one call, so the values
    are the same bit for bit. `out` is a fresh float array unless given; it
    may be `x` itself, since each slice is read before its result is
    written. Scalars and short arrays go to `fun` whole, their result copied
    into `out` if one is given.
    """
    if not isinstance(x, np.ndarray) or x.ndim != 1 or x.size <= _BLOCK:
        if out is None:
            return fun(x)
        out[...] = fun(x)
        return out
    if out is None:
        out = np.empty(x.shape)
    for start in range(0, x.size, _BLOCK):
        out[start:start + _BLOCK] = fun(x[start:start + _BLOCK])
    return out


def eval_f(prob: RatioQuadraticProblem, x, out=None):
    """Objective value f(x); accepts a scalar or a numpy array.

    As in numpy, `out` is an optional array for the result, which may be
    `x` itself. The denominator is >= 1 for x >= 0, so no clamping is
    needed.
    """
    a, n1, d1 = prob.quad, prob.num_lin, prob.den_lin

    def ratio(x):
        num = a * x * x + n1 * x + 1.0
        den = a * x * x + d1 * x + 1.0
        return num / den

    return _blockwise(ratio, x, out)


def eval_F(prob: RatioQuadraticProblem, x, lam: float):
    """Auxiliary quadratic F(x, lambda) = num(x) - lambda*den(x), for lambda > 0."""
    return (
        prob.quad * (1.0 - lam) * x * x
        + (prob.num_lin - lam * prob.den_lin) * x
        + (1.0 - lam)
    )


def _bracket_upper(prob: RatioQuadraticProblem) -> float:
    return prob.num_lin / prob.den_lin


def _check_lambda(prob: RatioQuadraticProblem, lam: float) -> None:
    # The optimum lies in the half-open bracket [1, n1/d1); the closed upper
    # endpoint is still a valid evaluation point (x=0 maximizes F there), and
    # admitting it keeps bisection free of special cases.
    if not (1.0 <= lam <= _bracket_upper(prob)):
        raise ValueError(
            f"lambda={lam!r} outside the root bracket [1, {_bracket_upper(prob)!r}]"
        )


def x_of_lambda(prob: RatioQuadraticProblem, lam: float) -> float:
    """Maximizer of F(., lambda) over [0, x_max].

    F is concave in x on the bracket; its unconstrained peak moves from
    beyond x_max down to 0 as lambda sweeps the bracket, so the constrained
    maximizer is x_max up to a threshold (where dF/dx at x_max is 0) and
    the interior stationary point after it.
    """
    _check_lambda(prob, lam)
    a, x = prob.quad, prob.x_max
    if lam <= (2.0 * a * x + prob.num_lin) / (2.0 * a * x + prob.den_lin):
        return x
    x_tilde = (lam * prob.den_lin - prob.num_lin) / (2.0 * a * (1.0 - lam))
    return min(max(x_tilde, 0.0), x)


def pi_of_lambda(prob: RatioQuadraticProblem, lam: float) -> float:
    """pi(lambda): F(., lambda) at its constrained maximizer x(lambda)."""
    return eval_F(prob, x_of_lambda(prob, lam), lam)


def _is_degenerate(prob: RatioQuadraticProblem) -> bool:
    return not secrecy_possible(prob.alpha, prob.beta, prob.mu) or prob.x_max <= 0.0


_DEGENERATE_SOLUTION = LambdaSolution(1.0, 0.0, SolverBranch.DEGENERATE)


def lambda_hat_closed_form(prob: RatioQuadraticProblem) -> LambdaSolution:
    """Closed-form root of pi and the matching maximizer.

    f rises up to the unconstrained peak 1/sqrt(quad) and falls after it, so
    the maximizer is x_hat = min(x_max, 1/sqrt(quad)) and the root of pi is
    f(x_hat). Degenerate inputs (alpha <= beta, mu = 1, or an empty domain)
    collapse the bracket to a point; the ratio is then maximized trivially at
    x = 0 with value 1.
    """
    if _is_degenerate(prob):
        return _DEGENERATE_SOLUTION
    x_crit = 1.0 / math.sqrt(prob.quad) if prob.quad > 0.0 else math.inf
    if prob.x_max <= x_crit:
        return LambdaSolution(eval_f(prob, prob.x_max), prob.x_max, SolverBranch.ENDPOINT)
    return LambdaSolution(eval_f(prob, x_crit), x_crit, SolverBranch.INTERIOR)


def lambda_hat_bisection(prob: RatioQuadraticProblem) -> LambdaSolution:
    """Bisection on pi over the bracket, finished with a few Newton steps.

    pi is strictly decreasing with a sign change across the bracket, so the
    root is unique; bisection narrows it to `_BISECTION_TOL` from the sign
    of pi alone. By the envelope theorem pi'(lambda) = -den(x(lambda)), so
    Newton's step lambda - pi/pi' lands on num/den = f(x(lambda)),
    Dinkelbach's update. That polish pushes the residual |pi(lambda)| down
    to rounding level even when the pi coefficients are large, where a bare
    1e-12 interval on lambda would not.
    """
    if _is_degenerate(prob):
        return _DEGENERATE_SOLUTION
    upper = _bracket_upper(prob)
    lo, hi = 1.0, upper
    f_lo = pi_of_lambda(prob, lo)
    f_hi = pi_of_lambda(prob, hi)
    # A bracket already within tolerance is not bisected, so it needs no sign
    # change: with mu within a few ulps of 1, n1/d1 rounds to 1 or just above
    # it, and pi at both ends is rounding noise.
    if hi - lo > _BISECTION_TOL and not (f_lo > 0.0 and f_hi < 0.0):
        raise RuntimeError(
            "pi does not change sign across the bracket; "
            f"pi({lo})={f_lo!r}, pi({hi})={f_hi!r}"
        )
    for _ in range(200):
        if hi - lo <= _BISECTION_TOL:
            break
        mid = 0.5 * (lo + hi)
        if pi_of_lambda(prob, mid) > 0.0:
            lo = mid
        else:
            hi = mid
    lam = 0.5 * (lo + hi)
    for _ in range(3):
        nxt = eval_f(prob, x_of_lambda(prob, lam))
        if not (1.0 <= nxt <= upper):
            break
        lam = nxt
    x_hat = x_of_lambda(prob, lam)
    branch = SolverBranch.ENDPOINT if x_hat == prob.x_max else SolverBranch.INTERIOR
    return LambdaSolution(lam, x_hat, branch)


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
        return float(np.asarray(fun(np.array([x])))[0])

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
    x_star = 0.5 * (lo + hi)
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
