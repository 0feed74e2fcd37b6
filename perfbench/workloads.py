"""The three benchmark workloads: inputs, operations and correctness checks.

Every input is generated from the workload seed; the program receives only
those inputs. Each workload runs in one process on one thread. An operation
is one `secrelay` CLI invocation (`mc_figure`, `mc_large`) or one set of
cross-checks on a batch of draws (`certify`). The caller times nothing
itself: each operation reports the wall time of its timed part, and the
checks run after the timed phase.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "secrelay" / "__init__.py").is_file():
    raise ImportError(f"secrelay sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from secrelay import af, channel, cli, converse, df, fractional  # noqa: E402

# Ensemble means of values that each satisfy a bound may cross it by the
# rounding of the summation.
MEAN_SLACK = 1e-12
# Monte Carlo means against the benchmark's own implementation on the same
# samples: the two agree to rounding (about 1e-15), so 1e-9 catches any
# change of formula while allowing a different evaluation order.
MC_REL_TOL = 1e-9
MC_ABS_TOL = 1e-12

MC_HEADER = ("strategy,sigma2_hd,p_r,mean_capacity,stderr_capacity,"
             "mean_consumed_power,stderr_consumed_power,n_samples,seed")


@dataclass
class Outcome:
    """Result of one timed operation."""

    items: int            # work units: sample points or draws
    wall_s: float         # wall time of the timed part only
    failed: int           # 1 if the operation raised or exited non-zero
    output: object        # handed to `check` after the timed phase


def _derived_seed(seed: int, i: int) -> int:
    return int(np.random.SeedSequence([seed, i]).generate_state(1, np.uint64)[0])


class MonteCarlo:
    """`secrelay montecarlo`, every operation on the same seeded ensemble."""

    item_name = "sample_points_per_s"
    spans = ("cli.main", "montecarlo.ergodic_sweep", "montecarlo.af_batch",
             "montecarlo.df_batch")

    def __init__(self, seed: int, workdir: Path, curves, n_samples: int, pr_points: int):
        self.seed = _derived_seed(seed, 0)
        self.workdir = workdir
        self.curves = tuple(float(v) for v in curves)
        self.n_samples = n_samples
        self.grid = np.linspace(0.0, 20.0, pr_points)
        self.argv = [
            "montecarlo", "--var-hr", "1", "--var-he", "1", "--ps-dbw", "10",
            "--var-hd", ",".join(repr(v) for v in self.curves),
            "--pr-start", "0", "--pr-stop", "20", "--pr-points", str(pr_points),
            "--n-samples", str(n_samples), "--strategies", "af,df", "--seed", str(self.seed),
        ]
        self.items = n_samples * pr_points * 2 * len(self.curves)
        self._ref = None

    def warmup(self) -> None:
        # A full-size run: the first one also grows the heap to its working size.
        cli.main(self.argv + ["--out", str(self.workdir / "warmup.csv")])

    def operation(self, i: int) -> Outcome:
        out = self.workdir / f"op{i}.csv"
        t0 = time.perf_counter()
        try:
            rc = cli.main(self.argv + ["--out", str(out)])
        except Exception as exc:  # an operation that raises counts as failed
            rc = repr(exc)
        wall = time.perf_counter() - t0
        return Outcome(self.items, wall, int(rc != 0), out if rc == 0 else None)

    def check(self, outputs) -> tuple[int, list[str]]:
        if self._ref is None:
            self._ref = self._reference()
        failed, problems = 0, []
        for path in outputs:
            if path is None:
                problems.append("an operation raised or exited non-zero")
                continue
            errs = self._check_csv(path.read_text(), self._ref)
            failed += bool(errs)
            problems += errs[:3]
        return failed, problems

    def _reference(self) -> dict:
        """Means and standard errors from the benchmark's own implementation.

        Same Rayleigh draw as the program (one (n, 6) standard-normal block
        from PCG64 in C order), but the capacities are computed as the
        secrecy rate at the optimal gain rather than by the program's
        branch formulas.
        """
        ref = {}
        z = np.random.default_rng(self.seed).standard_normal((self.n_samples, 6))
        p_s = 10.0  # --ps-dbw 10
        g_r = 0.5 * (z[:, 0] ** 2 + z[:, 1] ** 2)
        mu = 1.0 + p_s * g_r
        beta = 0.5 * (z[:, 4] ** 2 + z[:, 5] ** 2)
        for var_hd in self.curves:
            alpha = var_hd / 2.0 * (z[:, 2] ** 2 + z[:, 3] ** 2)
            pos = alpha > beta
            with np.errstate(divide="ignore", invalid="ignore"):
                x_peak = np.where(pos & (beta > 0), 1.0 / np.sqrt(alpha * beta * mu), np.inf)
                for p in self.grid:
                    x = np.where(pos, np.minimum(p / mu, x_peak), 0.0)
                    rate = (np.log2((1.0 + alpha * mu * x) / (1.0 + alpha * x))
                            - np.log2((1.0 + beta * mu * x) / (1.0 + beta * x)))
                    ref[("af", var_hd, p)] = (_mean_se(0.5 * rate), _mean_se(mu * x))
                    first_cut = np.log2(mu)
                    second_cut = np.log2((1.0 + alpha * p) / (1.0 + beta * p))
                    cap = np.where(pos, 0.5 * np.minimum(first_cut, second_cut), 0.0)
                    gain = np.where(pos, np.where(second_cut > first_cut,
                                                  (mu - 1.0) / (alpha - beta * mu), p), 0.0)
                    ref[("df", var_hd, p)] = (_mean_se(cap), _mean_se(gain))
        return ref

    def _check_csv(self, text: str, ref: dict) -> list[str]:
        lines = text.splitlines()
        if not lines or lines[0] != MC_HEADER:
            return [f"bad CSV header {lines[:1]!r}"]
        rows = [ln.split(",") for ln in lines[1:]]
        expected = len(self.curves) * 2 * len(self.grid)
        if len(rows) != expected:
            return [f"{len(rows)} CSV rows, expected {expected}"]
        errs = []
        caps = {}
        k = 0
        for var_hd in self.curves:
            for strategy in ("af", "df"):
                for p in self.grid:
                    row = rows[k]
                    k += 1
                    try:
                        vals = [float(v) for v in row[1:7]]
                        n, seed = int(row[7]), int(row[8])
                    except (ValueError, IndexError):
                        errs.append(f"unparsable row {row!r}")
                        continue
                    if row[0] != strategy or vals[0] != var_hd or vals[1] != p:
                        errs.append(f"row {row[:3]} out of place, expected {strategy},{var_hd},{p}")
                        continue
                    if not all(math.isfinite(v) for v in vals):
                        errs.append(f"non-finite value in {row!r}")
                        continue
                    if (n, seed) != (self.n_samples, self.seed):
                        errs.append(f"n_samples/seed {(n, seed)} in {row[:3]}")
                    cap, consumed = vals[2], vals[4]
                    if not 0.0 <= consumed <= p * (1.0 + MEAN_SLACK):
                        errs.append(f"consumed power {consumed!r} outside [0, {p}] in {row[:3]}")
                    caps[(strategy, var_hd, p)] = cap
                    (ref_c, ref_c_se), (ref_p, ref_p_se) = ref[(strategy, var_hd, p)]
                    for got, want, what in ((cap, ref_c, "mean_capacity"),
                                            (vals[3], ref_c_se, "stderr_capacity"),
                                            (consumed, ref_p, "mean_consumed_power"),
                                            (vals[5], ref_p_se, "stderr_consumed_power")):
                        if abs(got - want) > MC_REL_TOL * abs(want) + MC_ABS_TOL:
                            errs.append(f"{what} {got!r} vs reference {want!r} in {row[:3]}")
        for var_hd in self.curves:
            for p in self.grid:
                c_af, c_df = caps.get(("af", var_hd, p)), caps.get(("df", var_hd, p))
                if c_af is not None and c_df is not None and not 0.0 <= c_af <= c_df:
                    errs.append(f"C_AF={c_af!r}, C_DF={c_df!r} at sigma2_hd={var_hd}, p_r={p}")
        return errs

    def trace_problems(self, totals) -> list[str]:
        return []


def _mean_se(v: np.ndarray) -> tuple[float, float]:
    return float(np.mean(v)), float(np.std(v, ddof=1) / math.sqrt(v.size))


class Certify:
    """The cross-checks behind the closed-form capacity, on generated draws.

    One operation takes `draws` parameter draws, distributed as `secrelay
    verify` draws them, and for each derives the parameters from a channel
    and budget, then computes the closed-form AF and DF capacities, the
    brute-force grid oracle and the genie-aided upper bound (both at
    `verify`'s density of 200,001 points), the bisection solver beside the
    closed-form one, and the rate and bound at ten random (gain, noise
    correlation) pairs. Half of the draws have alpha > beta and half not, so
    every operation does the same work. The checks compare values with the
    tolerances `verify` gives them. The oracle's argmax is not checked: at a
    flat maximum double precision does not fix it to 1e-6.
    """

    item_name = "draws_per_s"
    draws = 40
    pairs = 10
    oracle_points = 200_001
    spans = ("fractional.grid_oracle", "fractional.eval_f", "fractional.maximize_on_interval",
             "converse.genie_upper_bound", "converse.bound_objective",
             "fractional.lambda_hat_bisection", "fractional.pi_of_lambda",
             "fractional.lambda_hat_closed_form", "af.af_secrecy_capacity",
             "df.df_secrecy_capacity", "channel.derive_params")

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.first = self._draws(0)

    def _draws(self, i: int) -> list:
        rng = np.random.default_rng(_derived_seed(self.seed, i))
        n, k = self.draws, self.pairs
        alpha = rng.exponential(1.0, n)
        beta = rng.exponential(1.0, n)
        mu = rng.uniform(1.0, 20.0, n)
        p_r = rng.uniform(0.0, 50.0, n)
        u = rng.uniform(0.0, 1.0, (n, k))
        radii = rng.uniform(0.0, 0.999, (n, k))
        angles = rng.uniform(0.0, 2.0 * math.pi, (n, k))
        # The first half of the draws has alpha > beta, the second half not.
        hi, lo = np.maximum(alpha, beta), np.minimum(alpha, beta)
        first = np.arange(n) < n // 2
        alpha, beta = np.where(first, hi, lo), np.where(first, lo, hi)
        out = []
        for j in range(n):
            a, b, m, p = float(alpha[j]), float(beta[j]), float(mu[j]), float(p_r[j])
            pairs = [(float(x), converse.NoiseCorrelation(r * complex(math.cos(t), math.sin(t))))
                     for x, r, t in zip(u[j] * (p / m), radii[j], angles[j])]
            # A unit source-relay gain and p_s = mu - 1 give this mu.
            out.append((channel.ChannelRealization(1.0, math.sqrt(a), math.sqrt(b)),
                        channel.PowerBudget(m - 1.0, p), pairs))
        return out

    def warmup(self) -> None:
        for draw in self._draws(10**6)[:: self.draws // 10]:
            _certify_draw(*draw, self.oracle_points)

    def operation(self, i: int) -> Outcome:
        draws = self.first if i == 0 else self._draws(i)
        outs, failed = [], 0
        t0 = time.perf_counter()
        for draw in draws:
            try:
                outs.append(_certify_draw(*draw, self.oracle_points))
            except Exception:  # a draw that raises fails the operation
                outs.append(None)
                failed = 1
        wall = time.perf_counter() - t0
        return Outcome(self.draws, wall, failed, (draws, outs))

    def check(self, outputs) -> tuple[int, list[str]]:
        failed, problems = 0, []
        for draws, outs in outputs:
            if None in outs:
                continue  # raised; already counted
            errs = []
            for (_, pb, _), out in zip(draws, outs):
                errs += _certify_problems(pb, out)
            failed += bool(errs)
            problems += errs[:3]
        return failed, problems

    def trace_problems(self, totals) -> list[str]:
        """Guard against a speed-up that comes from a smaller check: every
        grid of the oracle and the genie bound has the full density, and
        every draw is checked."""
        errs = []
        for name in ("fractional.eval_f", "converse.bound_objective"):
            sizes = totals.grid_sizes.get(name, set())
            if sizes != {self.oracle_points}:
                errs.append(f"{name} grid sizes {sorted(sizes)}, expected {self.oracle_points}")
        positive = self.draws // 2
        expect = {
            "fractional.grid_oracle": self.draws,
            "converse.genie_upper_bound": self.draws,
            "fractional.lambda_hat_bisection": positive,
            "converse.bound_objective (grid)": positive,
            "converse.bound_objective (scalar)": self.pairs * self.draws,
        }
        seen = dict(totals.calls)
        seen["converse.bound_objective (grid)"] = totals.grid_points.get(
            "converse.bound_objective", 0) // self.oracle_points
        seen["converse.bound_objective (scalar)"] = totals.scalar_calls.get(
            "converse.bound_objective", 0)
        for name, want in expect.items():
            if seen.get(name, 0) != want:
                errs.append(f"{name} called {seen.get(name, 0)} times, expected {want}")
        return errs


def _certify_draw(ch, pb, pairs, n_points):
    """One draw's cross-checks. Functions are looked up on their modules at
    call time so that the traced run sees them."""
    params = channel.derive_params(ch, pb)
    a, b, m = params.alpha, params.beta, params.mu
    cap = af.af_secrecy_capacity(params, pb).capacity
    cap_df = df.df_secrecy_capacity(params, pb).capacity
    prob = fractional.RatioQuadraticProblem(a, b, m, pb.p_r / m)
    _, f_star = fractional.grid_oracle(prob, n_points)
    bound = converse.genie_upper_bound(ch, params, pb, n_points=n_points).bound_value
    lams = None
    if a > b:
        lams = (fractional.lambda_hat_closed_form(prob).lambda_hat,
                fractional.lambda_hat_bisection(prob).lambda_hat)
    dominance = max(af.af_achievable_rate_at(params, pb, x)
                    - converse.bound_objective(ch, params, x, phi) for x, phi in pairs)
    return (a, b, m), cap, cap_df, f_star, bound, lams, dominance


def _certify_problems(pb, out) -> list[str]:
    """`verify`'s tolerances: oracle capacity 1e-6, genie bound 1e-9 and
    exactly 0 when alpha <= beta, solver agreement 1e-9, dominance 1e-9, DF
    at its min-cut value and not below AF 1e-12. Besides, lambda_hat is
    2**(2*C_AF) within 1e-9 relative."""
    (a, b, m), cap, cap_df, f_star, bound, lams, dominance = out
    where = f"at alpha={a!r}, beta={b!r}, mu={m!r}, p_r={pb.p_r!r}"
    errs = []
    if not all(math.isfinite(v) for v in (cap, cap_df, f_star, bound, dominance)):
        return [f"non-finite output {out!r} {where}"]
    if abs(cap - 0.5 * math.log2(f_star)) > 1e-6:
        errs.append(f"C_AF={cap!r} but grid oracle {0.5 * math.log2(f_star)!r} {where}")
    if abs(bound - cap) > 1e-9 or (a <= b and bound != 0.0):
        errs.append(f"C_AF={cap!r} but genie bound {bound!r} {where}")
    if lams is not None:
        if abs(lams[0] - lams[1]) > 1e-9:
            errs.append(f"lambda_hat closed form {lams[0]!r}, bisection {lams[1]!r} {where}")
        if abs(lams[0] - 2.0 ** (2.0 * cap)) > 1e-9 * lams[0]:
            errs.append(f"lambda_hat={lams[0]!r} but 2**(2*C_AF)={2.0 ** (2.0 * cap)!r} {where}")
    if dominance > 1e-9:
        errs.append(f"rate exceeds genie bound by {dominance!r} {where}")
    # DF is half the smaller of the two cuts, and 0 when alpha <= beta.
    cuts = min(math.log2(m), math.log2((1.0 + a * pb.p_r) / (1.0 + b * pb.p_r)))
    min_cut = 0.5 * cuts if a > b else 0.0
    if abs(cap_df - min_cut) > 1e-12 or not 0.0 <= cap <= cap_df + 1e-12:
        errs.append(f"C_AF={cap!r}, C_DF={cap_df!r}, half the min cut {min_cut!r} {where}")
    return errs


def make(name: str, seed: int, workdir: Path):
    if name == "mc_figure":
        return MonteCarlo(seed, workdir, curves=(1, 2, 4, 8), n_samples=100_000, pr_points=41)
    if name == "mc_large":
        return MonteCarlo(seed, workdir, curves=(1,), n_samples=2_000_000, pr_points=3)
    if name == "certify":
        return Certify(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
