"""Command-line front end: point computations, sweeps, fading Monte Carlo, verification.

Exit codes: 0 success, 1 usage error, 2 verification failure. Powers are
linear watts unless `--db` converts them from dBW. CSV output uses `.` as the
decimal point, comma separators, `\\n` newlines, and shortest round-trip float
formatting regardless of locale.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .af import af_batch, af_secrecy_capacity
from .channel import (
    ChannelRealization,
    DerivedParams,
    PowerBudget,
    Strategy,
    db_to_linear,
    derive_params,
    surrogate_channel,
)
from .converse import genie_upper_bound
from .df import df_batch, df_secrecy_capacity
from .fractional import RatioQuadraticProblem, lambda_hat_closed_form
from .montecarlo import EnsembleConfig, ergodic_sweep
from .verify import DEFAULT_SEED, run_all

__all__ = ["main", "console_entry"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2

# Most budget points one `sweep` or `montecarlo` run evaluates (for
# `montecarlo`, curves x budgets per curve); bounds its run time and memory.
MAX_SWEEP_POINTS = 100_000

_SOLVERS = {Strategy.AF: af_secrecy_capacity, Strategy.DF: df_secrecy_capacity}
_KERNELS = {Strategy.AF: af_batch, Strategy.DF: df_batch}

_SEED_ENV = "SECRELAY_SEED"
_FAULT_ENV = "SECRELAY_FAULT_INJECT"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; the contract here is 1.
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _fmt(value) -> str:
    if isinstance(value, Strategy):
        return value.value
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write output file {path!r}: {exc.strerror or exc}") from exc


def _csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise _UsageError(f"bad complex value {text!r}: {exc}") from exc
    raise _UsageError(f"bad complex value {text!r}; expected RE or RE,IM")


def _default_seed() -> int:
    env = os.environ.get(_SEED_ENV)
    if env is None:
        return DEFAULT_SEED
    try:
        return int(env)
    except ValueError as exc:
        raise _UsageError(f"{_SEED_ENV} must be an integer, got {env!r}") from exc


def _build_inputs(args) -> tuple[ChannelRealization, DerivedParams, PowerBudget]:
    direct = [args.alpha, args.beta, args.mu]
    gains = [args.hr, args.hd, args.he, args.ps]
    if any(v is not None for v in direct) and any(v is not None for v in gains):
        raise _UsageError("give either --alpha/--beta/--mu or --hr/--hd/--he/--ps, not both")
    p_r = db_to_linear(args.pr) if args.db else args.pr
    if any(v is not None for v in direct):
        if any(v is None for v in direct):
            raise _UsageError("--alpha, --beta and --mu must be given together")
        params = DerivedParams(args.alpha, args.beta, args.mu)
        return surrogate_channel(params), params, PowerBudget(params.mu - 1.0, p_r)
    if any(v is None for v in gains):
        raise _UsageError("--hr, --hd, --he and --ps must be given together")
    p_s = db_to_linear(args.ps) if args.db else args.ps
    ch = ChannelRealization(_parse_complex(args.hr), _parse_complex(args.hd), _parse_complex(args.he))
    pb = PowerBudget(p_s, p_r)
    return ch, derive_params(ch, pb), pb


def _cmd_compute(args) -> int:
    ch, params, pb = _build_inputs(args)
    strategy = Strategy(args.strategy)
    result = _SOLVERS[strategy](params, pb)
    lines = [
        f"strategy        {strategy.value}",
        f"alpha           {_fmt(params.alpha)}",
        f"beta            {_fmt(params.beta)}",
        f"mu              {_fmt(params.mu)}",
        f"p_r             {_fmt(pb.p_r)} W",
        f"capacity        {_fmt(result.capacity)} bits/channel use",
        f"x_hat           {_fmt(result.x_hat)}",
        f"consumed_power  {_fmt(result.consumed_power)} W",
    ]
    if strategy is Strategy.AF:
        bound = genie_upper_bound(ch, params, pb)
        sol = lambda_hat_closed_form(
            RatioQuadraticProblem(params.alpha, params.beta, params.mu, pb.p_r / params.mu)
        )
        lines.append(f"genie_bound     {_fmt(bound.bound_value)} bits/channel use")
        lines.append(f"solver_branch   {sol.branch.value}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    for flag in ("pr_start", "pr_stop", "pr_step"):
        if not math.isfinite(getattr(args, flag)):
            raise _UsageError(f"--{flag.replace('_', '-')} must be finite")
    if args.pr_step <= 0:
        raise _UsageError("--pr-step must be positive")
    if args.pr_stop < args.pr_start:
        raise _UsageError("--pr-stop must not be below --pr-start")
    params = DerivedParams(args.alpha, args.beta, args.mu)
    # The span can overflow to inf; the comparison rejects that too.
    steps = (args.pr_stop - args.pr_start) / args.pr_step + 1e-9
    if not steps < MAX_SWEEP_POINTS:
        raise _UsageError(f"the budget grid would exceed {MAX_SWEEP_POINTS} points; "
                          "raise --pr-step or narrow --pr-start..--pr-stop")
    count = int(math.floor(steps)) + 1
    grid = [args.pr_start + i * args.pr_step for i in range(count)]
    budgets = [db_to_linear(p) for p in grid] if args.db else grid
    # Every budget is finite, so the smallest is the one PowerBudget can reject.
    PowerBudget(params.mu - 1.0, min(budgets))
    strategies = (
        [Strategy.AF, Strategy.DF] if args.strategy == "both" else [Strategy(args.strategy)]
    )
    rows = []
    for strategy in strategies:
        # One kernel call over every budget; each lane is the scalar
        # function's value at that budget, bit for bit.
        capacity, consumed = _KERNELS[strategy](params.alpha, params.beta, params.mu,
                                                np.array(budgets))
        x_hat = consumed / params.mu if strategy is Strategy.AF else consumed
        rows.extend([strategy, *values] for values in zip(
            budgets, capacity.tolist(), x_hat.tolist(), consumed.tolist()))
    _write_text(args.out, _csv(["strategy", "p_r", "capacity", "x_hat", "consumed_power"], rows))
    return EXIT_OK


def _parse_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise _UsageError(f"{path}:{lineno}: expected key=value, got {raw.rstrip()!r}")
                key, value = line.split("=", 1)
                values[key.strip()] = value.strip()
    except OSError as exc:
        raise _UsageError(f"cannot read config file {path!r}: {exc}") from exc
    return values


_MC_KEYS = {
    "var_hr": float,
    "var_hd": str,
    "var_he": float,
    "p_s_dbw": float,
    "pr_start": float,
    "pr_stop": float,
    "pr_points": int,
    "n_samples": int,
    "seed": int,
    "strategies": str,
}

_MC_DEFAULTS = {
    "var_hr": 1.0,
    "var_hd": "1,2,4,8",
    "var_he": 1.0,
    "p_s_dbw": 10.0,
    "pr_start": 0.0,
    "pr_stop": 20.0,
    "pr_points": 41,
    "n_samples": 100_000,
    "seed": None,  # filled from --seed/env/default
    "strategies": "af,df",
}


def _parse_strategies(text: str) -> tuple[Strategy, ...]:
    try:
        return tuple(Strategy(tok.strip()) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise _UsageError(f"bad strategies {text!r}; expected comma list of af,df") from exc


def _cmd_montecarlo(args) -> int:
    settings = dict(_MC_DEFAULTS)
    if args.config is not None:
        for key, value in _parse_config_file(args.config).items():
            if key not in _MC_KEYS:
                raise _UsageError(f"unknown config key {key!r}")
            try:
                settings[key] = _MC_KEYS[key](value)
            except ValueError as exc:
                raise _UsageError(f"bad value for {key!r}: {value!r}") from exc
    for key in _MC_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            settings[key] = flag
    if settings["seed"] is None:
        settings["seed"] = _default_seed()
    try:
        var_hd_list = [float(tok) for tok in str(settings["var_hd"]).split(",") if tok.strip()]
    except ValueError as exc:
        raise _UsageError(f"bad var_hd list {settings['var_hd']!r}") from exc
    if not var_hd_list:
        raise _UsageError("var_hd list must not be empty")
    if not 1 <= settings["pr_points"] <= MAX_SWEEP_POINTS:
        raise _UsageError(f"pr_points must be between 1 and {MAX_SWEEP_POINTS}")
    if len(var_hd_list) * settings["pr_points"] > MAX_SWEEP_POINTS:
        raise _UsageError(f"{len(var_hd_list)} var_hd curves x {settings['pr_points']} pr_points "
                          f"exceed {MAX_SWEEP_POINTS} budget points per run")
    grid = tuple(np.linspace(settings["pr_start"], settings["pr_stop"], settings["pr_points"]))
    strategies = _parse_strategies(str(settings["strategies"]))
    cfgs = [
        EnsembleConfig(
            var_hr=settings["var_hr"],
            var_hd=var_hd,
            var_he=settings["var_he"],
            p_s_dbw=settings["p_s_dbw"],
            p_r_grid=grid,
            n_samples=settings["n_samples"],
            seed=settings["seed"],
            strategies=strategies,
        )
        for var_hd in var_hd_list
    ]
    rows = []
    for rec in ergodic_sweep(*cfgs):
        if args.pr_axis == "db":
            p_col = 10.0 * math.log10(rec.p_r) if rec.p_r > 0 else -math.inf
        else:
            p_col = rec.p_r
        rows.append(
            [
                rec.strategy,
                rec.var_hd,
                p_col,
                rec.mean_capacity,
                rec.stderr_capacity,
                rec.mean_consumed_power,
                rec.stderr_consumed_power,
                rec.n_samples,
                rec.seed,
            ]
        )
    header = [
        "strategy",
        "sigma2_hd",
        "p_r",
        "mean_capacity",
        "stderr_capacity",
        "mean_consumed_power",
        "stderr_consumed_power",
        "n_samples",
        "seed",
    ]
    _write_text(args.out, _csv(header, rows))
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.draws < 1:
        raise _UsageError("--draws must be at least 1")
    seed = args.seed if args.seed is not None else _default_seed()
    fault = bool(os.environ.get(_FAULT_ENV))
    results = run_all(draws=args.draws, seed=seed, fault_inject=fault)
    lines = [f"seed   {seed}", f"draws  {args.draws}"]
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        lines.append(f"{status}  {res.name:<20} {res.summary()}")
    ok = all(res.passed for res in results)
    lines.append(f"RESULT: {'PASS' if ok else 'FAIL'} ({sum(r.passed for r in results)}/{len(results)} suites)")
    _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK if ok else EXIT_VERIFY


def _build_parser() -> _Parser:
    parser = _Parser(prog="secrelay", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="single-point secrecy capacity")
    compute.add_argument("--strategy", choices=["af", "df"], required=True)
    compute.add_argument("--alpha", type=float)
    compute.add_argument("--beta", type=float)
    compute.add_argument("--mu", type=float)
    compute.add_argument("--hr", help="source->relay gain, RE or RE,IM")
    compute.add_argument("--hd", help="relay->destination gain")
    compute.add_argument("--he", help="relay->eavesdropper gain")
    compute.add_argument("--ps", type=float, help="source power (W, or dBW with --db)")
    compute.add_argument("--pr", type=float, required=True, help="relay peak power")
    compute.add_argument("--db", action="store_true", help="powers given in dBW")
    compute.add_argument("--out", help="output path (default stdout)")
    compute.set_defaults(func=_cmd_compute)

    sweep = sub.add_parser(
        "sweep", help=f"capacity vs budget for a fixed channel, at most {MAX_SWEEP_POINTS} budgets")
    sweep.add_argument("--strategy", choices=["af", "df", "both"], default="both")
    sweep.add_argument("--alpha", type=float, required=True)
    sweep.add_argument("--beta", type=float, required=True)
    sweep.add_argument("--mu", type=float, required=True)
    sweep.add_argument("--pr-start", type=float, default=0.0)
    sweep.add_argument("--pr-stop", type=float, required=True)
    sweep.add_argument("--pr-step", type=float, required=True)
    sweep.add_argument("--db", action="store_true", help="budget flags given in dBW")
    sweep.add_argument("--out", help="output path (default stdout)")
    sweep.set_defaults(func=_cmd_sweep)

    mc = sub.add_parser("montecarlo", help="ergodic sweeps over Rayleigh fading")
    mc.add_argument("--config", help="key=value config file ('#' comments)")
    mc.add_argument("--var-hr", dest="var_hr", type=float)
    mc.add_argument("--var-hd", dest="var_hd",
                    help="comma list of variances, one curve each; curves x --pr-points "
                         f"at most {MAX_SWEEP_POINTS}")
    mc.add_argument("--var-he", dest="var_he", type=float)
    mc.add_argument("--ps-dbw", dest="p_s_dbw", type=float)
    mc.add_argument("--pr-start", dest="pr_start", type=float)
    mc.add_argument("--pr-stop", dest="pr_stop", type=float)
    mc.add_argument("--pr-points", dest="pr_points", type=int,
                    help=f"budgets per curve, at most {MAX_SWEEP_POINTS}")
    mc.add_argument("--n-samples", dest="n_samples", type=int)
    mc.add_argument("--seed", dest="seed", type=int)
    mc.add_argument("--strategies", dest="strategies")
    mc.add_argument("--pr-axis", choices=["w", "db"], default="w",
                    help="emit the budget column in watts or dBW")
    mc.add_argument("--out", help="output path (default stdout)")
    mc.set_defaults(func=_cmd_montecarlo)

    verify = sub.add_parser("verify", help="run the oracle/invariant suites")
    verify.add_argument("--draws", type=int, default=1000)
    verify.add_argument("--seed", type=int)
    verify.add_argument("--out", help="output path (default stdout)")
    verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_entry() -> None:
    sys.exit(main())
