"""Command-line front end: point computations, sweeps, fading Monte Carlo, verification.

Exit codes: 0 success, 1 usage error, 2 verification failure. Powers are
linear watts unless `--db` converts them from dBW. CSV output uses `.` as the
decimal point, comma separators, `\\n` newlines, and shortest round-trip float
formatting regardless of locale.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import operator
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
from .montecarlo import EnsembleConfig, SweepRecord, ergodic_sweep
from .verify import DEFAULT_SEED, run_all

__all__ = ["main", "console_entry"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2

# Most budget points one `sweep` or `montecarlo` run evaluates (for
# `montecarlo`, curves x budgets per curve); bounds its run time and memory.
MAX_SWEEP_POINTS = 100_000
# Most draws one `verify` run takes: each suite draws its parameters for all
# of them at once, so this bounds its memory (32 MB at the limit).
MAX_VERIFY_DRAWS = 1_000_000
# Most samples one `montecarlo` run draws per curve: about half an hour at
# the default 4 curves x 41 budgets, so a typo cannot start a months-long run.
MAX_SAMPLES = 10**9
# Most sample points (samples x curves x budgets per curve) one `montecarlo`
# run evaluates: what MAX_SAMPLES allows at those defaults.
MAX_SAMPLE_POINTS = MAX_SAMPLES * 4 * 41

# Per strategy: its scalar solver (`compute`) and its batch kernel (`sweep`).
_STRATEGIES = {
    Strategy.AF: (af_secrecy_capacity, af_batch),
    Strategy.DF: (df_secrecy_capacity, df_batch),
}

_SEED_ENV = "SECRELAY_SEED"


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


def _seed(text: str) -> int:
    """A seed from `--seed`, the `seed` config key or SECRELAY_SEED: one
    unsigned 64-bit integer, the range EnsembleConfig also checks."""
    try:
        if 0 <= (seed := int(text)) < 2**64:
            return seed
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be an integer from 0 to 2**64-1, got {text!r}")


def _default_seed() -> int:
    env = os.environ.get(_SEED_ENV)
    if env is None:
        return DEFAULT_SEED
    try:
        return _seed(env)
    except argparse.ArgumentTypeError as exc:
        raise _UsageError(f"{_SEED_ENV} {exc}") from exc


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
    solver, _ = _STRATEGIES[strategy]
    result = solver(params, pb)
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
        _, kernel = _STRATEGIES[strategy]
        capacity, consumed = kernel(params.alpha, params.beta, params.mu, np.array(budgets))
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


def _floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise _UsageError(f"bad var_hd list {text!r}") from exc


def _strategies(text: str) -> tuple[Strategy, ...]:
    try:
        return tuple(Strategy(tok.strip()) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise _UsageError(f"bad strategies {text!r}; expected comma list of af,df") from exc


# Each `montecarlo` setting, by its config key (also its argparse dest):
# (flag, parser of a flag or config value, default, help). A flag beats the
# config file, which beats the default; the seed's default is _default_seed().
_MC_SETTINGS = {
    "var_hr": ("--var-hr", float, 1.0, None),
    "var_hd": ("--var-hd", _floats, (1.0, 2.0, 4.0, 8.0),
               "comma list of variances, one curve each; curves x --pr-points "
               f"at most {MAX_SWEEP_POINTS}"),
    "var_he": ("--var-he", float, 1.0, None),
    "p_s_dbw": ("--ps-dbw", float, 10.0, None),
    "pr_start": ("--pr-start", float, 0.0, None),
    "pr_stop": ("--pr-stop", float, 20.0, None),
    "pr_points": ("--pr-points", int, 41, f"budgets per curve, at most {MAX_SWEEP_POINTS}"),
    "n_samples": ("--n-samples", int, 100_000,
                  f"samples per curve, at most {MAX_SAMPLES}; samples x curves x "
                  f"--pr-points at most {MAX_SAMPLE_POINTS}"),
    "seed": ("--seed", _seed, None, None),
    "strategies": ("--strategies", _strategies, (Strategy.AF, Strategy.DF), None),
}

# One CSV row per record: SweepRecord's fields in declaration order, which
# the header below names (`sigma2_hd` for `var_hd`).
_record_row = operator.attrgetter(*(f.name for f in dataclasses.fields(SweepRecord)))


def _cmd_montecarlo(args) -> int:
    settings = {key: default for key, (_, _, default, _) in _MC_SETTINGS.items()}
    if args.config is not None:
        for key, value in _parse_config_file(args.config).items():
            if key not in _MC_SETTINGS:
                raise _UsageError(f"unknown config key {key!r}")
            try:
                settings[key] = _MC_SETTINGS[key][1](value)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise _UsageError(f"bad value for {key!r}: {value!r}") from exc
    for key in _MC_SETTINGS:
        flag = getattr(args, key)
        if flag is not None:
            settings[key] = flag
    if settings["seed"] is None:
        settings["seed"] = _default_seed()
    curves = len(settings["var_hd"])
    if not 1 <= settings["pr_points"] <= MAX_SWEEP_POINTS:
        raise _UsageError(f"pr_points must be between 1 and {MAX_SWEEP_POINTS}")
    if curves * settings["pr_points"] > MAX_SWEEP_POINTS:
        raise _UsageError(f"{curves} var_hd curves x {settings['pr_points']} pr_points "
                          f"exceed {MAX_SWEEP_POINTS} budget points per run")
    if settings["n_samples"] > MAX_SAMPLES:
        raise _UsageError(f"n_samples must be at most {MAX_SAMPLES}")
    if settings["n_samples"] * curves * settings["pr_points"] > MAX_SAMPLE_POINTS:
        raise _UsageError(f"{settings['n_samples']} n_samples x {curves} var_hd curves x "
                          f"{settings['pr_points']} pr_points exceed {MAX_SAMPLE_POINTS}")
    for key in ("pr_start", "pr_stop"):
        # Checked before np.linspace, which warns on a span that overflows.
        if not (math.isfinite(settings[key]) and settings[key] >= 0):
            raise _UsageError(f"{key} must be finite and nonnegative, got {settings[key]!r}")
    grid = np.linspace(*(settings.pop(key) for key in ("pr_start", "pr_stop", "pr_points")))
    cfg = EnsembleConfig(p_r_grid=tuple(grid), **settings)
    rows = [list(_record_row(rec)) for rec in ergodic_sweep(cfg)]
    if args.pr_axis == "db":
        for row in rows:
            row[2] = 10.0 * math.log10(row[2]) if row[2] > 0 else -math.inf
    header = ["strategy", "sigma2_hd", "p_r", "mean_capacity", "stderr_capacity",
              "mean_consumed_power", "stderr_consumed_power", "n_samples", "seed"]
    _write_text(args.out, _csv(header, rows))
    return EXIT_OK


def _cmd_verify(args) -> int:
    if not 1 <= args.draws <= MAX_VERIFY_DRAWS:
        raise _UsageError(f"--draws must be between 1 and {MAX_VERIFY_DRAWS}")
    seed = args.seed if args.seed is not None else _default_seed()
    results = run_all(draws=args.draws, seed=seed)
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
    for key, (flag, parse, _, help_text) in _MC_SETTINGS.items():
        mc.add_argument(flag, dest=key, type=parse, help=help_text)
    mc.add_argument("--pr-axis", choices=["w", "db"], default="w",
                    help="emit the budget column in watts or dBW")
    mc.add_argument("--out", help="output path (default stdout)")
    mc.set_defaults(func=_cmd_montecarlo)

    verify = sub.add_parser("verify", help="run the oracle/invariant suites")
    verify.add_argument("--draws", type=int, default=1000, help=f"at most {MAX_VERIFY_DRAWS}")
    verify.add_argument("--seed", type=_seed)
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
