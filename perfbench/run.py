"""Benchmark of the secrelay package: three workloads, end-to-end and per-layer.

Run one workload (the last stdout line is the JSON result):

    python3 perfbench/run.py --workload mc_figure --seed 1 --seconds 30 --trace 0

Run every workload, one after another, and print one row per workload
(exit status 1 if any correctness check fails):

    python3 perfbench/run.py --all --seed 1 --seconds 30 --trace 0

Workloads (the reason for each is in BENCHMARK.json):

- `mc_figure`: `secrelay montecarlo` at the README settings, 4 curves x 41
  budgets x AF+DF x 100k samples; one operation is one CLI invocation.
- `mc_large`: one curve, 2M samples, 3 budgets.
- `certify`: the grid oracle, genie bound, solver and DF cross-checks of
  `secrelay verify` on 40 generated draws, new draws per operation.

With `--trace 0` a run reports, measured with tracing off:

- `setup_s`: median of 9 fresh interpreters, spread over the run, of the
  time from process start to `import secrelay.cli` done and the
  workload's inputs generated;
- `items_per_s`: the median over operations of work units per second.
  The unit is the workload's: sample points (samples x budgets x
  strategies x curves) for the `mc_*` workloads, verified draws for
  `certify`;
- `op_p50_ms` and `op_tail_ms`: median and tail latency of one operation.
  The tail is the highest of p99/p90 with at least ten operations beyond
  it; with fewer than 100 operations in a run, as in every workload at
  the declared run length, it equals the median;
- `peak_rss_mib`: the process's `ru_maxrss` at the end of the timed phase.

With `--trace 1` a run times pairs of one untraced and one traced
operation on fixed inputs and reports the per-layer metrics listed in
`tracing.PER_LAYER`: counts per operation (which must repeat exactly),
per-call and per-point times, self times (a span minus its children) per
operation, and `trace.overhead_frac`,
the median over pairs of traced over untraced wall time, minus 1. A metric
of a layer the workload does not run reads 0. The traced run fails if a
span the workload declares never fired, or if `certify` evaluated fewer
grid points or draws than asked.

Checks run outside the timed region; an operation fails if it raises,
exits non-zero or fails its check. Scratch files go to `.bench_tmp/` in the
checkout and are removed at exit.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

from measure import median, tail_percentile

# One thread per workload process; set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# Inputs come from the benchmark alone.
for _var in ("SECRELAY_SEED", "SECRELAY_FAULT_INJECT"):
    os.environ.pop(_var, None)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mc_figure", "mc_large", "certify")
SETUP_PROBES = 9
CHILD_TIMEOUT_S = 170


def _setup_probe(name: str, seed: int) -> None:
    """Body of a fresh-interpreter probe: import and generate, then report."""
    import workloads

    workdir = _workdir(name)
    try:
        workloads.make(name, seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(repr(time.perf_counter()))


def _probe_setup(name: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter to its inputs being ready.

    `time.perf_counter` is the system-wide monotonic clock on Linux, so the
    child's reading can be compared with the parent's.
    """
    t0 = time.perf_counter()
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", name,
         "--seed", str(seed)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1]) - t0


def _workdir(name: str) -> Path:
    path = ROOT / ".bench_tmp" / f"{name}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _manifest(name: str, seed: int, seconds: float, trace: int) -> dict:
    import platform

    import numpy as np

    why = "unknown"
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        why = next(w["why"] for w in spec["workloads"] if w["name"] == name)
    except (OSError, ValueError, KeyError, StopIteration):
        pass
    return {
        "workload": name, "seed": seed, "why": why, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "cpu": _cpu_model(),
        "l2": _cache_size(2), "l3": _cache_size(3),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _cache_size(level: int) -> str:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            if (index / "level").read_text().strip() == str(level) \
                    and (index / "type").read_text().strip() in ("Unified", "Data"):
                return (index / "size").read_text().strip()
    except OSError:
        pass
    return "unknown"


def _latency(walls: list[float]):
    """(p50, tail, tail label) in seconds, by measure's rule."""
    p50 = median(walls)
    tail = tail_percentile(walls)
    if tail is None or tail[0] <= 50.0:
        return p50, p50, "p50, too few operations for a higher percentile"
    return p50, tail[1], f"p{tail[0]:g}"


def run_untraced(wl, seconds: float, probe) -> dict:
    """Run operations for `seconds` of wall time, then check their outputs.

    The SETUP_PROBES set-up probes (`probe()`, fresh processes) are spread
    evenly over the run, so that `setup_s` sees the same mix of host load
    as the other metrics; their time extends the run.
    """
    failed = 0
    rates, walls, outputs, setups = [], [], [], []
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        if len(setups) < SETUP_PROBES and \
                time.perf_counter() >= start + len(setups) * seconds / SETUP_PROBES:
            t0 = time.perf_counter()
            setups.append(probe())
            deadline += time.perf_counter() - t0
            continue
        b = wl.operation(i)
        i += 1
        rates.append(b.items / b.wall_s)
        walls.append(b.wall_s)
        failed += b.failed
        outputs.append(b.output)
    while len(setups) < SETUP_PROBES:
        setups.append(probe())
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    check_failed, problems = wl.check(outputs)
    p50, tail, label = _latency(walls)
    return {
        "attempted": len(walls), "failed": failed + check_failed, "problems": problems,
        "setup_s": median(setups), "item_name": wl.item_name, "items_per_s": median(rates),
        "op_p50_ms": p50 * 1e3, "op_tail_ms": tail * 1e3,
        "tail_label": label, "peak_rss_mib": peak_rss_mib,
    }


def run_traced(wl, seconds: float) -> dict:
    """Pairs of one untraced and one traced operation on the same inputs.

    The order within a pair alternates, so that a drift in host speed does
    not bias the overhead, which is the median over pairs of traced wall
    time over untraced wall time, minus 1.
    """
    import tracing

    ops = failed = 0
    ratios, per_op, problems = [], [], []
    deadline = time.perf_counter() + seconds
    while not ratios or time.perf_counter() < deadline:
        walls = {}
        for trace_on in (False, True) if len(ratios) % 2 == 0 else (True, False):
            tracer = tracing.Tracer()
            with tracer.installed() if trace_on else contextlib.nullcontext():
                b = wl.operation(0)
            ops += 1
            walls[trace_on] = b.wall_s
            n_failed, errs = wl.check([b.output])
            failed += b.failed + n_failed
            problems += errs
            if trace_on:
                totals = tracing.LayerTotals(tracer.spans)
                errs = wl.trace_problems(totals)
                missing = sorted(set(wl.spans) - set(totals.calls))
                if missing:
                    errs.append(f"declared spans never fired: {missing}")
                failed += bool(errs)
                problems += errs
                per_op.append(totals.metrics())
        ratios.append(walls[True] / walls[False])
    for name in tracing.COUNTS:
        seen = {m[name] for m in per_op}
        if len(seen) != 1:
            failed += 1
            problems.append(f"{name} differs between traced operations: {sorted(seen)}")
    metrics = {name: median(m[name] for m in per_op) for name in per_op[0]}
    metrics["trace.overhead_frac"] = median(ratios) - 1.0
    values = {name: metrics.get(name, 0.0) for name in tracing.PER_LAYER}
    return {"attempted": ops, "failed": failed, "problems": problems, "values": values}


END_TO_END_UNITS = {
    "setup_s": "s", "items_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
    "peak_rss_mib": "MiB",
}


def run_one(name: str, seed: int, seconds: float, trace: int) -> int:
    import tracing
    import workloads

    workdir = _workdir(name)
    try:
        wl = workloads.make(name, seed, workdir)
        try:
            wl.warmup()
        except Exception:  # the timed operations report the failure
            traceback.print_exc()
        if trace:
            res = run_traced(wl, seconds)
        else:
            res = run_untraced(wl, seconds, lambda: _probe_setup(name, seed))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print("# manifest " + json.dumps(_manifest(name, seed, seconds, trace)))
    for problem in res["problems"][:10]:
        print(f"# problem: {problem}")
    if trace:
        units = tracing.PER_LAYER
        metrics = {k: {"value": v, "unit": units[k]} for k, v in res["values"].items()}
        for k, v in res["values"].items():
            print(f"# {name} {k} = {v:.6g} {units[k]}")
    else:
        metrics = {k: {"value": res[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
        print("# " + _report_row(name, res))
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


def _report_row(name: str, res: dict) -> str:
    """One row with the metric names a reader of the paper's results uses."""
    parts = [f"setup_s={res['setup_s']:.4f} s",
             f"{res['item_name']}={res['items_per_s']:.6g} 1/s"]
    parts += [f"op_p50_ms={res['op_p50_ms']:.1f} ms",
              f"op_tail_ms={res['op_tail_ms']:.1f} ms ({res['tail_label']})"]
    parts += [f"peak_rss_mib={res['peak_rss_mib']:.1f} MiB",
              f"attempted={res['attempted']}", f"failed={res['failed']}"]
    return f"{name:<14} " + "  ".join(parts)


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    rows = []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 10 * seconds,
        )
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = None
        if proc.returncode != 0 or result is None or not result["correct"]:
            status = 1
            sys.stderr.write(proc.stderr)
        rows += [ln[2:] for ln in lines[:-1] if ln.startswith(f"# {name} ")]
        rows += [f"{name} {ln[2:]}" for ln in lines[:-1] if ln.startswith("# problem")]
        if trace and result is not None:
            rows.append(f"{name} correct={result['correct']} attempted={result['attempted']} "
                        f"failed={result['failed']}")
    print("\n".join(rows))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "secrelay" / "__init__.py").is_file():
        print(f"error: secrelay sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args.seed, args.seconds, args.trace)
    if args.workload is None:
        parser.error("give --workload or --all")
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
