"""Span tracing of secrelay's public functions, installed from outside.

The program is not edited: each traced function is replaced, for the
duration of a traced operation, by a timing wrapper at every attribute its
callers look up. `from .x import f` copies `f` into the importing module,
so patching `secrelay.fractional.eval_f` alone would miss the calls that
`verify` makes through its own global `eval_f`; likewise `ergodic_sweep`
reaches the batch kernels through `montecarlo._KERNELS`, not through the
module attributes. Spans are kept in memory as
`[name, start_ns, end_ns, parent_index, points]`, where `points` is the
element count of the array argument (0 for a scalar call).
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

import numpy as np

from measure import self_times

# span name -> (index of the argument whose size is the point count, or
# None; the (module, attribute) pairs its callers look up).
TARGETS = {
    "cli.main": (None, [("cli", "main")]),
    "channel.derive_params": (None, [("channel", "derive_params"), ("cli", "derive_params")]),
    "af.af_secrecy_capacity": (
        None, [("af", "af_secrecy_capacity"), ("verify", "af_secrecy_capacity"),
               ("cli", "af_secrecy_capacity")]),
    "df.df_secrecy_capacity": (
        None, [("df", "df_secrecy_capacity"), ("verify", "df_secrecy_capacity"),
               ("cli", "df_secrecy_capacity")]),
    "fractional.eval_f": (1, [("fractional", "eval_f"), ("verify", "eval_f")]),
    "fractional.grid_oracle": (None, [("fractional", "grid_oracle"), ("verify", "grid_oracle")]),
    "fractional.maximize_on_interval": (
        None, [("fractional", "maximize_on_interval"), ("converse", "maximize_on_interval")]),
    "fractional.lambda_hat_closed_form": (
        None, [("fractional", "lambda_hat_closed_form"), ("verify", "lambda_hat_closed_form"),
               ("cli", "lambda_hat_closed_form")]),
    "fractional.lambda_hat_bisection": (
        None, [("fractional", "lambda_hat_bisection"), ("verify", "lambda_hat_bisection")]),
    "fractional.pi_of_lambda": (None, [("fractional", "pi_of_lambda"), ("verify", "pi_of_lambda")]),
    "converse.genie_upper_bound": (
        None, [("converse", "genie_upper_bound"), ("verify", "genie_upper_bound"),
               ("cli", "genie_upper_bound")]),
    "converse.bound_objective": (
        2, [("converse", "bound_objective"), ("verify", "bound_objective")]),
    "montecarlo.ergodic_sweep": (None, [("montecarlo", "ergodic_sweep"), ("cli", "ergodic_sweep")]),
    "montecarlo.af_batch": (0, [("montecarlo", "af_batch")]),
    "montecarlo.df_batch": (0, [("montecarlo", "df_batch")]),
}

# Per-layer metrics and their units, in the order BENCHMARK.json lists
# them. A metric of a layer that the workload does not run reads 0.
PER_LAYER = {
    "fractional.eval_f.ns_per_point": "ns",
    "fractional.eval_f.points": "count",
    "fractional.grid_oracle.calls": "count",
    "fractional.grid_oracle.ms_per_call": "ms",
    "fractional.maximize_on_interval.self_ms": "ms",
    "converse.genie_upper_bound.calls": "count",
    "converse.genie_upper_bound.ms_per_call": "ms",
    "converse.bound_objective.ns_per_point": "ns",
    "converse.bound_objective.points": "count",
    "converse.bound_objective.scalar_us": "us",
    "fractional.lambda_hat_bisection.us_per_call": "us",
    "fractional.pi_of_lambda.calls": "count",
    "fractional.lambda_hat_closed_form.us_per_call": "us",
    "af.af_secrecy_capacity.us_per_call": "us",
    "df.df_secrecy_capacity.us_per_call": "us",
    "channel.derive_params.us_per_call": "us",
    "montecarlo.af_batch.ns_per_sample": "ns",
    "montecarlo.df_batch.ns_per_sample": "ns",
    "montecarlo.af_batch.calls": "count",
    "montecarlo.df_batch.calls": "count",
    "montecarlo.ergodic_sweep.calls": "count",
    "montecarlo.ergodic_sweep.self_ms": "ms",
    "cli.main.self_ms": "ms",
    "trace.overhead_frac": "ratio",
}

# Metrics that are exact counts per operation; they must repeat exactly.
COUNTS = tuple(m for m in PER_LAYER if m.endswith((".calls", ".points")))


def _points(x) -> int:
    return int(x.size) if isinstance(x, np.ndarray) else 0


class Tracer:
    """Records nested spans of wrapped calls on one thread."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, size_arg: int | None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            pts = _points(args[size_arg]) if size_arg is not None and len(args) > size_arg else 0
            rec = [name, 0, 0, stack[-1] if stack else -1, pts]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Install every wrapper for the duration of the block."""
        mc = importlib.import_module("secrelay.montecarlo")
        kernels = dict(mc._KERNELS)
        saved = []
        try:
            for name, (size_arg, sites) in TARGETS.items():
                for mod_name, attr in sites:
                    mod = importlib.import_module(f"secrelay.{mod_name}")
                    orig = getattr(mod, attr)
                    saved.append((mod, attr, orig))
                    setattr(mod, attr, self.wrap(name, orig, size_arg))
            for strategy, fn in kernels.items():
                mc._KERNELS[strategy] = self.wrap(f"montecarlo.{fn.__name__}", fn, 0)
            yield self
        finally:
            for mod, attr, orig in reversed(saved):
                setattr(mod, attr, orig)
            mc._KERNELS.update(kernels)


class LayerTotals:
    """Per-span-name totals of one traced operation.

    Calls whose array argument has more than one element are grid calls
    (`grid_*`); calls with a scalar argument are `scalar_*`. Size-1 array
    calls, the golden-section steps of the oracle, count in neither.
    """

    def __init__(self, spans) -> None:
        selfs = self_times([(s[1], s[2], s[3]) for s in spans])
        self.calls: dict[str, int] = {}
        self.ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.grid_points: dict[str, int] = {}
        self.grid_ns: dict[str, int] = {}
        self.grid_sizes: dict[str, set] = {}
        self.scalar_calls: dict[str, int] = {}
        self.scalar_ns: dict[str, int] = {}
        self.bisection_pi_calls = 0
        for (name, start, end, parent, pts), own in zip(spans, selfs):
            dur = end - start
            _add(self.calls, name, 1)
            _add(self.ns, name, dur)
            _add(self.self_ns, name, own)
            if pts > 1:
                _add(self.grid_points, name, pts)
                _add(self.grid_ns, name, dur)
                self.grid_sizes.setdefault(name, set()).add(pts)
            elif pts == 0:
                _add(self.scalar_calls, name, 1)
                _add(self.scalar_ns, name, dur)
            if name == "fractional.pi_of_lambda" and parent >= 0 \
                    and spans[parent][0] == "fractional.lambda_hat_bisection":
                self.bisection_pi_calls += 1

    def metrics(self) -> dict[str, float]:
        """The timed per-layer metrics and counts of PER_LAYER."""
        c = self.calls

        def per_call(name, scale):
            return self.ns.get(name, 0) / c[name] / scale if c.get(name) else 0.0

        def per_point(name, pts, ns_map):
            return ns_map.get(name, 0) / pts[name] if pts.get(name) else 0.0

        def grid_ns(name):
            return per_point(name, self.grid_points, self.grid_ns)

        def self_ms(name):
            return self.self_ns.get(name, 0) / 1e6

        return {
            "fractional.eval_f.ns_per_point": grid_ns("fractional.eval_f"),
            "fractional.eval_f.points": self.grid_points.get("fractional.eval_f", 0),
            "fractional.grid_oracle.calls": c.get("fractional.grid_oracle", 0),
            "fractional.grid_oracle.ms_per_call": per_call("fractional.grid_oracle", 1e6),
            "fractional.maximize_on_interval.self_ms": self_ms("fractional.maximize_on_interval"),
            "converse.genie_upper_bound.calls": c.get("converse.genie_upper_bound", 0),
            "converse.genie_upper_bound.ms_per_call": per_call("converse.genie_upper_bound", 1e6),
            "converse.bound_objective.ns_per_point": grid_ns("converse.bound_objective"),
            "converse.bound_objective.points": self.grid_points.get("converse.bound_objective", 0),
            "converse.bound_objective.scalar_us":
                per_point("converse.bound_objective", self.scalar_calls, self.scalar_ns) / 1e3,
            "fractional.lambda_hat_bisection.us_per_call":
                per_call("fractional.lambda_hat_bisection", 1e3),
            "fractional.pi_of_lambda.calls": self.bisection_pi_calls,
            "fractional.lambda_hat_closed_form.us_per_call":
                per_call("fractional.lambda_hat_closed_form", 1e3),
            "af.af_secrecy_capacity.us_per_call": per_call("af.af_secrecy_capacity", 1e3),
            "df.df_secrecy_capacity.us_per_call": per_call("df.df_secrecy_capacity", 1e3),
            "channel.derive_params.us_per_call": per_call("channel.derive_params", 1e3),
            "montecarlo.af_batch.ns_per_sample": grid_ns("montecarlo.af_batch"),
            "montecarlo.df_batch.ns_per_sample": grid_ns("montecarlo.df_batch"),
            "montecarlo.af_batch.calls": c.get("montecarlo.af_batch", 0),
            "montecarlo.df_batch.calls": c.get("montecarlo.df_batch", 0),
            "montecarlo.ergodic_sweep.calls": c.get("montecarlo.ergodic_sweep", 0),
            "montecarlo.ergodic_sweep.self_ms": self_ms("montecarlo.ergodic_sweep"),
            "cli.main.self_ms": self_ms("cli.main"),
        }


def _add(d: dict, key, value) -> None:
    d[key] = d.get(key, 0) + value
