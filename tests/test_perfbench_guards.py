"""The benchmark's traced guards, on one operation of each kind of workload.

A `--trace 1` run of `perfbench/run.py` fails when an operation's output
fails its check, when a declared span never fires, or when `certify`
evaluates a smaller grid or fewer draws than it asks for. These tests run
the same guards on one `certify` operation and one small Monte Carlo
operation, with the benchmark's own modules imported unchanged, so that a
change to the program that would trip them fails here first.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = {
    "certify": lambda workdir: workloads.Certify(1, workdir),
    # Two curves and five budgets: the figure sweep's shape, at a few
    # thousand samples.
    "montecarlo": lambda workdir: workloads.MonteCarlo(1, workdir, curves=(1, 2),
                                                       n_samples=4000, pr_points=5),
}


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_operation_passes_the_benchmark_guards(tmp_path, name):
    wl = WORKLOADS[name](tmp_path)
    tracer = tracing.Tracer()
    with tracer.installed():
        outcome = wl.operation(0)
    assert outcome.failed == 0
    assert wl.check([outcome.output]) == (0, [])
    totals = tracing.LayerTotals(tracer.spans)
    assert wl.trace_problems(totals) == []
    assert not set(wl.spans) - set(totals.calls), "declared spans never fired"
