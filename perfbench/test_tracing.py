"""Tests of the tracer: wrappers sit where callers look functions up.

Run with `python3 -m pytest perfbench`.
"""

import numpy as np

import tracing
import workloads  # noqa: F401  (puts the secrelay sources on sys.path)
from secrelay import fractional, montecarlo, verify


def test_calls_through_imported_names_are_traced_and_restored():
    tracer = tracing.Tracer()
    with tracer.installed():
        verify.solver_vs_oracle(3, np.random.default_rng(0), n_points=1001)
    totals = tracing.LayerTotals(tracer.spans)
    assert totals.calls["fractional.grid_oracle"] == 3
    assert totals.calls["af.af_secrecy_capacity"] == 3
    assert totals.grid_sizes["fractional.eval_f"] == {1001}
    assert totals.grid_points["fractional.eval_f"] == 3 * 1001
    assert verify.grid_oracle is fractional.grid_oracle
    assert not hasattr(fractional.eval_f, "__wrapped__")


def test_kernel_table_is_traced_and_restored():
    kernels = dict(montecarlo._KERNELS)
    cfg = montecarlo.EnsembleConfig(p_r_grid=(0.0, 1.0), n_samples=50, seed=3)
    tracer = tracing.Tracer()
    with tracer.installed():
        montecarlo.ergodic_sweep(cfg)
    m = tracing.LayerTotals(tracer.spans).metrics()
    assert m["montecarlo.af_batch.calls"] == 2
    assert m["montecarlo.df_batch.calls"] == 2
    assert m["montecarlo.ergodic_sweep.calls"] == 1
    assert montecarlo._KERNELS == kernels


def test_parent_links_give_self_time():
    spans = [["outer", 0, 100, -1, 0], ["inner", 10, 40, 0, 5]]
    totals = tracing.LayerTotals(spans)
    assert totals.self_ns == {"outer": 70, "inner": 30}
    assert totals.grid_points == {"inner": 5}
