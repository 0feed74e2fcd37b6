"""Pure arithmetic behind the benchmark's reported numbers.

Kept free of numpy and of the secrelay package so that it can be tested on
its own: self time of a span, the tail-percentile rule, and medians.
"""

from __future__ import annotations

import math
import statistics

# Percentiles considered for a tail latency, highest first.
TAIL_CANDIDATES = (99.0, 90.0, 50.0)
# A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def self_times(spans):
    """Self time of each span: its duration minus the union of its children.

    `spans` is a sequence of `(start, end, parent)` triples, where `parent`
    is the index of the enclosing span or -1. Child intervals are clipped
    to their parent, and overlapping children are counted once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (start, end, _) in enumerate(spans):
        covered = 0
        run_start = run_end = None
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= c_start:
                continue
            if run_end is None or c_start > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = c_start, c_end
            else:
                run_end = max(run_end, c_end)
        if run_end is not None:
            covered += run_end - run_start
        out.append((end - start) - covered)
    return out


def nearest_rank(sorted_samples, pct: float):
    """Nearest-rank percentile of an ascending sequence."""
    n = len(sorted_samples)
    rank = max(1, math.ceil(pct / 100.0 * n))
    return sorted_samples[rank - 1]


def tail_percentile(samples):
    """Highest percentile in TAIL_CANDIDATES with MIN_BEYOND samples beyond it.

    Returns `(percentile, value, n)`, or None when the samples are too few
    for any candidate (fewer than 20 for the median).
    """
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_CANDIDATES:
        if n - math.ceil(pct / 100.0 * n) >= MIN_BEYOND:
            return pct, nearest_rank(ordered, pct), n
    return None


def median(values):
    return statistics.median(values)
