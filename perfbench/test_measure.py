"""Tests of the benchmark's own arithmetic: self time and the percentile rule.

Run with `python3 -m pytest perfbench`.
"""

import pytest

from measure import nearest_rank, self_times, tail_percentile


def test_self_time_without_children_is_duration():
    assert self_times([(10, 25, -1)]) == [15]


def test_self_time_subtracts_disjoint_children():
    spans = [(0, 100, -1), (10, 20, 0), (50, 80, 0)]
    assert self_times(spans) == [60, 10, 30]


def test_self_time_counts_overlapping_children_once():
    # Two children overlapping on [15, 20] cover [10, 30]: 20 units.
    spans = [(0, 100, -1), (10, 20, 0), (15, 30, 0)]
    assert self_times(spans)[0] == 80


def test_self_time_clips_children_to_parent():
    spans = [(10, 50, -1), (0, 20, 0), (40, 70, 0)]
    assert self_times(spans)[0] == 20


def test_self_time_ignores_grandchildren():
    # The grandchild lies inside the child, so only the child is subtracted
    # from the root, and the grandchild only from the child.
    spans = [(0, 100, -1), (10, 60, 0), (20, 30, 1)]
    assert self_times(spans) == [50, 40, 10]


def test_self_time_of_touching_children():
    spans = [(0, 10, -1), (0, 5, 0), (5, 10, 0)]
    assert self_times(spans)[0] == 0


def test_nearest_rank():
    data = list(range(1, 101))
    assert nearest_rank(data, 50) == 50
    assert nearest_rank(data, 99) == 99
    assert nearest_rank(data, 100) == 100


@pytest.mark.parametrize("n, pct", [
    (1000, 99.0),   # exactly 10 samples beyond p99
    (999, 90.0),    # 9 beyond p99, so fall back to p90
    (100, 90.0),
    (99, 50.0),     # 9 beyond p90
    (20, 50.0),     # exactly 10 beyond the median
])
def test_tail_rule_picks_highest_percentile_with_ten_beyond(n, pct):
    got = tail_percentile(list(range(n)))
    assert got is not None
    assert got[0] == pct
    assert got[2] == n
    beyond = sum(1 for v in range(n) if v > got[1])
    assert beyond >= 10


def test_tail_rule_reports_value_at_percentile():
    samples = [float(v) for v in range(1000, 0, -1)]  # unsorted input
    assert tail_percentile(samples) == (99.0, 990.0, 1000)


def test_tail_rule_needs_twenty_samples():
    assert tail_percentile(list(range(19))) is None
    assert tail_percentile([]) is None
