"""Tests of the benchmark's own statistics. Run: python -m pytest perfbench"""

import pytest

from spans import Tracer
from stats import (Tally, covered, nearest_rank, quartile_spread, self_times,
                   tail_percentile)


def test_percentile_needs_ten_samples_beyond():
    assert tail_percentile(list(range(99)), 90) is None      # 9 samples beyond
    assert tail_percentile(list(range(100)), 90) == 89       # 10 beyond
    assert tail_percentile(list(range(39)), 75) is None      # 9 beyond
    assert tail_percentile(list(range(40)), 75) == 29        # 10 beyond


def test_nearest_rank_counts_samples_above_the_rank():
    value, beyond = nearest_rank([5.0, 1.0, 3.0, 2.0, 4.0], 50)
    assert (value, beyond) == (3.0, 2)
    with pytest.raises(ValueError):
        nearest_rank([], 50)


def test_self_time_subtracts_only_covered_intervals():
    # parent 0..10; children overlap each other and one runs past the parent
    assert covered((0.0, 10.0), [(1.0, 3.0), (2.0, 4.0), (9.0, 12.0)]) == 4.0
    spans = [(0.0, 10.0, -1), (1.0, 3.0, 0), (2.0, 4.0, 0), (9.0, 12.0, 0),
             (1.5, 2.5, 1)]
    got = self_times(spans)
    assert got[0] == pytest.approx(6.0)
    # a grandchild is subtracted from its parent, not again from the root
    assert got[1] == pytest.approx(1.0)
    assert got[4] == pytest.approx(1.0)


def test_self_time_ignores_gaps_between_children():
    got = self_times([(0.0, 5.0, -1), (1.0, 2.0, 0), (3.0, 4.0, 0)])
    assert got[0] == pytest.approx(3.0)


def test_tracer_records_parents_and_ops():
    tr = Tracer("t")

    def leaf():
        return 1

    inner = tr.wrap("inner", leaf)
    outer = tr.wrap("outer", lambda: inner() + inner())
    tr.next_op()
    assert outer() == 2
    assert tr.names == ["outer", "inner", "inner"]
    assert tr.parents == [-1, 0, 0]
    assert tr.ops == [0, 0, 0]
    selfs = tr.self_times()
    assert all(s >= 0.0 for s in selfs)
    assert selfs[0] <= tr.ends[0] - tr.starts[0]


def test_attempted_and_failed_add_up():
    t = Tally()
    for ok in (True, False, True, True, False):
        t.record(ok)
    assert (t.attempted, t.failed) == (5, 2)
    t.check(timed=3)
    with pytest.raises(ValueError):
        t.check(timed=4)
    t.failed = 6
    with pytest.raises(ValueError):
        t.check(timed=-1)


def test_quartile_spread():
    assert quartile_spread([10.0] * 10) == 0.0
    assert quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0 / 3.0)
