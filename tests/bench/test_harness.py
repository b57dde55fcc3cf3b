"""Tests for harness utilities: breakdowns, tables, geomean."""

import pytest

from repro.bench import (
    BreakdownRecorder,
    TimeBreakdown,
    format_seconds,
    format_table,
    geomean,
)
from repro.cluster import ClusterConfig
from repro.rdd import SparkerContext


def test_breakdown_totals():
    b = TimeBreakdown(agg_compute=2.0, agg_reduce=3.0, driver=1.0,
                      non_agg=4.0)
    assert b.total == 10.0
    assert b.aggregation == 5.0
    assert b.agg_fraction == 0.5


def test_breakdown_zero_total():
    assert TimeBreakdown(0, 0, 0, 0).agg_fraction == 0.0


def test_recorder_brackets_aggregations():
    sc = SparkerContext(ClusterConfig.laptop())
    rdd = sc.parallelize(range(100), 8)
    recorder = BreakdownRecorder(sc)
    rdd.tree_aggregate(0, lambda a, x: a + x, lambda a, b: a + b)
    b = recorder.finish()
    assert b.agg_compute > 0
    assert b.agg_reduce > 0
    assert b.total == pytest.approx(
        b.agg_compute + b.agg_reduce + b.driver + b.non_agg)


def test_recorder_excludes_prior_activity():
    sc = SparkerContext(ClusterConfig.laptop())
    rdd = sc.parallelize(range(100), 8)
    rdd.tree_aggregate(0, lambda a, x: a + x, lambda a, b: a + b)
    recorder = BreakdownRecorder(sc)  # start *after* the first aggregation
    rdd.tree_aggregate(0, lambda a, x: a + x, lambda a, b: a + b)
    b = recorder.finish()
    # Only one aggregation's worth of time inside the bracket.
    assert b.total < sc.now


def test_geomean():
    assert geomean([2.0, 8.0]) == pytest.approx(4.0)
    assert geomean([3.0]) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        geomean([])
    with pytest.raises(ValueError):
        geomean([1.0, 0.0])


def test_format_seconds_scales():
    assert format_seconds(5e-7) == "0.50us"
    assert format_seconds(2.5e-3) == "2.50ms"
    assert format_seconds(3.2) == "3.20s"


def test_format_table_alignment():
    text = format_table(["A", "Wide header"], [(1, 2.5), ("xx", 1e-5)],
                        title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert lines[1] == "="
    assert "Wide header" in lines[2]
    # All rows padded to the same visual width structure.
    assert len(lines) == 6


def test_format_table_number_rendering():
    text = format_table(["x"], [(0.123456,), (1234.5,), (0.0,)])
    assert "0.123" in text
    assert "1.23e+03" in text or "1234" in text.replace(" ", "")
