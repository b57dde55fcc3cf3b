"""Tests for accumulators (exactly-once metric semantics)."""

import pytest


def test_accumulator_counts_elements(sc):
    acc = sc.accumulator(0, name="records")

    def count(x):
        acc.add(1)
        return x

    sc.parallelize(range(25), 5).map(count).collect()
    assert acc.value == 25



def test_accumulator_custom_monoid(sc):
    biggest = sc.accumulator(float("-inf"), add_op=max, name="max")

    def observe(x):
        biggest.add(float(x))
        return x

    sc.parallelize([3, 9, 1, 7], 2).map(observe).count()
    assert biggest.value == 9.0


def test_driver_side_add_is_immediate(sc):
    acc = sc.accumulator(0)
    acc.add(5)
    assert acc.value == 5


def test_failed_attempt_contributes_nothing(sc):
    """Exactly-once: a task that fails after adding must not leak its
    update; the retried attempt contributes once."""
    acc = sc.accumulator(0, name="adds")
    attempts = {"n": 0}

    def flaky(x):
        acc.add(1)
        attempts["n"] += 1
        if attempts["n"] == 1:
            raise RuntimeError("post-add failure")
        return x

    assert sc.parallelize([42], 1).map(flaky).collect() == [42]
    assert attempts["n"] == 2  # ran twice...
    assert acc.value == 1      # ...but counted once


def test_multiple_accumulators_independent(sc):
    evens = sc.accumulator(0)
    odds = sc.accumulator(0)

    def tally(x):
        (evens if x % 2 == 0 else odds).add(1)
        return x

    sc.parallelize(range(10), 4).map(tally).count()
    assert evens.value == 5
    assert odds.value == 5


def test_accumulator_not_readable_in_tasks(sc):
    acc = sc.accumulator(0)

    def peek(x):
        return acc.value  # reading inside a task must fail

    with pytest.raises(RuntimeError, match="inside a task"):
        sc.parallelize([1], 1).map(peek).collect()



def test_accumulator_updates_once_per_action(sc):
    acc = sc.accumulator(0)
    rdd = sc.parallelize(range(10), 2).map(
        lambda x: (acc.add(1), x)[1])
    rdd.count()
    rdd.count()  # uncached: recompute adds again (Spark-faithful gotcha)
    assert acc.value == 20


def test_accumulator_with_cached_rdd_counts_once(sc):
    acc = sc.accumulator(0)
    rdd = sc.parallelize(range(10), 2).map(
        lambda x: (acc.add(1), x)[1]).cache()
    rdd.count()
    rdd.count()  # cache hit: no recompute, no double counting
    assert acc.value == 10
