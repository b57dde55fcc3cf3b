"""ChunkLedger: the per-chunk delivery fence for rebuilt pipelined rings."""

import numpy as np
import pytest

from repro.comm import ChunkLedger


@pytest.fixture
def bound():
    ledger = ChunkLedger()
    ledger.bind(key=((0, 1, 2), 2, 0), size=3)
    return ledger


def test_unacknowledged_until_every_rank_records(bound):
    bound.record(0, rank=0, owned=1, lanes="a")
    bound.record(0, rank=1, owned=2, lanes="b")
    assert not bound.acknowledged(0)
    bound.record(0, rank=2, owned=0, lanes="c")
    assert bound.acknowledged(0)
    assert bound.acknowledged_columns() == 1


def test_columns_fence_independently(bound):
    for rank in range(3):
        bound.record(0, rank, owned=rank, lanes=rank)
    bound.record(1, 0, owned=0, lanes="partial")
    assert bound.acknowledged(0)
    assert not bound.acknowledged(1)
    assert bound.acknowledged_columns() == 1


def test_recall_returns_rank_slice(bound):
    lanes = (np.arange(4.0), np.arange(3.0))
    bound.record(2, rank=1, owned=0, lanes=lanes)
    owned, recalled = bound.recall(2, rank=1)
    assert owned == 0
    assert recalled is lanes


def test_rebind_same_key_preserves_records(bound):
    bound.record(0, 0, owned=0, lanes="kept")
    bound.bind(key=((0, 1, 2), 2, 0), size=3)
    assert bound.recall(0, 0) == (0, "kept")


@pytest.mark.parametrize("key,size", [
    (((0, 2), 2, 0), 2),       # survivor topology shrank (executor died)
    (((0, 1, 2), 2, 1), 3),    # lineage recompute bumped the epoch
    (((0, 1, 2), 4, 0), 3),    # parallelism changed
])
def test_rebind_different_key_clears(bound, key, size):
    for rank in range(3):
        bound.record(0, rank, owned=rank, lanes=rank)
    assert bound.acknowledged(0)
    bound.bind(key=key, size=size)
    assert not bound.acknowledged(0)
    assert bound.acknowledged_columns() == 0


def test_empty_ledger_acknowledges_nothing():
    ledger = ChunkLedger()
    assert not ledger.acknowledged(0)
    assert ledger.acknowledged_columns() == 0
