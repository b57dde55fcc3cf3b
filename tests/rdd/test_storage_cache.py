"""Caching, block tracking, and locality."""

from repro.rdd.storage import BlockTracker, MemoryStore


def test_cache_avoids_recompute(sc):
    calls = []

    def spy(x):
        calls.append(x)
        return x

    rdd = sc.parallelize(range(10), 2).map(spy).cache()
    rdd.count()
    first_pass = len(calls)
    rdd.count()
    assert len(calls) == first_pass  # second action hit the cache


def test_uncached_recomputes(sc):
    calls = []

    def spy(x):
        calls.append(x)
        return x

    rdd = sc.parallelize(range(10), 2).map(spy)
    rdd.count()
    rdd.count()
    assert len(calls) == 20


def test_cached_partitions_prefer_their_executor(sc):
    rdd = sc.parallelize(range(8), 4).cache()
    rdd.count()
    for index in range(4):
        holders = rdd.preferred_executors(index)
        assert len(holders) == 1
        executor = sc.executor_by_id(holders[0])
        assert executor.memory_store.contains((rdd.id, index))


def test_cache_uses_virtual_time(sc):
    rdd = sc.parallelize(range(100), 4).cache()
    rdd.count()
    t_cached = sc.now
    rdd.count()
    assert sc.now > t_cached  # actions still cost scheduling time


def test_derived_rdd_prefers_parent_location(sc):
    base = sc.parallelize(range(8), 4).cache()
    base.count()
    derived = base.map(lambda x: x + 1)
    for index in range(4):
        assert derived.preferred_executors(index) == \
            base.preferred_executors(index)


# ------------------------------------------------------------- MemoryStore
def test_memory_store_put_get():
    store = MemoryStore(executor_id=0, capacity_bytes=1e9)
    size = store.put((1, 0), [1, 2, 3])
    assert size > 0
    assert store.get((1, 0)) == [1, 2, 3]
    assert store._blocks[(1, 0)].sim_bytes == size
    assert store.contains((1, 0))
    assert store.get((1, 1)) is None


def test_memory_store_overwrite_updates_usage():
    store = MemoryStore(0, 1e9)
    store.put((1, 0), [1] * 10, sim_bytes=100)
    store.put((1, 0), [1] * 10, sim_bytes=300)
    assert store.used_bytes == 300


# ------------------------------------------------------------ BlockTracker
def test_block_tracker_register_and_locations():
    tracker = BlockTracker()
    tracker.register((1, 0), 3)
    tracker.register((1, 0), 5)
    tracker.register((1, 0), 3)  # duplicate ignored
    assert tracker.locations((1, 0)) == [3, 5]
    assert tracker.locations((9, 9)) == []


def test_block_tracker_unregister_executor():
    tracker = BlockTracker()
    tracker.register((1, 0), 3)
    tracker.register((1, 1), 3)
    tracker.register((1, 1), 4)
    assert tracker.unregister_executor(3) == 2
    assert tracker.locations((1, 0)) == []
    assert tracker.locations((1, 1)) == [4]
