"""Stage placement: one decision per stage, claims, translations, replicas.

``laptop(4)`` has executors 0-3 on nodes 0-3 and executors 4-7 on the same
nodes again (round-robin), two cores each: a 4-partition stage has exactly
two legal placements, the canonical one and its translation by four.
"""

import pytest

from repro import ClusterConfig, SparkerContext
from repro.core.spawn_rdd import SpawnRDD
from repro.obs import RecordingListener
from repro.rdd import Costed
from repro.rdd.scheduler import JobFailed, StagePlacement

LOW, HIGH = [0, 1, 2, 3], [4, 5, 6, 7]


@pytest.fixture
def sc():
    with SparkerContext(ClusterConfig.laptop(num_nodes=4)) as context:
        yield context


def occupy(sc, executor_ids, tasks=2, owner=None):
    """The claims ``owner``'s running gang of ``tasks`` per executor would
    hold (None: the owner of every stage run outside the service)."""
    return StagePlacement([sc.executor_by_id(eid) for eid in executor_ids
                           for _ in range(tasks)], sc.dag.claims, owner)


def ran_on(sc, action):
    """Executor ids whose completed-task count ``action()`` moved."""
    before = [e.tasks_run for e in sc.executors]
    action()
    return [e.executor_id for e, b in zip(sc.executors, before)
            if e.tasks_run > b]


def cached(sc, partitions=4):
    rdd = sc.parallelize(range(64), partitions).cache()
    rdd.count()
    return rdd


def idle(sc):
    return not any(sc.dag.claims.values())


# ------------------------------------------------------------ the decision
def test_a_lone_stage_places_canonically_and_returns_its_claims(sc):
    rdd = sc.parallelize(range(64), 4).cache()
    assert ran_on(sc, rdd.count) == LOW          # position % N, as ever
    assert ran_on(sc, rdd.count) == LOW          # then the block holders
    placement = sc.dag.place_stage(rdd, range(4))
    assert [e.executor_id for e in placement.executors] == LOW
    assert [sc.dag.pick_executor(rdd, p, p).executor_id
            for p in range(4)] == LOW
    assert [sc.dag.claims[None, eid] for eid in LOW] == [1, 1, 1, 1]
    placement.release_all()
    placement.release_all()                      # idempotent
    assert idle(sc)


def test_a_gang_lands_on_the_group_where_fewest_tasks_queue(sc):
    rdd = cached(sc)
    held = occupy(sc, LOW)                       # both cores of 0-3 claimed
    assert ran_on(sc, rdd.count) == HIGH
    held.release_all()
    assert ran_on(sc, rdd.count) == LOW          # a lone job again: canonical
    assert idle(sc)


def test_another_owners_load_moves_nothing(sc):
    # a gang is weighed against its own owner's claims only: what another
    # tenant runs is the FAIR arbiter's business, not the placement's
    rdd = cached(sc)
    held = occupy(sc, LOW, tasks=4, owner="someone-else")
    assert ran_on(sc, rdd.count) == LOW
    assert sc.block_tracker.locations((rdd.id, 0)) == [0]   # no replica built
    mine = sc.dag.place_stage(rdd, range(4), "me")
    assert [e.executor_id for e in mine.executors] == LOW
    crowd = occupy(sc, LOW, tasks=1, owner="me")     # "me" now fills 0-3
    moved = sc.dag.place_stage(rdd, range(4), "me")
    assert [e.executor_id for e in moved.executors] == HIGH
    for placement in (held, mine, crowd, moved):
        placement.release_all()
    assert idle(sc)


def test_ties_go_to_the_group_that_holds_the_blocks(sc):
    rdd = cached(sc)
    held = occupy(sc, LOW, tasks=1)              # a core free on each of 0-3
    assert ran_on(sc, rdd.count) == LOW          # nothing queues on either
    assert sc.block_tracker.locations((rdd.id, 0)) == [0]   # no replica built
    held.release_all()


def test_saturated_groups_are_compared_by_queue_depth(sc):
    rdd = cached(sc)
    low, high = occupy(sc, LOW, tasks=4), occupy(sc, HIGH, tasks=3)
    placement = sc.dag.place_stage(rdd, range(4))
    assert [e.executor_id for e in placement.executors] == HIGH
    for held in (placement, low, high):
        held.release_all()
    assert idle(sc)


def test_a_group_with_a_dead_or_quarantined_executor_is_no_candidate(sc):
    rdd = cached(sc)
    held = occupy(sc, LOW)
    sc.health.record_failure(6)
    sc.health.record_failure(6)
    assert sc.health.is_quarantined(6)
    assert ran_on(sc, rdd.count) == LOW
    sc.env.run(until=sc.env.timeout(10.0))       # the quarantine lapses
    assert ran_on(sc, rdd.count) == HIGH
    sc.kill_executor(5)
    assert ran_on(sc, rdd.count) == LOW
    held.release_all()


def test_a_translation_may_not_change_a_ranks_node_or_leave_the_list():
    # laptop(2): executors 0,2 on node 0 and 1,3 on node 1. Three
    # partitions sit on 0,1,2; moving them by one would swap the nodes,
    # by two would run off the list.
    with SparkerContext(ClusterConfig.laptop(num_nodes=2)) as sc:
        rdd = cached(sc, partitions=3)
        held = occupy(sc, [0, 1, 2])
        assert ran_on(sc, rdd.count) == [0, 1, 2]
        held.release_all()


def test_translations_go_down_as_well_as_up(sc):
    held = occupy(sc, LOW)
    rdd = sc.parallelize(range(64), 4).cache()
    assert ran_on(sc, rdd.count) == HIGH         # first cached on 4-7
    held.release_all()
    assert rdd.preferred_executors(0) == [4]
    held = occupy(sc, HIGH)
    assert ran_on(sc, rdd.count) == LOW          # 4-7 moved by -4, not +4
    held.release_all()


def test_mixed_holders_stay_at_shift_zero(sc):
    rdd = cached(sc)
    held = occupy(sc, LOW)
    rdd.count()                                  # replicas on 4-7
    held.release_all()
    sc.kill_executor(1)
    # partition 1's only holder is now 5: the canonical placement mixes
    # the groups and no translation of it fits the executor list
    busy = occupy(sc, [0, 5, 2, 3])
    assert ran_on(sc, rdd.count) == [0, 2, 3, 5]
    busy.release_all()


def test_pinned_stages_are_never_moved(sc):
    held = occupy(sc, [0, 1])
    spawn = SpawnRDD(sc, [(0, lambda ctx: "a"), (1, lambda ctx: "b")])
    assert ran_on(sc, lambda: sc.run_job(
        spawn, lambda _i, data, _ctx: data)) == [0, 1]
    held.release_all()
    assert idle(sc)


def test_a_placement_made_before_an_executor_died_is_made_again(sc):
    rdd = sc.parallelize(range(64), 4)
    placement = sc.dag.place_stage(rdd, range(4))
    sc.kill_executor(2)
    job = sc.env.process(sc.dag.run_reduced_job(
        rdd, lambda _i, data, _ctx: sum(data), lambda a, b: a + b,
        sc.new_job_id(), placement=placement))
    holders = sc.env.run(until=job)
    assert 2 not in [eid for eid, _obj in holders]
    assert len(sc.dag.stage_log) == 1            # no task met the dead one
    assert idle(sc)


# ---------------------------------------------------------------- replicas
def test_a_replica_is_registered_behind_the_canonical_holder(sc):
    rdd = cached(sc)
    began = sc.now
    rdd.count()
    warm = sc.now - began
    held = occupy(sc, LOW)
    began = sc.now
    assert rdd.count() == 64
    building = sc.now - began
    began = sc.now
    rdd.count()
    assert sc.now - began == pytest.approx(warm)  # either group, same time
    assert building > warm                        # one materialisation pass
    held.release_all()
    for partition in range(4):
        assert sc.block_tracker.locations((rdd.id, partition)) == [
            partition, partition + 4]
        assert rdd.preferred_executors(partition)[0] == partition


def test_replicas_share_the_derived_layout(sc):
    rdd = cached(sc)
    layout = object()
    for partition in range(4):
        sc.executor_by_id(partition).memory_store.peek(
            (rdd.id, partition)).derived = layout
    held = occupy(sc, LOW)
    rdd.count()
    held.release_all()
    for partition in range(4):
        replica = sc.executor_by_id(partition + 4).memory_store.peek(
            (rdd.id, partition))
        assert replica.derived is layout
        assert replica is not sc.executor_by_id(partition).memory_store.peek(
            (rdd.id, partition))


def test_unpersist_and_executor_loss_drop_every_replica(sc):
    rdd = cached(sc)
    held = occupy(sc, LOW)
    rdd.count()
    held.release_all()
    assert sum(len(e.memory_store) for e in sc.executors) == 8
    sc.kill_executor(4)
    assert sc.block_tracker.locations((rdd.id, 0)) == [0]
    assert len(sc.executor_by_id(4).memory_store) == 0
    sc.kill_executor(1)                           # the canonical holder
    assert sc.block_tracker.locations((rdd.id, 1)) == [5]
    rdd.unpersist()
    assert all(len(e.memory_store) == 0 for e in sc.executors)
    assert all(not sc.block_tracker.locations((rdd.id, p)) for p in range(4))
    assert rdd.count() == 64


def test_locality_is_any_for_the_attempt_that_builds_a_replica(sc):
    rdd = cached(sc)
    recorder = RecordingListener()
    sc.event_bus.subscribe(recorder)
    held = occupy(sc, LOW)
    rdd.count()
    rdd.count()
    held.release_all()
    levels = [e.metrics.locality for e in recorder.events
              if e.kind == "task_end"]
    assert levels == ["ANY"] * 4 + ["PROCESS_LOCAL"] * 4


# ------------------------------------------------------------------ claims
def test_claims_return_to_zero_after_success_failure_and_abort(sc):
    def explode(x):
        raise ValueError("poison task")

    assert sc.parallelize(range(8), 4).map(lambda x: x).count() == 8
    assert idle(sc)
    with pytest.raises(ValueError, match="poison"):   # retries, then fails
        sc.parallelize(range(8), 4).map(explode).collect()
    assert idle(sc)
    with pytest.raises(JobFailed):                    # IMM: stage aborts
        sc.run_reduced_job(
            sc.parallelize(range(8), 4),
            lambda _i, data, _ctx: explode(data), lambda a, b: a + b)
    assert idle(sc)

    # an executor lost mid-stage: its tasks retry through the picker
    slow = sc.parallelize(range(8), 4).map(Costed(lambda x: x, 1.0))
    sc.env.process(_kill_later(sc, 2, 0.5))
    assert slow.count() == 8
    assert idle(sc)


def _kill_later(sc, executor_id, delay):
    yield sc.env.timeout(delay)
    sc.kill_executor(executor_id)
