"""Gang placement under the job service (DESIGN §16, *Placement*).

A service job's stage lands, as a gang, on the legal translation of its
canonical placement where the fewest of its tasks queue behind its own
tenant's. What that may not change: the model a job trains
(byte-identical to the same job alone on a fresh context) and what a lone
job costs in virtual time. What it must change: a tenant with more
concurrent jobs than one executor group holds puts every executor to work
and drains in half the time.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import AggregationSpec, ClusterConfig
from repro.obs import RecordingListener
from repro.rdd.scheduler import StagePlacement
from repro.service import (
    PoolConfig,
    SparkerSession,
    TenantProfile,
    run_open_loop,
)

RING = AggregationSpec(collective="ring", parallelism=2)
HD = AggregationSpec(collective="hd", parallelism=2)
#: the three aggregation paths a service job can take
KINDS = {"ring": ("split", RING), "hd": ("split", HD),
         "tree_imm": ("tree_imm", None)}
POOLS = {"gold": 3.0, "silver": 2.0, "bronze": 1.0}

_alone = {}


def alone(nodes, partitions, kind):
    """``final_weights`` of the job run by itself on a fresh context."""
    key = (nodes, partitions, kind)
    if key not in _alone:
        aggregation, spec = KINDS[kind]
        _alone[key] = SparkerSession(ClusterConfig.laptop(nodes)).run(
            "LR-A", aggregation=aggregation, iterations=1, spec=spec,
            partitions=partitions).final_weights
    return _alone[key]


def idle(sc):
    return not any(sc.dag.claims.values())


def lone_job(nodes, partitions, kind, busy=()):
    """One job on an otherwise empty service, with the executors in
    ``busy`` claimed as a two-task-deep gang of the same tenant would claim
    them: (latency, weights, executors that ran tasks)."""
    aggregation, spec = KINDS[kind]
    with SparkerSession(ClusterConfig.laptop(nodes)) as session:
        sc = session.server.sc
        held = StagePlacement([sc.executor_by_id(eid) for eid in busy
                               for _ in range(2)], sc.dag.claims, "probe")
        handle = session.submit("LR-A", spec, aggregation=aggregation,
                                iterations=1, partitions=partitions,
                                tenant="probe")
        weights = handle.result().final_weights
        held.release_all()
        assert idle(sc)
        return handle.latency, weights, [
            e.executor_id for e in sc.executors if e.tasks_run]


# --------------------------------------------------- (a) what may not move
@settings(max_examples=20, deadline=None)
@given(nodes=st.sampled_from((2, 4)),
       partitions=st.sampled_from((2, 3, 4, 8)),
       kinds=st.lists(st.sampled_from(sorted(KINDS)), min_size=2,
                      max_size=4),
       gap=st.sampled_from((0.5, 8.0, 30.0)),
       burst=st.sampled_from((1, 3)),
       seed=st.integers(0, 2 ** 16))
def test_concurrent_equals_isolated_and_groups_are_equivalent(
        nodes, partitions, kinds, gap, burst, seed):
    tenants = [
        TenantProfile(f"tenant-{i}", pool=sorted(POOLS)[i % 3],
                      workloads=("LR-A",), aggregation=KINDS[kind][0],
                      specs=(KINDS[kind][1],), mean_interarrival=gap,
                      jobs=3, burst=burst, iterations=1,
                      partitions=partitions)
        for i, kind in enumerate(kinds)]
    pools = {name: PoolConfig(weight=w) for name, w in POOLS.items()}
    with SparkerSession(ClusterConfig.laptop(nodes), pools=pools) as session:
        traffic = run_open_loop(session, tenants, seed=seed)
        assert idle(session.server.sc)
        assert not traffic.rejections
        by_tenant = {f"tenant-{i}": kind for i, kind in enumerate(kinds)}
        for arrival, handle in traffic.submissions:
            assert handle.status() == "succeeded"
            assert np.array_equal(
                handle.result().final_weights,
                alone(nodes, partitions, by_tenant[arrival.tenant]))

    # the same lone job on its canonical executors and on whatever
    # translation it takes when those are claimed: same virtual time
    kind = kinds[0]
    latency, weights, canonical = lone_job(nodes, partitions, kind)
    moved_latency, moved_weights, moved = lone_job(
        nodes, partitions, kind, busy=canonical)
    assert np.array_equal(weights, alone(nodes, partitions, kind))
    assert np.array_equal(moved_weights, weights)
    assert moved_latency == latency
    # there is a second group exactly when the gang is narrower than the
    # cluster and node-aligned
    two_groups = partitions <= nodes
    assert (moved != canonical) == two_groups


# --------------------------------------------------- (b) what must move
def tenant_mix(jobs, stretch):
    """The ledger's ``service_mix`` tenants (8 tenants, 3 pools)."""
    rows = (
        ("ads-train", "gold", "LR-A", "ring", 30.0, 1),
        ("feed-rank", "gold", "SVM-A", "tree_imm", 30.0, 1),
        ("spam-filter", "silver", "LR-A", "tree_imm", 40.0, 1),
        ("ctr-sweep", "silver", "LR-A", "hd", 90.0, 3),
        ("churn-model", "silver", "SVM-A", "tree_imm", 40.0, 1),
        ("analyst-1", "bronze", "SVM-A", "tree_imm", 50.0, 1),
        ("analyst-2", "bronze", "SVM-A", "ring", 120.0, 4),
        ("intern", "bronze", "LR-A", "tree_imm", 50.0, 1),
    )
    return [TenantProfile(name, pool=pool, workloads=(workload,),
                          aggregation=KINDS[kind][0],
                          specs=(KINDS[kind][1],),
                          mean_interarrival=gap * stretch, burst=burst,
                          jobs=jobs, iterations=1, partitions=4)
            for name, pool, workload, kind, gap, burst in rows]


def saturated_session(jobs, stretch):
    pools = {name: PoolConfig(weight=w) for name, w in POOLS.items()}
    with SparkerSession(ClusterConfig.laptop(4), pools=pools) as session:
        traffic = run_open_loop(session, tenant_mix(jobs, stretch), seed=7)
        usage = session.server.slot_utilisation()
        assert idle(session.server.sc)
    assert all(h.status() == "succeeded" for h in traffic.handles)
    return traffic, usage


def test_tenants_that_outrun_a_group_use_every_executor():
    # four jobs per tenant, 32 in a backlog (last arrival at 44.6 s): the
    # parent ran 65 tasks on each of executors 0-3, none on 4-7, and needed
    # 285.02 s. A tenant's third and fourth concurrent job would queue
    # behind its first two, so they go to the other group.
    traffic, usage = saturated_session(4, 0.1)
    tasks = [row["tasks"] for row in usage["executors"].values()]
    assert tasks == [33, 33, 33, 33, 32, 32, 32, 32]
    assert usage["idle_executors"] == 0
    assert traffic.makespan <= 0.6 * 285.02
    assert traffic.makespan == pytest.approx(144.332176011794, rel=1e-6)
    shares = [row["utilisation"] for row in usage["executors"].values()]
    assert min(shares) > 0.85


def test_tenants_that_fit_a_group_stay_where_their_blocks_are():
    # ROADMAP's session, seed 7, two jobs per tenant: no tenant's own jobs
    # queue on each other, so nothing moves and the session is the
    # parent's to the last digit — other tenants' load is the arbiter's to
    # share out, not a reason to build a replica (DESIGN §16, *Placement*;
    # ROADMAP item 3 has the follow-up that balances on total load)
    traffic, usage = saturated_session(2, 0.25)
    tasks = [row["tasks"] for row in usage["executors"].values()]
    assert tasks == [33, 33, 33, 33, 0, 0, 0, 0]
    assert traffic.makespan == pytest.approx(142.9459262979986, rel=1e-9)


def test_a_same_instant_burst_of_four_does_not_queue_on_half_the_cluster():
    with SparkerSession(ClusterConfig.laptop(4)) as session:
        def submit():
            return session.submit("SVM-A", RING, aggregation="split",
                                  iterations=1, partitions=4)
        submit().result()                      # loads the dataset
        burst = [submit() for _ in range(4)]
        session.server.drain()
        latencies = [handle.latency for handle in burst]
        assert idle(session.server.sc)
    # parent: 35.71, 35.72, 35.73, 35.75 s — two waves on executors 0-3
    assert max(latencies) <= 22.0
    # (PR 24, a hop is one message over P lanes: each -8.8e-5 s, 5e-6, on
    # SVM-A's lanes of unequal size)
    assert latencies == pytest.approx(
        [17.984386878138192, 17.998356716757424, 18.02629639399589,
         18.012326555376657], rel=1e-6)


# ---------------------------------------------- (c) one-shot contexts
def test_one_shot_contexts_place_exactly_as_the_picker_does():
    recorder = RecordingListener()
    SparkerSession(ClusterConfig.laptop(4)).run(
        "LR-A", aggregation="split", iterations=1, spec=RING,
        partitions=4, listener=recorder)
    starts = [e for e in recorder.events if e.kind == "task_start"]
    assert starts
    # the dataset was cached by position % N; every later stage follows it
    assert {e.executor_id for e in starts} == {0, 1, 2, 3}
    first = [e for e in starts if e.stage_id == starts[0].stage_id]
    assert [e.executor_id for e in first] == [e.partition for e in first]


# ------------------------------------------------------------ (d) claims
def test_claims_return_to_zero_after_failure_and_cancellation():
    with SparkerSession(ClusterConfig.laptop(4)) as session:
        server = session.server
        sc = server.sc

        def explode(x):
            raise ValueError("poison task")

        def failing():
            return sc.parallelize(range(8), 4).map(explode).collect()

        def aborting():
            return sc.run_reduced_job(
                sc.parallelize(range(8), 4),
                lambda _i, data, _ctx: explode(data), lambda a, b: a + b)

        for body in (failing, aborting):
            record = server.submit(body)
            server.wait(record)
            assert record.status == "failed"
            assert idle(sc)

        victim = session.submit("LR-A", RING, aggregation="split",
                                iterations=3, partitions=4)
        bystander = session.submit("LR-A", aggregation="tree_imm",
                                   iterations=1, partitions=4)
        record = next(r for r in server.jobs
                      if r.service_job_id == victim.job_id)
        server.cooperator.pump(
            lambda: record.started is not None
            and sc.now > record.started + 1.0)
        assert not idle(sc)                    # mid-stage: claims are held
        assert victim.cancel("user abort")
        server.drain()
        assert victim.status() == "cancelled"
        assert bystander.status() == "succeeded"
        assert idle(sc)
        assert all(e.task_slots.in_use == 0 for e in sc.executors)


def test_slot_utilisation_counts_what_the_executors_did():
    with SparkerSession(ClusterConfig.laptop(4)) as session:
        session.submit("LR-A", aggregation="tree_imm", iterations=1,
                       partitions=4).result()
        usage = session.server.slot_utilisation()
        sc = session.server.sc
        assert usage["window"] == sc.now
        assert usage["idle_executors"] == 4    # one lone job: one group
        for executor in sc.executors:
            row = usage["executors"][executor.executor_id]
            assert row["tasks"] == executor.tasks_run
            assert 0.0 <= row["utilisation"] <= 1.0
            assert (row["slot_seconds"] > 0) == (executor.tasks_run > 0)
