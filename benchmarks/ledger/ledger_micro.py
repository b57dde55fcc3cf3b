"""Fixed-op-count microbenchmarks of each layer's public functions.

One number per layer entry point, so that a ``wall_s`` change on a
workload can be traced to the layer that got cheaper or dearer. Every
micro runs a fixed number of operations (scaled down by ``--smoke``) and
reports operations per host second; the ``*_over_mpi_x`` ones are
virtual-time ratios over the ``repro.comm.mpi`` floor (Duenner et al.'s
method) and repeat exactly.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Dict, List

import numpy as np

from repro import AggregationSpec, ClusterConfig, SparkerSession
from repro.cluster import MB, Cluster
from repro.cluster.flows import FlowNetwork, Link
from repro.comm import (
    CommFabric,
    MpiCommunicator,
    ScalableCommunicator,
    choose_collective,
    sc_transport,
)
from repro.comm.cost import CollectiveCostModel
from repro.core import MutableObjectManager
from repro.data import dataset
from repro.ml import LogisticGradient
from repro.obs import (
    EventBus,
    RecordingListener,
    TaskStart,
    attribute_critical_path,
)
from repro.serde import SizedPayload, merge_sparse, sim_sizeof
from repro.service import Cooperator, JobServer, PoolConfig
from repro.sim import Environment, Resource
from repro.sim.calendar import BucketCalendar

ALGORITHMS = ("ring", "pipelined_ring", "hd", "hierarchical")


def _rate(ops: int, fn: Callable[[], object]) -> float:
    began = time.perf_counter()
    fn()
    return ops / (time.perf_counter() - began)


def _calls(n: int, call: Callable[[], object]) -> float:
    """Calls of ``call`` per host second over ``n`` calls."""
    began = time.perf_counter()
    for _ in range(n):
        call()
    return n / (time.perf_counter() - began)


# --------------------------------------------------------------------- sim
def calendar_ops(n: int) -> float:
    """push + pop pairs through ``BucketCalendar``, half of them ties."""
    def body():
        calendar = BucketCalendar()
        for i in range(n):
            calendar.push(float(i // 2), 1, i)
        for _ in range(n):
            calendar.pop()
    return _rate(2 * n, body)


def timeout_events(n: int) -> float:
    env = Environment()

    def ticker():
        for _ in range(n):
            yield env.timeout(1.0)

    env.process(ticker())
    return _rate(n, env.run)


def resource_handoffs(n: int) -> float:
    """Two processes passing one ``Resource`` slot back and forth."""
    env = Environment()
    slot = Resource(env, 1)

    def worker():
        for _ in range(n // 2):
            yield slot.acquire()
            yield env.timeout(1.0)
            slot.release()

    env.process(worker())
    env.process(worker())
    return _rate(n, env.run)


def flow_events(flows: int, rounds: int) -> float:
    """Kernel events per second with ``flows`` concurrent flows sharing
    one sink: one contention component of ``flows`` members."""
    env = Environment()
    net = FlowNetwork(env)
    sink = Link(1e9, "sink")
    uplinks = [Link(1e9, f"up{i}") for i in range(flows)]

    def driver(i: int):
        links = [uplinks[i], sink]
        for r in range(rounds):
            # distinct sizes: completions arrive one at a time, each one
            # re-solving the whole component
            yield net.flow(2e7 + 1e5 * ((i * 7919 + r * 104729) % 1801),
                           links=links)

    for i in range(flows):
        env.process(driver(i))
    began = time.perf_counter()
    env.run()
    return env.events_scheduled / (time.perf_counter() - began)


# -------------------------------------------------------------------- comm
def fabric_msgs(n: int) -> float:
    """``CommFabric.send``/``recv`` of small messages between two nodes."""
    config = ClusterConfig.bic(2)
    cluster = Cluster(Environment(), config)
    fabric = CommFabric(cluster.network, sc_transport(config))
    fabric.register(0, cluster.nodes[0])
    fabric.register(1, cluster.nodes[1])
    env = cluster.env
    payload = SizedPayload(np.zeros(8), sim_bytes=64 * 1024)

    def sender():
        for i in range(n):
            yield from fabric.send(0, 1, payload, tag=("m", i % 4))

    def receiver():
        for i in range(n):
            yield from fabric.recv(1, tag=("m", i % 4))

    env.process(sender())
    env.process(receiver())
    return _rate(n, env.run)


def _collective(config: ClusterConfig, algorithm: str, nbytes: float,
                parallelism: int, bus=None) -> float:
    """Virtual seconds of one ``reduce_scatter_gather``."""
    env = Environment()
    comm = ScalableCommunicator(Cluster(env, config),
                                parallelism=parallelism, bus=bus)
    rng = np.random.default_rng(3)
    values = [SizedPayload(rng.random(64), sim_bytes=nbytes)
              for _ in range(comm.size)]
    proc = env.process(comm.reduce_scatter_gather(
        values, lambda u, i, k: u.split(i, k), lambda a, b: a.merge(b),
        SizedPayload.concat,
        algorithm=None if algorithm == "ring" else algorithm))
    env.run(until=proc)
    return env.now


def ring_hops(repeats: int) -> float:
    """Ring hops per host second (BICx4 = 24 ranks, 4 channels, 1 MB)."""
    config = ClusterConfig.bic(4)
    bus = EventBus()
    rec = RecordingListener()
    bus.subscribe(rec)
    _collective(config, "ring", 1 * MB, 4, bus=bus)
    hops = len(rec.of_kind("ring_hop"))
    return hops * _calls(
        repeats, lambda: _collective(config, "ring", 1 * MB, 4))


def over_mpi() -> Dict[str, float]:
    """Each collective's virtual time over ``MpiCommunicator.
    reduce_scatter`` (BICx8, 16 MB, P=4): the framework's distance from
    the MPI floor. The Sparker side includes the gather to the driver."""
    config = ClusterConfig.bic(8)
    env = Environment()
    mpi = MpiCommunicator(Cluster(env, config))
    rng = np.random.default_rng(3)
    values = [SizedPayload(rng.random(64), sim_bytes=16 * MB)
              for _ in range(mpi.size)]
    proc = env.process(mpi.reduce_scatter(
        values, lambda u, i, k: u.split(i, k), lambda a, b: a.merge(b)))
    env.run(until=proc)
    floor = env.now
    return {name: _collective(config, name, 16 * MB, 4) / floor
            for name in ALGORITHMS}


def cost_choose(n: int) -> float:
    config = ClusterConfig.bic(8)
    model = CollectiveCostModel.from_config(config)
    slots = Cluster(Environment(), config).executors
    return _calls(n, lambda: choose_collective(
        model, 16 * MB, slots, ALGORITHMS, (1, 2, 4, 8)))


# -------------------------------------------------------------------- core
def imm_merges(n: int) -> float:
    """``MutableObjectManager.merge`` of 1 MB arrays on one executor."""
    with SparkerSession(ClusterConfig.laptop(2)).context() as sc:
        manager = MutableObjectManager(sc.executors[0])
        value = np.ones(MB // 8)

        def merger():
            for _ in range(n):
                yield from manager.merge((0, 0), 0, value, np.add)

        proc = sc.env.process(merger())
        return _rate(n, lambda: sc.env.run(until=proc))


def _tiny_rdd(sc):
    rdd = sc.parallelize([np.full(8, float(i)) for i in range(16)], 4).cache()
    rdd.count()
    return rdd


def split_aggregates(n: int) -> float:
    """Driver overhead per ``split_aggregate`` call (tiny aggregators)."""
    with SparkerSession(ClusterConfig.laptop(2)).context() as sc:
        rdd = _tiny_rdd(sc)
        spec = AggregationSpec(parallelism=2)

        def call():
            return rdd.split_aggregate(
                lambda: SizedPayload(np.zeros(8), sim_bytes=1024),
                lambda a, x: a.merge_inplace(SizedPayload(x, sim_bytes=1024)),
                lambda u, i, k: u.split(i, k), lambda a, b: a.merge(b),
                SizedPayload.concat, spec)

        return _calls(n, call)


def tree_aggregates(n: int) -> float:
    with SparkerSession(ClusterConfig.laptop(2)).context() as sc:
        rdd = _tiny_rdd(sc)
        return _calls(n, lambda: rdd.tree_aggregate(
            np.zeros(8), lambda a, x: a + x, lambda a, b: a + b))


# --------------------------------------------------------------------- rdd
def rdd_tasks(partitions: int, jobs: int) -> float:
    """Scheduler/executor cost per task: many tiny partitions."""
    with SparkerSession(ClusterConfig.laptop(2)).context() as sc:
        rdd = sc.parallelize(range(partitions), partitions)
        return partitions * _calls(
            jobs, lambda: rdd.map(lambda x: x + 1).count())


def hostpool_roundtrip(tasks: int) -> float:
    """MB of task results per host second through a ``nproc``-worker
    host pool (1 MB per task, cached input, so every task offloads)."""
    workers = max(2, os.cpu_count() or 2)
    with SparkerSession(ClusterConfig.laptop(2)).context(
            host_pool=workers) as sc:
        rdd = sc.parallelize([np.full(MB // 8, float(i))
                              for i in range(tasks)], tasks).cache()
        rdd.count()
        began = time.perf_counter()
        out = rdd.map(lambda a: a * 2.0).collect()
        seconds = time.perf_counter() - began
    _stop_resource_tracker()
    return sum(a.nbytes for a in out) / MB / seconds


def _stop_resource_tracker() -> None:
    """The pool's shared-memory transport starts multiprocessing's
    resource tracker, a helper process that otherwise lives until the
    interpreter exits; a benchmark run leaves no process behind."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


# ------------------------------------------------------------- serde / ml
def sizeof_calls(n: int) -> float:
    values: List[object] = [np.zeros(64), SizedPayload(np.zeros(8), 1e6),
                            (1, 2.0, "three"), [np.zeros(4)] * 8, 7]
    return _rate(n, lambda: [sim_sizeof(values[i % 5]) for i in range(n)])


def payload_split_concat(n: int) -> float:
    payload = SizedPayload(np.arange(4096.0), sim_bytes=16 * MB)
    return _calls(n, lambda: SizedPayload.concat(
        [payload.split(i, 8) for i in range(8)]))


def sparse_merges(n: int) -> float:
    rng = np.random.default_rng(5)
    a = np.unique(rng.integers(0, 200_000, 4000))
    b = np.unique(rng.integers(0, 200_000, 4000))
    va, vb = rng.random(a.size), rng.random(b.size)
    return _calls(n, lambda: merge_sparse(a, va, b, vb))


def seqop_samples(passes: int) -> float:
    """``LogisticGradient.add_to`` over the avazu surrogate's samples."""
    spec = dataset("avazu")
    points, _truth = spec.generate()
    weights = np.zeros(spec.surrogate_features)
    grad = np.zeros(spec.surrogate_features)
    fold = LogisticGradient().add_to
    return _rate(passes * len(points), lambda: [
        fold(p, weights, grad) for _ in range(passes) for p in points])


# ----------------------------------------------------------------- service
def cooperator_handoffs(n: int) -> float:
    """Baton hand-offs: one worker awaiting ``n`` timeouts in turn."""
    env = Environment()
    cooperator = Cooperator(env)

    def body():
        for _ in range(n):
            env.run(until=env.timeout(1.0))

    cooperator.spawn(body, "handoffs")
    return _rate(n, cooperator.pump)


def noop_jobs(n: int) -> float:
    """Empty job bodies through FAIR admission and the reactor."""
    with JobServer(ClusterConfig.laptop(2),
                   pools={"a": PoolConfig(weight=2.0),
                          "b": PoolConfig(weight=1.0)}) as server:
        def body():
            records = [server.submit(lambda: None, pool="ab"[i % 2])
                       for i in range(n)]
            server.drain()
            return records
        return _rate(n, body)


# --------------------------------------------------------------------- obs
def obs_emits(n: int) -> float:
    bus = EventBus()
    bus.subscribe(RecordingListener())
    event = TaskStart(time=0.0, stage_id=0, stage_attempt=0, partition=0,
                      attempt=0, executor_id=0, host="h0")
    return _calls(n, lambda: bus.emit(event))


def critical_path_events() -> float:
    """Events per host second through ``attribute_critical_path``."""
    rec = RecordingListener()
    SparkerSession(ClusterConfig.laptop(2)).run(
        "LR-A", aggregation="split", iterations=2, spec=AggregationSpec(),
        listener=rec)
    return _rate(len(rec.events),
                 lambda: attribute_critical_path(rec.events))


def run_all(scale: float) -> Dict[str, float]:
    """Every ``micro.*`` metric; ``scale`` < 1 shrinks the op counts."""
    def n(count: int) -> int:
        return max(2, int(count * scale))

    out = {
        "micro.sim.calendar_ops_per_s": calendar_ops(n(100_000)),
        "micro.sim.timeout_events_per_s": timeout_events(n(100_000)),
        "micro.sim.resource_handoffs_per_s": resource_handoffs(n(40_000)),
        "micro.cluster_flows.events_per_s_f10": flow_events(10, n(300)),
        "micro.cluster_flows.events_per_s_f100": flow_events(100, n(20)),
        "micro.cluster_flows.events_per_s_f1000":
            flow_events(1000 if scale >= 1 else 200, 1),
        "micro.comm_fabric.msgs_per_s": fabric_msgs(n(4000)),
        "micro.comm_collectives.ring_hops_per_s": ring_hops(n(2)),
        "micro.comm_cost.choose_per_s": cost_choose(n(800)),
        "micro.core_imm.merges_per_s": imm_merges(n(800)),
        "micro.core_sai.split_aggregate_per_s": split_aggregates(n(40)),
        "micro.core_sai.tree_aggregate_per_s": tree_aggregates(n(200)),
        "micro.rdd.tasks_per_s": rdd_tasks(64, n(30)),
        "micro.rdd_hostpool.roundtrip_mb_per_s": hostpool_roundtrip(16),
        "micro.serde.sim_sizeof_per_s": sizeof_calls(n(100_000)),
        "micro.serde.payload_split_concat_per_s":
            payload_split_concat(n(4000)),
        "micro.serde.merge_sparse_per_s": sparse_merges(n(1000)),
        "micro.ml.seqop_samples_per_s": seqop_samples(n(4)),
        "micro.service.handoffs_per_s": cooperator_handoffs(n(8000)),
        "micro.service.noop_jobs_per_s": noop_jobs(n(1000)),
        "micro.obs.emit_per_s": obs_emits(n(600_000)),
        "micro.obs.critical_path_events_per_s": critical_path_events(),
    }
    for name, ratio in over_mpi().items():
        out[f"micro.comm_collectives.{name}_over_mpi_x"] = ratio
    return out
