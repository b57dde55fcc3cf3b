"""Cost model and tuner-choice tests.

The model is offline pricing (the engine runs the collective its spec
names), so these tests pin the *decision properties* of
:func:`choose_collective`: deterministic candidate ordering, ring-first
tie-breaking, regime-correct rankings (latency-bound favours ``hd``,
bandwidth-bound favours the ring), and that a run nobody listens to
records nothing, whatever the collective.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro import AggregationSpec, SparkerContext
from repro.cluster import MB, Cluster, ClusterConfig
from repro.comm import ScalableCommunicator
from repro.comm.cost import (
    CollectiveCostModel,
    CollectivePlan,
    choose_collective,
)
from repro.serde import SizedPayload
from repro.sim import Environment

from .conftest import concat_op, make_values, reduce_op, split_op


def make_model(alpha=1e-3, stream=100 * MB, nic=1000 * MB,
               merge=5000 * MB):
    return CollectiveCostModel(
        alpha_inter=alpha, alpha_intra=alpha / 10.0,
        stream_bandwidth=stream, nic_bandwidth=nic,
        loopback_stream=10 * stream, loopback_bandwidth=10 * nic,
        merge_bandwidth=merge, ser_bandwidth=merge, deser_bandwidth=merge)


def slots(*hostnames):
    return [SimpleNamespace(hostname=h) for h in hostnames]


def plan(algorithm, ranks=8, parallelism=2, hosts=(4, 4),
         value_bytes=64.0 * MB):
    return CollectivePlan(algorithm=algorithm, parallelism=parallelism,
                          ranks=ranks, hosts=hosts,
                          value_bytes=value_bytes)


# ------------------------------------------------------------- prediction
def test_predictions_positive_and_finite():
    model = make_model()
    for algorithm in ("ring", "hd", "hierarchical"):
        t = model.predict(plan(algorithm))
        assert 0.0 < t < 1e6


def test_unknown_algorithm_has_no_formula():
    with pytest.raises(ValueError, match="no cost formula"):
        make_model().predict(plan("quantum"))


def test_single_rank_pays_only_the_gather():
    model = make_model()
    times = {a: model.predict(plan(a, ranks=1, hosts=(1,)))
             for a in ("ring", "hd", "hierarchical")}
    # no reduce phase: every algorithm degenerates to the same gather
    assert len(set(times.values())) == 1


def test_latency_bound_regime_favours_hd():
    """Huge alpha, tiny payload: log2(N) rounds beat N-1 hops."""
    model = make_model(alpha=1.0)
    p_ring = model.predict(plan("ring", ranks=16, hosts=(8, 8),
                                value_bytes=1024.0))
    p_hd = model.predict(plan("hd", ranks=16, hosts=(8, 8),
                              value_bytes=1024.0))
    assert p_hd < p_ring


def test_bandwidth_bound_regime_favours_ring():
    """Tiny alpha, huge payload: the ring's near-optimal volume wins."""
    model = make_model(alpha=1e-7)
    p_ring = model.predict(plan("ring", ranks=16, hosts=(8, 8),
                                value_bytes=256.0 * MB))
    p_hd = model.predict(plan("hd", ranks=16, hosts=(8, 8),
                              value_bytes=256.0 * MB))
    assert p_ring < p_hd


def test_segment_bytes_divides_by_ranks_and_parallelism():
    p = plan("ring", ranks=8, parallelism=4, value_bytes=64.0 * MB)
    assert p.segment_bytes == 64.0 * MB / 32


# ---------------------------------------------------------------- chooser
CANDIDATES = ("ring", "hd", "hierarchical")


def test_choose_is_deterministic_and_exhaustive():
    model = make_model()
    sl = slots("h0", "h0", "h1", "h1")
    winner1, est1 = choose_collective(model, 8.0 * MB, sl, CANDIDATES,
                                      (1, 2, 4))
    winner2, est2 = choose_collective(model, 8.0 * MB, sl, CANDIDATES,
                                      (1, 2, 4))
    assert winner1 == winner2
    assert [(p.algorithm, p.parallelism) for p, _ in est1] == [
        (a, p) for a in CANDIDATES for p in (1, 2, 4)]
    assert est1 == est2
    assert min(t for _, t in est1) == dict(
        ((p.algorithm, p.parallelism), t) for p, t in est1)[
        (winner1.algorithm, winner1.parallelism)]


def test_ties_break_toward_ring_first():
    """One rank: every algorithm prices identically -> seed ring wins."""
    model = make_model()
    winner, estimates = choose_collective(
        model, 1.0 * MB, slots("h0"), CANDIDATES, (2, 4))
    assert len({t for _, t in estimates}) <= 2  # per-P, not per-algo
    assert winner.algorithm == "ring"
    assert winner.parallelism == 2  # earlier candidate wins the tie too


def test_choose_rejects_empty_slot_list():
    with pytest.raises(ValueError, match="at least one slot"):
        choose_collective(make_model(), 1.0, [], CANDIDATES, (1,))


def test_tuner_pick_is_within_ten_percent_of_the_measured_best():
    """BIC x2, 1 MB: run every (algorithm, P) of the grid and time it on
    the virtual clock; what the model priced from the config alone picks
    may cost at most 10% more than the fastest candidate."""
    config = ClusterConfig.bic(num_nodes=2)
    algorithms = ("ring", "pipelined_ring", "hd", "hierarchical")
    parallelisms = (1, 2, 4, 8)
    measured = {}
    for algorithm in algorithms:
        for p in parallelisms:
            env = Environment()
            comm = ScalableCommunicator(Cluster(env, config), parallelism=p)
            values, _ = make_values(comm.size, sim_bytes=1 * MB)
            env.run(until=env.process(comm.reduce_scatter_gather(
                values, split_op, reduce_op, concat_op,
                algorithm=algorithm)))
            measured[(algorithm, p)] = env.now
    winner, _ = choose_collective(
        CollectiveCostModel.from_config(config), 1 * MB,
        Cluster(Environment(), config).executors, algorithms, parallelisms)
    picked = measured[(winner.algorithm, winner.parallelism)]
    assert picked <= 1.10 * min(measured.values()), (winner, measured)


def test_host_profile_feeds_the_plan():
    model = make_model()
    winner, _ = choose_collective(
        model, 1.0 * MB, slots("a", "a", "a", "b"), ("ring",), (1,))
    assert winner.hosts == (3, 1)
    assert winner.ranks == 4


# ----------------------------------------------------------- no listener
@pytest.mark.parametrize("collective", [
    "ring", "hd", "hierarchical", "pipelined_ring"])
def test_a_run_nobody_listens_to_records_nothing(collective):
    """No collective subscribes to the bus or hangs a model on the
    context, so an untraced run stays silent."""
    sc = SparkerContext(ClusterConfig.bic(num_nodes=2))
    data = [SizedPayload(np.full(16, float(i)), sim_bytes=1 * MB)
            for i in range(24)]
    result = sc.parallelize(data, 12).split_aggregate(
        lambda: SizedPayload(np.zeros(16), sim_bytes=1 * MB),
        lambda a, x: a.merge_inplace(x),
        lambda u, i, n: u.split(i, n),
        lambda a, b: a.merge(b),
        SizedPayload.concat,
        spec=AggregationSpec(collective=collective))
    assert np.array_equal(result.data, np.full(16, float(sum(range(24)))))
    assert sc.event_bus.emitted == 0
    assert not sc.event_bus.active
    assert not hasattr(sc, "collective_costs")


# --------------------------------------------------------- pipelined ring
def test_pipelined_single_column_prices_like_the_ring():
    """chunk_bytes >= segment: one column, no pipelining — the formula
    must collapse to the classic ring's exactly."""
    model = make_model()
    p_ring = plan("ring")
    p_pipe = CollectivePlan(algorithm="pipelined_ring", parallelism=2,
                            ranks=8, hosts=(4, 4), value_bytes=64.0 * MB,
                            chunk_bytes=1e15)
    assert model.predict(p_pipe) == model.predict(p_ring)


def test_pipelined_overlap_beats_ring_on_merge_heavy_hops():
    """Slow merges: C columns hide most of the merge under the wire, so
    pipelined must price strictly below the classic ring."""
    model = make_model(merge=120 * MB)  # merge time ~ wire time
    p_ring = plan("ring", value_bytes=256.0 * MB)
    p_pipe = CollectivePlan(algorithm="pipelined_ring", parallelism=2,
                            ranks=8, hosts=(4, 4), value_bytes=256.0 * MB,
                            chunk_bytes=1.0 * MB)
    assert model.predict(p_pipe) < model.predict(p_ring)


def test_pipelined_pays_per_chunk_launch_latency():
    """Pathological chunk counts: the (C-1)*alpha launch term dominates,
    so absurdly small chunks price worse than no chunking."""
    model = make_model(alpha=1e-2)
    tiny = CollectivePlan(algorithm="pipelined_ring", parallelism=2,
                          ranks=8, hosts=(4, 4), value_bytes=64.0 * MB,
                          chunk_bytes=64.0)
    one = CollectivePlan(algorithm="pipelined_ring", parallelism=2,
                         ranks=8, hosts=(4, 4), value_bytes=64.0 * MB,
                         chunk_bytes=1e15)
    assert model.predict(tiny) > model.predict(one)


def test_choose_collective_threads_chunk_bytes_into_plans():
    model = make_model()
    winner, estimates = choose_collective(
        model, 8.0 * MB, slots("h0", "h0", "h1", "h1"),
        ("ring", "pipelined_ring"), (2,), chunk_bytes=1.0 * MB)
    assert {p.algorithm for p, _ in estimates} == {"ring",
                                                   "pipelined_ring"}
    for p, _ in estimates:
        assert p.chunk_bytes == 1.0 * MB


def test_model_ranks_pipelined_first_on_merge_heavy_cells():
    model = make_model(merge=120 * MB)
    winner, _ = choose_collective(
        model, 256.0 * MB, slots("h0", "h0", "h1", "h1"),
        ("ring", "pipelined_ring"), (2,), chunk_bytes=4.0 * MB)
    assert winner.algorithm == "pipelined_ring"


def test_ties_still_break_to_the_seed_ring():
    """With one column the two formulas coincide; listing ring first must
    keep the seed choice on the tie."""
    model = make_model()
    winner, _ = choose_collective(
        model, 8.0 * MB, slots("h0", "h0", "h1", "h1"),
        ("ring", "pipelined_ring"), (2,), chunk_bytes=1e15)
    assert winner.algorithm == "ring"
