"""Shared harness for the fault-injection suite.

``run_split_agg`` runs one split aggregation of a fixed integer-valued
workload (exact float addition, so recovery must reproduce the fault-free
result *bitwise*) under an optional plan, and reports everything the
tests assert on: the result array, the final virtual time, and the
controller's injected/recovery records.
"""

import warnings
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np
import pytest

from repro.cluster import ClusterConfig
from repro.core import AggregationSpec
from repro.faults import FaultController, FaultPlan, RecoveryPolicy
from repro.rdd import SparkerContext
from repro.serde import SizedPayload

PAYLOAD_ARGS = dict(
    seq_op=lambda a, x: a.merge_inplace(x),
    split_op=lambda u, i, n: u.split(i, n),
    reduce_op=lambda a, b: a.merge(b),
    concat_op=SizedPayload.concat,
)

N_ITEMS = 24
N_PARTITIONS = 8
WIDTH = 64


def make_context(num_nodes: int = 4) -> SparkerContext:
    return SparkerContext(ClusterConfig.laptop(num_nodes=num_nodes))


def expected_sum() -> np.ndarray:
    return np.sum([np.full(WIDTH, float(i)) for i in range(N_ITEMS)],
                  axis=0)


@dataclass
class AggRun:
    """One split aggregation's observable outcome."""

    result: np.ndarray
    now: float
    injected: List = field(default_factory=list)
    actions: List = field(default_factory=list)

    @property
    def action_names(self) -> List[str]:
        return [a.action for a in self.actions]


def run_split_agg(plan: Optional[FaultPlan] = None,
                  recovery: Optional[RecoveryPolicy] = None,
                  num_nodes: int = 4, parallelism: int = 4,
                  sc: Optional[SparkerContext] = None,
                  collective: str = "ring",
                  chunk_bytes: Optional[float] = None) -> AggRun:
    """Aggregate the fixed workload, optionally under an armed plan.

    ``collective``/``chunk_bytes`` select the reduce-scatter strategy
    (``"pipelined_ring"`` exercises the resilient streamed path).
    """
    if sc is None:
        sc = make_context(num_nodes)
    controller = None
    if plan is not None:
        controller = FaultController(sc, plan, recovery).arm()
    data = [SizedPayload(np.full(WIDTH, float(i))) for i in range(N_ITEMS)]
    rdd = sc.parallelize(data, N_PARTITIONS)
    spec_kwargs = dict(collective=collective, parallelism=parallelism,
                       recovery=None if plan is not None else recovery)
    if chunk_bytes is not None:
        spec_kwargs["chunk_bytes"] = chunk_bytes
    result = rdd.split_aggregate(
        lambda: SizedPayload(np.zeros(WIDTH)),
        spec=AggregationSpec(**spec_kwargs), **PAYLOAD_ARGS)
    return AggRun(result=result.data, now=sc.now,
                  injected=list(controller.injected) if controller else [],
                  actions=list(controller.actions) if controller else [])


def run_announced(**kwargs) -> AggRun:
    """:func:`run_split_agg` of a stream a fault may downgrade: each
    ``streamed_abort`` the controller records is announced by exactly one
    RuntimeWarning, and the run warns nothing else."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run = run_split_agg(**kwargs)
    assert all(w.category is RuntimeWarning
               and "downgraded to the phased path" in str(w.message)
               for w in caught), [str(w.message) for w in caught]
    assert len(caught) == run.action_names.count("streamed_abort")
    return run


@pytest.fixture(scope="module")
def baseline() -> AggRun:
    """The fault-free run every recovery test compares against bitwise."""
    return run_split_agg()
