"""Open-loop multi-tenant traffic for the job service.

Each :class:`TenantProfile` describes one tenant's submission behaviour:
seeded-Poisson arrival times (exponential gaps), with ``burst`` jobs
submitted back-to-back per arrival to model a tenant launching a
hyper-parameter sweep. :func:`arrival_schedule` materializes the whole
schedule as plain data *before* anything runs — the same profiles + seed
always yield the same :class:`Arrival` list (``random.Random`` seeded
with a string hashes via SHA-512, stable across processes), so the exact
job mix can be replayed concurrently, serialized, or in isolation for
identity checks. :func:`run_open_loop` then drives a session's service
with it in virtual time.

Open-loop means arrivals do not wait for earlier jobs to finish: a slow
service builds a backlog instead of silently throttling the offered load
(the usual closed-loop measurement mistake).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

from ..core.spec import AggregationSpec

__all__ = ["TenantProfile", "Arrival", "TrafficResult",
           "arrival_schedule", "run_open_loop"]


@dataclass(frozen=True)
class TenantProfile:
    """One tenant's submission behaviour."""

    name: str
    pool: str = "default"
    #: candidate workload names, sampled uniformly per submission
    workloads: Tuple[str, ...] = ("LR-A", "SVM-A")
    #: candidate aggregation specs, sampled uniformly per submission
    #: (None entries mean the service default)
    specs: Tuple[Optional[AggregationSpec], ...] = (None,)
    #: mean virtual seconds between arrivals (exponential gaps)
    mean_interarrival: float = 30.0
    #: total jobs this tenant submits
    jobs: int = 8
    #: jobs submitted back-to-back per arrival (hyper-parameter sweeps)
    burst: int = 1
    iterations: int = 2
    aggregation: str = "tree"
    partitions: Optional[int] = None


@dataclass(frozen=True)
class Arrival:
    """One materialized submission of the schedule."""

    time: float  # virtual seconds after traffic start
    tenant: str
    pool: str
    workload: str
    spec: Optional[AggregationSpec]
    aggregation: str
    iterations: int
    partitions: Optional[int]

    @property
    def signature(self) -> Tuple:
        """Everything that determines the trained model (not *when* it
        ran) — the dedup key for isolated identity runs."""
        return (self.workload, self.aggregation, self.iterations,
                self.partitions, repr(self.spec))


def arrival_schedule(tenants: Sequence[TenantProfile],
                     seed: int = 0) -> List[Arrival]:
    """The full deterministic schedule, sorted by arrival time.

    Ties (bursts, cross-tenant coincidences) break by tenant name then
    materialization order, so the submission sequence is total-ordered.
    """
    arrivals: List[Arrival] = []
    for profile in tenants:
        rng = random.Random(f"{seed}:{profile.name}")
        now = 0.0
        submitted = 0
        while submitted < profile.jobs:
            now += rng.expovariate(1.0 / profile.mean_interarrival)
            for _ in range(min(profile.burst, profile.jobs - submitted)):
                arrivals.append(Arrival(
                    time=now, tenant=profile.name, pool=profile.pool,
                    workload=rng.choice(profile.workloads),
                    spec=rng.choice(profile.specs),
                    aggregation=profile.aggregation,
                    iterations=profile.iterations,
                    partitions=profile.partitions))
                submitted += 1
    arrivals.sort(key=lambda a: (a.time, a.tenant))
    return arrivals


@dataclass
class TrafficResult:
    """Outcome of one open-loop run."""

    #: (arrival, handle) pairs in submission order
    submissions: List[Tuple[Arrival, Any]] = field(default_factory=list)
    #: virtual time from traffic start to last completion
    makespan: float = 0.0

    @property
    def handles(self) -> List[Any]:
        return [h for _, h in self.submissions]

    @property
    def rejections(self) -> List[Arrival]:
        """Arrivals the service turned away: none, since it admits every
        job and queues those beyond their pool's ``max_running``."""
        return []

    @property
    def latencies(self) -> List[float]:
        return sorted(h.latency for h in self.handles
                      if h.latency is not None)


def submit_arrival(session, arrival: Arrival):
    """Submit one materialized arrival; its handle."""
    return session.submit(
        arrival.workload, spec=arrival.spec, pool=arrival.pool,
        tenant=arrival.tenant, aggregation=arrival.aggregation,
        iterations=arrival.iterations, partitions=arrival.partitions)


def run_open_loop(session, tenants: Sequence[TenantProfile],
                  seed: int = 0) -> TrafficResult:
    """Drive ``session``'s service with all tenants until the last job ends.

    The materialized schedule is submitted by a simulation process on
    the shared virtual clock, so arrival order is part of the
    deterministic event sequence. Returns after the reactor drains.
    """
    env = session.server.sc.env
    result = TrafficResult()
    began = env.now
    schedule = arrival_schedule(tenants, seed)
    live = [True]

    def submitter():
        for arrival in schedule:
            wait = began + arrival.time - env.now
            if wait > 0:
                yield env.timeout(wait)
            result.submissions.append(
                (arrival, submit_arrival(session, arrival)))
        live[0] = False

    # submissions[:settled[0]] are finished, and a finished job
    # stays finished: the pump's predicate resumes where it stopped
    # instead of re-walking every job on every kernel step
    settled = [0]

    def drained() -> bool:
        if live[0]:
            return False
        submissions = result.submissions
        i = settled[0]
        while i < len(submissions) and submissions[i][1].done():
            i += 1
        settled[0] = i
        return i == len(submissions)

    env.process(submitter(), name="traffic:submitter")
    session.server.cooperator.pump(drained)
    result.makespan = env.now - began
    return result
