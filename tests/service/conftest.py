"""Shared by the service tests: a hung baton fails fast, and one fixed
multi-tenant open-loop session."""

import dataclasses
import faulthandler

import pytest

from repro import AggregationSpec, ClusterConfig
from repro.service import (PoolConfig, SparkerSession, TenantProfile,
                           run_open_loop)

#: no service test comes near this; a lost wake-up waits forever
HUNG_AFTER_S = 120


@pytest.fixture(autouse=True)
def hung_baton_fails_fast():
    """A wake-up the reactor lost parks every thread for good. Dump every
    thread's stack and exit after two minutes instead of stalling the
    suite until the CI job times out."""
    faulthandler.dump_traceback_later(HUNG_AFTER_S, exit=True)
    yield
    faulthandler.cancel_dump_traceback_later()


#: three tenants in two FAIR pools: LR and SVM jobs over ``tree_imm`` and
#: phased ``hd`` and ``ring`` splits, a burst of three, and a pool whose
#: ``max_running`` queues jobs; 16 jobs in all
TENANTS = (
    TenantProfile("ads", pool="gold", workloads=("LR-A",),
                  specs=(AggregationSpec(collective="hd", parallelism=2),),
                  aggregation="split", mean_interarrival=6.0, jobs=5,
                  iterations=1, partitions=4),
    TenantProfile("fraud", pool="silver", workloads=("SVM-A",),
                  aggregation="tree_imm", mean_interarrival=8.0, jobs=5,
                  iterations=1, partitions=4),
    TenantProfile("sweep", pool="silver", workloads=("LR-A",),
                  specs=(AggregationSpec(collective="ring", parallelism=2),),
                  aggregation="split", mean_interarrival=20.0, jobs=6,
                  burst=3, iterations=1, partitions=4),
)


def open_loop_session(stretch: float = 1.0, listener=None, seed: int = 5):
    """Run :data:`TENANTS` open loop on a fresh two-node session, every
    inter-arrival gap ``stretch`` times the profile's; returns the
    traffic result and the session's cooperator."""
    tenants = [dataclasses.replace(
        tenant, mean_interarrival=tenant.mean_interarrival * stretch)
        for tenant in TENANTS]
    pools = {"gold": PoolConfig(weight=2.0),
             "silver": PoolConfig(weight=1.0, max_running=2)}
    with SparkerSession(ClusterConfig.laptop(2), pools=pools) as session:
        if listener is not None:
            session.server.sc.event_bus.subscribe(listener)
        traffic = run_open_loop(session, tenants, seed=seed)
    return traffic, session.server.cooperator
