"""Sparker reproduction: efficient reduction for scalable ML on a
Spark-like engine.

A from-scratch Python reproduction of *Sparker: Efficient Reduction for
More Scalable Machine Learning with Spark* (ICPP '21): a deterministic
discrete-event cluster simulator, a Spark-like RDD engine, the split
aggregation interface with a PDR ring reduce-scatter, in-memory merge, an
MLlib-like model library, and a benchmark harness regenerating every table
and figure of the paper's evaluation. See ``DESIGN.md`` for the system
inventory and ``EXPERIMENTS.md`` for paper-vs-measured results.

Quickstart (one workload, classic blocking path)::

    from repro import ClusterConfig, SparkerSession

    session = SparkerSession(ClusterConfig.bic(num_nodes=2))
    result = session.run("LR-A", aggregation="split", iterations=5)
    print(result)

or as a multi-tenant service (see ``repro.service``)::

    with SparkerSession(ClusterConfig.bic()) as session:
        a = session.submit("LR-C", tenant="alice")
        b = session.submit("SVM-A", tenant="bob")
        print(a.result().end_to_end, b.result().end_to_end)

The lower-level building blocks (:class:`SparkerContext`, RDDs, the
aggregation primitives) stay public for custom driver programs.
"""

from .cluster import GB, KB, MB, Cluster, ClusterConfig
from .core import (
    AggregationSpec,
    SpawnRDD,
    split_aggregate,
    tree_aggregate,
)
from .rdd import RDD, SparkerContext
from .service import JobHandle, SparkerSession

__version__ = "1.1.0"

__all__ = [
    "SparkerSession",
    "JobHandle",
    "SparkerContext",
    "ClusterConfig",
    "Cluster",
    "RDD",
    "tree_aggregate",
    "split_aggregate",
    "AggregationSpec",
    "SpawnRDD",
    "KB",
    "MB",
    "GB",
    "__version__",
]
