#!/usr/bin/env python3
"""The job service and the trace toolchain, end to end.

Three tenants share one driver through ``SparkerSession.submit``: an
interactive LR job on the split path, and two batch SVM jobs in a pool
that runs one job at a time, so the second waits in the pool's queue and
is cancelled there. An ``EventLogWriter`` records the whole session. The
example then checks what the service promises — a shared job's weights
are byte-identical to the same cell trained alone — reads where the task
slots went, and hands the log to the ``python -m repro.obs`` report,
which also writes a Chrome/Perfetto trace.

Run:  python examples/service_and_trace.py   (writes two files into cwd)
"""

import json
from pathlib import Path

from repro import AggregationSpec, ClusterConfig, SparkerSession
from repro.obs import EventLogWriter
from repro.obs.__main__ import main as obs_report
from repro.service import JobStatus, PoolConfig

CONFIG = ClusterConfig.laptop(num_nodes=2)
SPLIT = AggregationSpec(collective="hd", parallelism=2)
LOG = Path("service_events.jsonl")
TRACE = Path("service_trace.json")


def submit_burst(session):
    """The three jobs, in submission order; the last one is queued."""
    cell = dict(iterations=2, partitions=4)
    return [
        session.submit("LR-A", SPLIT, pool="interactive", tenant="ads",
                       aggregation="split", **cell),
        session.submit("SVM-A", pool="batch", tenant="fraud",
                       aggregation="tree_imm", **cell),
        session.submit("SVM-A", pool="batch", tenant="fraud",
                       aggregation="tree_imm", **cell),
    ]


def main() -> None:
    pools = {"interactive": PoolConfig(weight=2.0),
             "batch": PoolConfig(weight=1.0, max_running=1)}
    with SparkerSession(CONFIG, pools=pools) as session:
        with EventLogWriter(LOG).attached_to(session.server.sc.event_bus):
            lr, svm, late = submit_burst(session)
            assert late.status() == JobStatus.QUEUED
            assert late.cancel("superseded by the first batch job")
            shared = lr.result().final_weights.copy()
            svm.result()
        usage = session.server.slot_utilisation()
        for handle in (lr, svm, late):
            print(f"job #{handle.job_id} {handle.workload:6s} "
                  f"pool={handle.pool:12s} {handle.status()}")
        assert [h.status() for h in (lr, svm, late)] == [
            JobStatus.SUCCEEDED, JobStatus.SUCCEEDED, JobStatus.CANCELLED]

    # The service's promise: sharing the driver changes no result.
    alone = SparkerSession(CONFIG).run(
        "LR-A", aggregation="split", spec=SPLIT, iterations=2,
        partitions=4).final_weights
    assert shared.tobytes() == alone.tobytes()
    print("shared LR weights == the same cell run alone, byte for byte")

    # Where the slots went: every executor ran tasks, no slot was held
    # longer than the window, and the window is the session's clock.
    assert usage["window"] > 0 and usage["idle_executors"] == 0
    for executor_id, row in sorted(usage["executors"].items()):
        assert row["tasks"] > 0 and 0.0 < row["utilisation"] <= 1.0
        print(f"executor {executor_id}: {row['tasks']:3d} tasks, "
              f"{row['utilisation']:.1%} of its slots")

    # The recorded log through the report CLI, with the Chrome trace.
    assert obs_report([str(LOG), "--chrome", str(TRACE), "--metrics",
                       "--window", "0.5"]) == 0
    trace = json.loads(TRACE.read_text(encoding="utf-8"))
    assert trace["traceEvents"]
    print(f"wrote {LOG} and {TRACE} ({len(trace['traceEvents'])} events)")


if __name__ == "__main__":
    main()
