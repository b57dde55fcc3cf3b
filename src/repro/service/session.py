"""``SparkerSession``: the user-facing entry point, sync and async.

The session wraps both ways of running a workload:

* :meth:`SparkerSession.run` — the classic one-shot path: a fresh
  :class:`~repro.rdd.context.SparkerContext` per call, training executed
  synchronously.
* :meth:`SparkerSession.submit` — the multi-tenant service path: the
  job is admitted to the session's shared :class:`JobServer` and runs
  concurrently with other tenants' jobs on one long-lived context;
  the returned :class:`JobHandle` exposes ``result()`` / ``status()`` /
  ``cancel()``.

Service submissions are validated up front: ``topk`` shares
per-executor error-feedback residuals across tenants and is rejected;
recovery policies assume they own the cluster's failure handling and
are rejected; the ``pipelined_ring`` collective streams
aggregators in merge-arrival order (incompatible with the deterministic
ordered-merge mode) and is downgraded to ``ring``, which PR 5 made
byte-identical in result.
"""

from __future__ import annotations

import warnings
from typing import Any, Dict, Optional, Tuple

from ..bench.harness import BreakdownRecorder
from ..cluster import ClusterConfig
from ..core.spec import AggregationSpec
from ..data.registry import SURROGATE_LDA_TOPICS
from ..ml.classification import LogisticRegressionWithSGD, SVMWithSGD
from ..ml.lda import LDA
from ..rdd.context import JobCancelled, SparkerContext
from ..rdd.fair import DEFAULT_POOL, PoolConfig
from .server import JobRecord, JobServer, JobStatus

__all__ = ["SparkerSession", "JobHandle", "JobStatus"]


def _resolve_workload(name: str):
    from ..bench.workloads import WORKLOADS
    try:
        return WORKLOADS[name]
    except KeyError:
        known = ", ".join(WORKLOADS)
        raise KeyError(f"unknown workload {name!r}; known: {known}") from None


def _check_lda_spec(workload, spec: AggregationSpec) -> None:
    if workload.model == "lda" and spec.sparse:
        raise ValueError("sparse applies to the LR/SVM workloads only")


def _train(sc: SparkerContext, workload, rdd, ds, spec: AggregationSpec,
           aggregation: str, iterations: int) -> Tuple[Any, float]:
    """The training call shared by the sync and service paths."""
    if workload.model == "lda":
        model = LDA(
            k=SURROGATE_LDA_TOPICS, num_iterations=iterations,
            aggregation=aggregation, spec=spec,
            size_scale=ds.size_scale, sample_scale=ds.compute_scale,
        ).fit(rdd, ds.surrogate_features)
        return model, -model.log_likelihoods[-1]
    trainer = (LogisticRegressionWithSGD if workload.model == "lr"
               else SVMWithSGD)
    model = trainer.train(
        rdd, ds.surrogate_features,
        num_iterations=iterations,
        step_size=workload.step_size,
        reg_param=workload.reg_param,
        mini_batch_fraction=workload.mini_batch_fraction,
        aggregation=aggregation,
        spec=spec,
        size_scale=ds.size_scale,
        sample_scale=ds.compute_scale,
    )
    return model, model.losses[-1]


def _workload_result(name: str, config: ClusterConfig, aggregation: str,
                     iterations: int, sc: SparkerContext, began: float,
                     recorder: BreakdownRecorder, model: Any,
                     final_loss: float):
    from ..bench.workloads import WorkloadResult
    return WorkloadResult(
        workload=name,
        config_name=config.name,
        num_nodes=config.num_nodes,
        aggregation=aggregation,
        iterations=iterations,
        end_to_end=sc.now - began,
        breakdown=recorder.finish(),
        final_loss=final_loss,
        sim_events=sc.env.events_scheduled,
        tasks_run=sum(e.tasks_run for e in sc.executors),
        final_weights=getattr(model, "weights", None),
    )


def service_spec(spec: Optional[AggregationSpec]) -> AggregationSpec:
    """Validate/adapt an aggregation spec for multi-tenant submission."""
    spec = AggregationSpec.of(spec)
    if spec.topk is not None:
        raise ValueError(
            "service jobs cannot use topk: error-feedback residuals live "
            "per executor and would couple tenants")
    if spec.recovery is not None:
        raise ValueError(
            "service jobs cannot carry a recovery policy: failure "
            "handling on a shared cluster belongs to the server")
    if spec.collective == "pipelined_ring":
        warnings.warn(
            "service jobs downgrade collective='pipelined_ring' to "
            "'ring': streaming aggregators in merge-arrival order is "
            "incompatible with the deterministic ordered-merge mode "
            "(results are identical; overlap is lost)",
            RuntimeWarning, stacklevel=3)
        spec = spec.replace(collective="ring")
    return spec


class JobHandle:
    """Client-side handle to one asynchronously submitted job."""

    def __init__(self, server: JobServer, record: JobRecord):
        self._server = server
        self._record = record

    @property
    def job_id(self) -> int:
        return self._record.service_job_id

    @property
    def workload(self) -> str:
        return self._record.workload

    @property
    def pool(self) -> str:
        return self._record.pool

    def status(self) -> str:
        """Current :class:`JobStatus` constant."""
        return self._record.status

    def done(self) -> bool:
        return self._record.done

    def result(self):
        """Block until the job finishes; return its
        :class:`~repro.bench.workloads.WorkloadResult`.

        Re-raises the job's exception if it failed or was cancelled.
        Callable from the submitting thread (pumps the service reactor)
        or from inside another job (parks that job).
        """
        record = self._server.wait(self._record)
        if record.exception is not None:
            raise record.exception
        if record.status == JobStatus.CANCELLED:
            # withdrawn while still queued: no body ever ran, so there is
            # no captured exception to re-raise
            raise JobCancelled(f"job #{record.service_job_id} cancelled "
                               f"before it started")
        return record.result

    def cancel(self, reason: str = "cancelled") -> bool:
        """Request cancellation; True unless the job already finished."""
        return self._server.cancel(self._record, reason)

    @property
    def latency(self) -> Optional[float]:
        return self._record.latency

    def __repr__(self) -> str:
        return (f"<JobHandle #{self.job_id} {self.workload} "
                f"{self.status()}>")


class SparkerSession:
    """One user-facing entry point for both execution modes.

    Parameters
    ----------
    config:
        Cluster platform (both for one-shot :meth:`run` contexts and the
        shared service context); defaults to the ``laptop`` preset.
    pools:
        FAIR pool configurations for the service path.
    default_pool:
        Pool for submissions that name none.

    The shared :class:`JobServer` (and with it the service context,
    reactor and arbiter) is created lazily on first :meth:`submit`, so a
    session used only for :meth:`run` carries no service machinery at
    all.
    """

    def __init__(self, config: Optional[ClusterConfig] = None,
                 pools: Optional[Dict[str, PoolConfig]] = None,
                 default_pool: str = DEFAULT_POOL, **context_kwargs: Any):
        self.config = config or ClusterConfig.laptop()
        self._pools = pools
        self._default_pool = default_pool
        self._context_kwargs = context_kwargs
        self._server: Optional[JobServer] = None

    # ------------------------------------------------------------- service
    @property
    def server(self) -> JobServer:
        """The lazily created shared job server."""
        if self._server is None:
            self._server = JobServer(self.config, pools=self._pools,
                                     default_pool=self._default_pool,
                                     **self._context_kwargs)
        return self._server

    # ------------------------------------------------------------ one-shot
    def context(self, **context_kwargs: Any) -> SparkerContext:
        """A fresh one-shot :class:`SparkerContext` on this session's
        platform, for custom driver programs that need the raw RDD API.

        Each call returns a new independent context (own virtual clock,
        own cluster); callers own its lifecycle (``with`` or ``stop()``).
        Session-level ``context_kwargs`` are defaults, call-site ones
        win.
        """
        kwargs = dict(self._context_kwargs)
        kwargs.update(context_kwargs)
        return SparkerContext(self.config, **kwargs)

    def run(self, workload: str, aggregation: str = "tree",
            iterations: int = 3, spec: Optional[AggregationSpec] = None,
            partitions: Optional[int] = None, listener=None):
        """Train one workload synchronously on a fresh context.

        Data generation and cache materialization happen before the
        measured window (the paper measures model training, with datasets
        preloaded MEMORY_ONLY); ``listener`` is subscribed to the event
        bus for that window only. ``spec`` carries every reduction knob.
        Returns a :class:`~repro.bench.workloads.WorkloadResult`.
        """
        wl = _resolve_workload(workload)
        ds = wl.spec
        spec = AggregationSpec.of(spec)
        _check_lda_spec(wl, spec)
        # stop() on exit takes the listener off the bus and frees the blocks
        with self.context() as sc:
            n_parts = partitions or sc.default_parallelism

            samples, _truth = ds.generate()
            rdd = sc.parallelize(samples, n_parts).cache()
            rdd.count()  # materialize MEMORY_ONLY before the window

            if listener is not None:
                sc.event_bus.subscribe(listener)
            recorder = BreakdownRecorder(sc)
            began = sc.now
            model, final_loss = _train(sc, wl, rdd, ds, spec, aggregation,
                                       iterations)
            return _workload_result(workload, self.config, aggregation,
                                    iterations, sc, began, recorder, model,
                                    final_loss)

    # -------------------------------------------------------------- submit
    def submit(self, workload: str, spec: Optional[AggregationSpec] = None,
               *, pool: Optional[str] = None, tenant: str = "anonymous",
               aggregation: str = "tree", iterations: int = 3,
               partitions: Optional[int] = None,
               listener=None) -> JobHandle:
        """Submit one workload to the shared multi-tenant service.

        Returns immediately with a :class:`JobHandle`; the job runs when
        the service reactor is pumped (``handle.result()``,
        ``session.server.drain()``, or any other handle's ``result()``).
        ``pool`` selects the FAIR pool tasks are billed to; ``listener``
        is subscribed to the shared bus for the job's duration only.
        """
        wl = _resolve_workload(workload)
        ds = wl.spec
        spec = AggregationSpec.of(spec)
        _check_lda_spec(wl, spec)
        spec = service_spec(spec)
        server = self.server
        sc = server.sc

        def body():
            n_parts = partitions or sc.default_parallelism

            def load_dataset():
                samples, _truth = ds.generate()
                rdd = sc.parallelize(samples, n_parts).cache()
                rdd.count()
                return rdd

            rdd = server.shared(("dataset", wl.dataset_name, n_parts),
                                load_dataset)
            if listener is not None:
                sc.event_bus.subscribe(listener)
            try:
                recorder = BreakdownRecorder(sc)
                began = sc.now
                model, final_loss = _train(sc, wl, rdd, ds, spec,
                                           aggregation, iterations)
                return _workload_result(workload, self.config, aggregation,
                                        iterations, sc, began, recorder,
                                        model, final_loss)
            finally:
                if listener is not None:
                    try:
                        sc.event_bus.unsubscribe(listener)
                    except ValueError:  # bus already closed/cleared
                        pass

        record = server.submit(body, pool=pool, tenant=tenant,
                               workload=workload)
        return JobHandle(server, record)

    # ------------------------------------------------------------ teardown
    def close(self) -> None:
        """Close the service (if started); idempotent."""
        if self._server is not None:
            self._server.close()

    def __enter__(self) -> "SparkerSession":
        return self

    def __exit__(self, *_exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        service = (repr(self._server) if self._server is not None
                   else "service not started")
        return f"<SparkerSession {self.config.name!r} {service}>"
