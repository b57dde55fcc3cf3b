"""Parallel host-side task compute: the engine's multi-core backend.

The simulation kernel is inherently single-threaded — virtual time advances
one event at a time — but the *user compute* inside tasks (seqOps folding
gradients over cached partitions) is pure CPU work whose result the
simulation only consumes. A :class:`HostPool` exploits that: before a stage's
attempt loops are spawned, the DAG scheduler hands the pool the stage's
provable-pure tasks; the pool executes their ``task.run`` bodies on forked
worker processes (broadcast values and cached partitions are shared via
fork's copy-on-write), memoizes ``(result, charged_cost, effects)`` per
task attempt, and the executor *replays* the memo at the exact point the
inline ``task.run`` call would have happened.

Bit-identity contract
---------------------
The pool is a pure memoization layer: it never touches the event queue, and
a replayed memo produces byte-identical state transitions to the inline
call —

* the **result** is the pickled round-trip of the same computation run on
  the same process image (fork), so NumPy payloads are bit-equal;
* the **charge** is the task context's accumulated virtual cost, settled by
  the executor exactly as an inline run's would be;
* **effects** (a ShuffleMapTask's bucket writes) are replayed against the
  executor's shuffle store at claim time — the same synchronous,
  clock-free calls ``run`` would have made;
* **accumulator updates** transfer onto the live task context and publish
  under the normal exactly-once rules.

Anything not *provably* pure falls back to inline execution: tasks with a
shuffle fetch plan, lineage over a cached RDD whose block is missing (a miss
would put blocks and charge materialization), RDDs that opt out via
``host_compute_pure`` (SpawnRDD reads executor-resident IMM state), retried
attempts, re-placed tasks, and any run with tracing active (cache hits emit
:class:`~repro.obs.BlockEvent` at simulated timestamps a worker cannot
know).

Zero-copy result transport
--------------------------
Forked workers serialize memos with pickle protocol 5 and a
``buffer_callback``, which peels every contiguous NumPy buffer in the
memo's object graph (bare ndarray results, the ``buf`` inside an IMM
merge input like ``FlatAggregator``) out of the pickle stream. When the
peeled buffers total at least :data:`_SHM_MIN_BYTES` the worker copies
them into one :mod:`multiprocessing.shared_memory` segment with a
deterministic name (``sparker_hp_<parent pid>_<entry index>``) and ships
only the small pickle head plus buffer sizes through the pipe; the
driver attaches the segment, **unlinks it immediately** (the mapping
outlives the name, so a later crash cannot leak the file), and rebuilds
the arrays as writable views over shared memory — the payload bytes are
never copied or pickled. Sub-threshold or unpicklable-out-of-band
results fall back to in-band pickle frames, byte-identical to the old
transport.

Segment lifecycle: attached segments are parked in a module registry so
their mappings stay valid for as long as the simulation holds views into
them, and an :mod:`atexit` sweep closes them at interpreter shutdown.
If a worker dies between creating a segment and flushing its frame, the
driver reaps the orphan by probing the deterministic names of every
entry it never received (:func:`_reap_orphan`); chaos runs therefore
leave nothing behind in ``/dev/shm``.
"""

from __future__ import annotations

import atexit
import os
import pickle
import struct
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Sequence, Tuple)

try:  # pragma: no cover - absent on some minimal platforms
    from multiprocessing import resource_tracker as _resource_tracker
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _resource_tracker = None
    _shared_memory = None

from .accumulators import pop_task_context, push_task_context
from .task_context import TaskContext
from .tasks import ReducedResultTask, ResultTask, ShuffleMapTask, Task

if TYPE_CHECKING:  # pragma: no cover
    from .context import SparkerContext
    from .executor import Executor
    from .rdd import RDD

__all__ = ["HostPool", "TaskMemo"]

#: pipe frame header: unsigned 64-bit payload length
_HEADER = struct.Struct(">Q")

#: shared-memory segment name prefix (suffix: ``<parent pid>_<entry index>``)
_SHM_PREFIX = "sparker_hp_"
#: smallest total out-of-band payload worth a shared-memory segment; below
#: this the per-segment syscalls cost more than pickling the bytes in-band
_SHM_MIN_BYTES = 4096

#: attached (already unlinked) segments whose mappings back live arrays
_live_segments: List[Any] = []


def _sweep_segments(final: bool = False) -> None:
    """Close every parked segment mapping whose views are gone.

    All parked segments are already unlinked, so nothing here affects
    ``/dev/shm`` — this only releases the driver's own mappings. A close
    raises ``BufferError`` while simulation state still holds array
    views into the mapping; such segments stay parked (``final=False``,
    called between stages and from tests) or have their bookkeeping
    detached so no destructor re-raises at interpreter teardown
    (``final=True``, the :mod:`atexit` path — the OS reclaims the
    mapping at process death).
    """
    kept = []
    while _live_segments:
        seg = _live_segments.pop()
        try:
            seg.close()
        except BufferError:
            if final:  # pragma: no cover - views alive at interpreter exit
                seg._buf = None
                seg._mmap = None
                if getattr(seg, "_fd", -1) >= 0:
                    try:
                        os.close(seg._fd)
                    except OSError:
                        pass
                    seg._fd = -1
            else:
                kept.append(seg)
    _live_segments.extend(kept)


atexit.register(_sweep_segments, final=True)


def _segment_name(parent_pid: int, index: int) -> str:
    return f"{_SHM_PREFIX}{parent_pid}_{index}"


def _encode_frame(index: int, memo: Optional["TaskMemo"],
                  parent_pid: int) -> bytes:
    """Worker-side: serialize ``(index, memo)`` into one pipe frame.

    Contiguous NumPy buffers inside the memo are peeled out-of-band
    (pickle protocol 5); large payloads ride a freshly created
    shared-memory segment, small ones are shipped in-band as bytes.
    The frame is ``(head, segment_name, buffer_sizes, inline_buffers)``.
    """
    proto = pickle.HIGHEST_PROTOCOL
    buffers: List[pickle.PickleBuffer] = []
    try:
        head = pickle.dumps((index, memo), proto,
                            buffer_callback=buffers.append)
    except Exception:
        return pickle.dumps(
            (pickle.dumps((index, None), proto), None, None, None), proto)
    raws = [buf.raw() for buf in buffers]
    total = sum(len(raw) for raw in raws)
    if _shared_memory is not None and total >= _SHM_MIN_BYTES:
        name = _segment_name(parent_pid, index)
        try:
            seg = _shared_memory.SharedMemory(name=name, create=True,
                                              size=total)
        except Exception:
            seg = None
        if seg is not None:
            sizes = []
            offset = 0
            for raw in raws:
                n = len(raw)
                seg.buf[offset:offset + n] = raw
                sizes.append(n)
                offset += n
            seg.close()
            try:
                # The worker hands ownership to the driver, which reaps
                # the segment even if this worker dies before the frame
                # lands (deterministic names); keeping the create-side
                # tracker entry would make the tracker warn about — and
                # try to unlink — names the driver already released.
                _resource_tracker.unregister(seg._name, "shared_memory")
            except Exception:  # pragma: no cover
                pass
            return pickle.dumps((head, name, sizes, None), proto)
    # bytearray, not bytes: NumPy rebuilds out-of-band buffers as views
    # over the object shipped here, and a bytes buffer would make every
    # rebuilt array read-only — downstream merges mutate them in place.
    return pickle.dumps((head, None, None,
                         [bytearray(raw) for raw in raws]), proto)


def _decode_frame(payload: bytes) -> Tuple[int, Optional["TaskMemo"]]:
    """Driver-side: rebuild ``(index, memo)`` from one pipe frame.

    Shared-memory frames attach the worker's segment, unlink it at once
    (so no name can outlive this process, crash included), rebuild the
    memo's arrays as zero-copy views over the mapping, and park the
    segment in :data:`_live_segments` to keep the mapping alive.
    """
    head, name, sizes, inline = pickle.loads(payload)
    if name is None:
        if inline is None:
            return pickle.loads(head)
        return pickle.loads(head, buffers=inline)
    seg = _shared_memory.SharedMemory(name=name)
    try:
        seg.unlink()
        views = []
        offset = 0
        for n in sizes:
            views.append(seg.buf[offset:offset + n])
            offset += n
        result = pickle.loads(head, buffers=views)
    except Exception:
        try:
            seg.close()
        except BufferError:  # pragma: no cover
            pass
        raise
    _live_segments.append(seg)
    return result


def _reap_orphan(parent_pid: int, index: int) -> None:
    """Unlink the segment a dead worker may have left for ``index``."""
    if _shared_memory is None:  # pragma: no cover
        return
    try:
        seg = _shared_memory.SharedMemory(name=_segment_name(parent_pid,
                                                             index))
    except FileNotFoundError:
        return
    except Exception:  # pragma: no cover - permission races etc.
        return
    try:
        seg.unlink()
    except FileNotFoundError:  # pragma: no cover
        pass
    seg.close()


class TaskMemo:
    """The memoized outcome of one precomputed task attempt."""

    __slots__ = ("result", "charged", "effects", "accumulator_updates")

    def __init__(self, result: Any, charged: float,
                 effects: List[Tuple[int, int, int, list, float]],
                 accumulator_updates: Dict[int, Any]):
        self.result = result
        self.charged = charged
        #: recorded ``put_bucket`` calls, in call order
        self.effects = effects
        self.accumulator_updates = accumulator_updates

    def replay(self, ctx: TaskContext, executor: "Executor") -> Any:
        """Apply this memo as if ``task.run(ctx)`` had just executed."""
        for shuffle_id, map_index, reduce_index, records, nbytes in \
                self.effects:
            executor.shuffle_store.put_bucket(
                shuffle_id, map_index, reduce_index, records, nbytes)
        if self.charged > 0:
            ctx.charge(self.charged)
        if self.accumulator_updates:
            ctx.accumulator_updates.update(self.accumulator_updates)
        return self.result


class _RecordingShuffleStore:
    """Worker-side shim capturing a task's bucket writes as replayable data."""

    __slots__ = ("inner", "records")

    def __init__(self, inner: Any):
        self.inner = inner
        self.records: List[Tuple[int, int, int, list, float]] = []

    def put_bucket(self, shuffle_id: int, map_index: int, reduce_index: int,
                   records: list, nbytes: float) -> None:
        self.records.append(
            (shuffle_id, map_index, reduce_index, records, nbytes))

    def __getattr__(self, name: str) -> Any:
        return getattr(self.inner, name)


class HostPool:
    """Multi-process precompute + memoization of pure task bodies.

    Parameters
    ----------
    size:
        Worker process count. ``size <= 1`` disables precompute entirely —
        the engine runs the untouched serial path (this is the benchmark's
        ``pool=1`` arm).
    mode:
        ``"fork"`` (default) runs workers as forked processes;
        ``"inline"`` computes the memos serially in the driver process —
        no parallelism, but it exercises the exact memo/replay machinery
        (used by tests and by platforms without ``os.fork``).
    """

    def __init__(self, size: int = 0, mode: str = "fork"):
        if mode not in ("fork", "inline"):
            raise ValueError(f"unknown hostpool mode {mode!r}")
        if mode == "fork" and not hasattr(os, "fork"):  # pragma: no cover
            mode = "inline"
        self.size = int(size)
        self.mode = mode
        self._memos: Dict[Tuple[int, int, int, int, int], TaskMemo] = {}
        #: counters for the benchmark/profiler: tasks precomputed, memos
        #: claimed, tasks that fell back to inline execution
        self.stats = {"precomputed": 0, "claimed": 0, "inline": 0,
                      "stages_batched": 0}

    @property
    def enabled(self) -> bool:
        return self.size > 1 or self.mode == "inline"

    # ------------------------------------------------------------- purity
    @staticmethod
    def _lineage_pure(rdd: "RDD", partition: int,
                      executor: "Executor") -> bool:
        """True if computing ``partition`` of ``rdd`` on ``executor`` is a
        pure function of process memory (cache hits all the way down)."""
        from .rdd import NarrowDependency

        if not getattr(rdd, "host_compute_pure", True):
            return False
        if rdd.cached:
            if executor.memory_store.contains((rdd.id, partition)):
                return True  # cache hit: compute never recurses past here
            return False  # a miss would put blocks + charge materialization
        for dep in rdd.deps:
            if not isinstance(dep, NarrowDependency):
                return False  # shuffle input: fetched state, stay inline
            if not HostPool._lineage_pure(dep.rdd, partition, executor):
                return False
        return True

    def _offloadable(self, sc: "SparkerContext", task: Task,
                     executor: "Executor") -> bool:
        if sc.event_bus.active:
            return False  # cache hits must emit timestamped BlockEvents
        if not isinstance(task, (ShuffleMapTask, ResultTask,
                                 ReducedResultTask)):
            return False
        if task.fetch_plan():
            return False
        return self._lineage_pure(task.rdd, task.partition, executor)

    # --------------------------------------------------------- precompute
    def precompute(self, sc: "SparkerContext", partitions: Any,
                   task_factory: Callable[[int, int], Task],
                   placed: Sequence["Executor"]) -> None:
        """Batch-execute the offloadable subset of a stage's first attempts,
        each against the executor the stage's placement put it on (``placed``
        by position; empty when placement will fail in-sim: stay inline).

        Called by the DAG scheduler immediately before it spawns the
        stage's attempt loops; consumes no virtual time. Stages run
        strictly sequentially, so any memos left over from a previous
        stage (placement mispredictions) are dropped first, and segment
        mappings whose arrays the simulation has let go are released.
        """
        self._memos.clear()
        _sweep_segments()
        if not self.enabled:
            return
        entries: List[Tuple[Tuple[int, int, int, int, int], Task,
                            "Executor"]] = []
        for partition, executor in zip(partitions, placed):
            task = task_factory(partition, 0)
            if not self._offloadable(sc, task, executor):
                continue
            key = (task.stage_id, task.stage_attempt, task.partition,
                   task.attempt, executor.executor_id)
            entries.append((key, task, executor))
        if not entries:
            return
        if self.mode == "inline" or self.size <= 1 or len(entries) == 1:
            computed = {i: self._compute(task, executor)
                        for i, (_k, task, executor) in enumerate(entries)}
        else:
            computed = self._fork_compute(entries)
        claimed_any = False
        for i, (key, _task, _executor) in enumerate(entries):
            memo = computed.get(i)
            if memo is not None:
                self._memos[key] = memo
                self.stats["precomputed"] += 1
                claimed_any = True
        if claimed_any:
            self.stats["stages_batched"] += 1

    @staticmethod
    def _compute(task: Task, executor: "Executor") -> Optional[TaskMemo]:
        """Run one task body against ``executor``'s stores, capturing the
        memo. Returns None when the body raises (the inline rerun will
        reproduce the failure inside the simulation, where retry logic
        lives)."""
        recorder = None
        if isinstance(task, ShuffleMapTask):
            recorder = _RecordingShuffleStore(executor.shuffle_store)
            executor.shuffle_store = recorder
        ctx = TaskContext(task.stage_id, task.partition, task.attempt,
                          executor=executor)
        push_task_context(ctx)
        try:
            result = task.run(ctx)
        except Exception:
            return None
        finally:
            pop_task_context()
            if recorder is not None:
                executor.shuffle_store = recorder.inner
        return TaskMemo(result, ctx.charged,
                        recorder.records if recorder is not None else [],
                        ctx.accumulator_updates)

    def _fork_compute(self, entries: list) -> Dict[int, TaskMemo]:
        """Compute ``entries`` on ``min(size, len(entries))`` forked workers.

        Worker ``w`` owns entries ``i`` with ``i % workers == w`` and
        streams back length-prefixed frames built by :func:`_encode_frame`
        (NumPy payloads ride shared memory, the rest in-band pickle);
        entries whose memo fails to serialize are skipped individually
        (the simulation runs them inline instead). Orphaned segments of
        entries whose frame never arrived — a worker crash between
        segment creation and frame flush — are reaped before returning.
        """
        workers = min(self.size, len(entries))
        parent_pid = os.getpid()
        if _resource_tracker is not None:
            # Spawn the resource tracker *before* forking so workers
            # inherit it instead of each lazily spawning their own —
            # a per-worker tracker would outlive its worker and try to
            # clean names the driver has already unlinked.
            try:
                _resource_tracker.ensure_running()
            except Exception:  # pragma: no cover
                pass
        pipes: List[Tuple[int, int]] = []
        pids: List[int] = []
        for w in range(workers):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:  # pragma: no cover - child process
                status = 0
                try:
                    os.close(read_fd)
                    for sibling_read, _closed in pipes:
                        os.close(sibling_read)
                    with os.fdopen(write_fd, "wb") as out:
                        for i in range(w, len(entries), workers):
                            _key, task, executor = entries[i]
                            memo = self._compute(task, executor)
                            payload = _encode_frame(i, memo, parent_pid)
                            out.write(_HEADER.pack(len(payload)))
                            out.write(payload)
                except BaseException:
                    status = 1
                finally:
                    os._exit(status)
            os.close(write_fd)
            pipes.append((read_fd, write_fd))
            pids.append(pid)

        computed: Dict[int, TaskMemo] = {}
        received = set()
        for read_fd, _write_fd in pipes:
            with os.fdopen(read_fd, "rb") as src:
                while True:
                    header = src.read(_HEADER.size)
                    if len(header) < _HEADER.size:
                        break
                    (length,) = _HEADER.unpack(header)
                    payload = src.read(length)
                    if len(payload) < length:
                        break  # worker died mid-frame; its entries inline
                    try:
                        i, memo = _decode_frame(payload)
                    except Exception:
                        continue
                    received.add(i)
                    if memo is not None:
                        computed[i] = memo
        for pid in pids:
            os.waitpid(pid, 0)
        for i in range(len(entries)):
            if i not in received:
                _reap_orphan(parent_pid, i)
        return computed

    # -------------------------------------------------------------- claim
    def claim(self, task: Task, executor: "Executor") -> Optional[TaskMemo]:
        """Pop the memo for this exact attempt on this exact executor.

        Retries (``attempt > 0``), stage reattempts, and re-placements all
        miss by construction of the key, falling back to inline execution.
        """
        if not self._memos:
            return None
        key = (task.stage_id, task.stage_attempt, task.partition,
               task.attempt, executor.executor_id)
        memo = self._memos.pop(key, None)
        if memo is not None:
            self.stats["claimed"] += 1
        return memo

    def close(self) -> None:
        """Release pool-held resources (idempotent).

        Workers are forked per :meth:`precompute` call and reaped there,
        so the only durable state is the memo table and any parked
        shared-memory mappings whose arrays the simulation has let go.
        Context teardown calls this so chaos runs — a job raising
        mid-stage — cannot strand either across context lifetimes.
        """
        self._memos.clear()
        _sweep_segments()

    def __repr__(self) -> str:
        return (f"<HostPool size={self.size} mode={self.mode} "
                f"stats={self.stats}>")
