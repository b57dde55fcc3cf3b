"""Alpha-beta cost model and auto-tuner for the collective registry.

The paper picks its reduction constants by hand: one topology (the PDR
ring) and one parallelism (P=4, after the Figure 14 sweep). This module
turns both into *decisions*: an LogGP-flavoured alpha-beta model
(:class:`CollectiveCostModel`) predicts the reduce+gather time of every
``(algorithm, parallelism)`` candidate from the platform constants the
cluster config already declares — per-message overhead + link latency
(alpha), per-stream and NIC-shared bandwidth (beta), and the merge
bandwidth — and :func:`choose_collective` picks the cheapest.

Two feedback loops calibrate the model online, both fed by the obs layer:

* :class:`CostCalibrator` is an :class:`~repro.obs.EventBus` listener
  that refines alpha from small-message flight times, beta from
  large-message flight times and the achieved NIC rate from
  :class:`~repro.obs.NicSample` readings,
* :meth:`CollectiveCostModel.observe` folds each collective's *measured*
  reduce+gather span (``CollectiveCompleted``) into a per-algorithm EWMA
  correction, so systematic model bias cancels out of the ranking after
  the first few aggregations.

The predictions steer scheduling only — simulated time is always charged
by the actual message/merge machinery — so a wrong estimate can cost
performance, never correctness (every registered algorithm is
bit-identical, see :mod:`repro.comm.collectives`).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..cluster.config import ClusterConfig
from ..obs import MessageDelivered, NicSample
from .ring import DEFAULT_CHUNK_BYTES
from .transport import TransportSpec, sc_transport

__all__ = [
    "CollectivePlan",
    "CollectiveCostModel",
    "CostCalibrator",
    "choose_collective",
    "cost_model_for",
]

#: messages at or below this size calibrate alpha; above, beta
SMALL_MESSAGE_BYTES = 4096.0

#: EWMA weight for per-algorithm prediction corrections
CORRECTION_WEIGHT = 0.5

#: EWMA weight for link-sample calibration (alpha / beta / NIC rate)
SAMPLE_WEIGHT = 0.2


@dataclass(frozen=True)
class CollectivePlan:
    """One candidate configuration the tuner prices.

    ``hosts`` is the executor count per host (any order); ``value_bytes``
    the wire size of one rank's full aggregator (the ``__sim_size__``
    probe, so the density-adaptive sparse format is priced at its actual
    encoded size).
    """

    algorithm: str
    parallelism: int
    ranks: int
    hosts: Tuple[int, ...]
    value_bytes: float
    #: target chunk size for ``pipelined_ring`` (ignored elsewhere)
    chunk_bytes: float = DEFAULT_CHUNK_BYTES
    #: slowdown multiplier on executor-side merge CPU (>= 1.0): the
    #: health registry's price for placing the collective on degraded
    #: nodes (straggling or strike-laden executors). 1.0 = all healthy.
    compute_penalty: float = 1.0

    @property
    def segment_bytes(self) -> float:
        """Mean wire size of one of the ``N * P`` segments."""
        return self.value_bytes / (self.ranks * self.parallelism)

    @property
    def num_hosts(self) -> int:
        return len(self.hosts)


def _host_profile(slots: Sequence[Any]) -> Tuple[int, ...]:
    """Executors per host for a slot sequence (order irrelevant)."""
    counts = Counter(slot.hostname for slot in slots)
    return tuple(sorted(counts.values(), reverse=True))


class CollectiveCostModel:
    """Alpha-beta predictor for the registered reduce-scatter strategies.

    All rates are bytes/second, all times seconds. The base constants
    come straight from :class:`~repro.cluster.config.ClusterConfig` (via
    :meth:`from_config`); :class:`CostCalibrator` and :meth:`observe`
    refine them online.
    """

    def __init__(self, alpha_inter: float, alpha_intra: float,
                 stream_bandwidth: float, nic_bandwidth: float,
                 loopback_stream: float, loopback_bandwidth: float,
                 merge_bandwidth: float, ser_bandwidth: float,
                 deser_bandwidth: float):
        self.alpha_inter = alpha_inter
        self.alpha_intra = alpha_intra
        self.stream_bandwidth = stream_bandwidth
        self.nic_bandwidth = nic_bandwidth
        self.loopback_stream = loopback_stream
        self.loopback_bandwidth = loopback_bandwidth
        self.merge_bandwidth = merge_bandwidth
        self.ser_bandwidth = ser_bandwidth
        self.deser_bandwidth = deser_bandwidth
        #: measured/predicted EWMA per algorithm (1.0 = model exact)
        self.corrections: Dict[str, float] = {}
        #: observations folded in per algorithm, for the tuner report
        self.observations: Dict[str, int] = {}

    @classmethod
    def from_config(cls, config: ClusterConfig,
                    transport: Optional[TransportSpec] = None
                    ) -> "CollectiveCostModel":
        transport = transport or sc_transport(config)
        return cls(
            alpha_inter=transport.overhead + config.inter_node_latency,
            alpha_intra=transport.overhead + config.intra_node_latency,
            stream_bandwidth=(transport.stream_bandwidth
                              or config.tcp_stream_bandwidth),
            nic_bandwidth=config.nic_bandwidth,
            loopback_stream=(transport.loopback_stream_bandwidth
                             or config.loopback_stream_bandwidth),
            loopback_bandwidth=config.loopback_bandwidth,
            merge_bandwidth=config.merge_bandwidth,
            ser_bandwidth=config.ser_bandwidth,
            deser_bandwidth=config.deser_bandwidth,
        )

    # ----------------------------------------------------------- link rates
    def _inter_rate(self, streams_per_nic: float) -> float:
        """Per-stream rate with ``streams_per_nic`` sharing one NIC."""
        return min(self.stream_bandwidth,
                   self.nic_bandwidth / max(1.0, streams_per_nic))

    def _intra_rate(self, streams: float) -> float:
        """Per-stream loopback rate with ``streams`` sharing the path."""
        return min(self.loopback_stream,
                   self.loopback_bandwidth / max(1.0, streams))

    def _merge_rate(self, plan: CollectivePlan) -> float:
        """Executor-side merge bandwidth, slowed by the health penalty.

        A lock-step ring is paced by its slowest rank, so one degraded
        executor stretches *every* merge term; ``compute_penalty = 1.0``
        divides exactly and leaves healthy predictions bit-identical.
        """
        return self.merge_bandwidth / max(plan.compute_penalty, 1.0)

    # ----------------------------------------------------------- prediction
    def predict(self, plan: CollectivePlan) -> float:
        """Calibrated reduce+gather seconds for ``plan``."""
        raw = self.predict_raw(plan)
        return raw * self.corrections.get(plan.algorithm, 1.0)

    def predict_raw(self, plan: CollectivePlan) -> float:
        """Uncalibrated model time for ``plan``'s reduce + driver gather."""
        if plan.algorithm == "ring":
            reduce_time = self._ring_time(plan)
            owners = plan.ranks
        elif plan.algorithm == "pipelined_ring":
            reduce_time = self._pipelined_time(plan)
            owners = plan.ranks
        elif plan.algorithm == "hd":
            reduce_time = self._hd_time(plan)
            owners = 1 << max(0, plan.ranks.bit_length() - 1)
        elif plan.algorithm == "hierarchical":
            reduce_time = self._hier_time(plan)
            owners = min(plan.num_hosts, plan.ranks)
        else:
            raise ValueError(f"no cost formula for {plan.algorithm!r}")
        return reduce_time + self._gather_time(plan, owners)

    def _ring_hop(self, plan: CollectivePlan,
                  seg: float) -> Tuple[float, float]:
        """``(hop_time, alpha)`` for one ring hop carrying ``seg`` bytes.

        One boundary rank per host crosses the NIC; the other E-1 hops
        ride loopback. P channels stream concurrently on each. The
        returned alpha is the per-message overhead of the pacing link.
        """
        p = plan.parallelism
        e_max = max(plan.hosts)
        inter_hop = self.alpha_inter + seg / self._inter_rate(p)
        if e_max > 1:
            intra_hop = (self.alpha_intra
                         + seg / self._intra_rate((e_max - 1) * p))
        else:
            intra_hop = 0.0
        if plan.num_hosts == 1:
            return intra_hop, self.alpha_intra
        if inter_hop >= intra_hop:
            return inter_hop, self.alpha_inter
        return intra_hop, self.alpha_intra

    def _ring_time(self, plan: CollectivePlan) -> float:
        """(N-1) lock-step hops; slowest link type paces every hop."""
        n = plan.ranks
        if n <= 1:
            return 0.0
        seg = plan.segment_bytes
        hop, _alpha = self._ring_hop(plan, seg)
        return (n - 1) * (hop + seg / self._merge_rate(plan))

    def _pipelined_time(self, plan: CollectivePlan) -> float:
        """Chunked ring: wire and merge overlap across chunk columns.

        With ``C`` columns in flight, each of the ``N - 1`` hop steps
        pays the dominant side in full but hides all of the cheaper side
        except one column's pipeline fill::

            max(hop, merge) + min(hop, merge) / C + (C - 1) * alpha

        The alpha surcharge prices the extra per-chunk message overhead,
        so the tuner keeps plain ``ring`` on tiny segments where chunking
        cannot pay for its own headers. ``C = 1`` reduces exactly to
        :meth:`_ring_time`; ``C → ∞`` approaches ``max(hop, merge)``.
        """
        n = plan.ranks
        if n <= 1:
            return 0.0
        seg = plan.segment_bytes
        columns = self._columns(plan)
        hop, alpha = self._ring_hop(plan, seg)
        merge = seg / self._merge_rate(plan)
        step = (max(hop, merge) + min(hop, merge) / columns
                + (columns - 1) * alpha)
        return (n - 1) * step

    @staticmethod
    def _columns(plan: CollectivePlan) -> int:
        """Chunk columns the pipelined ring would use for ``plan``."""
        if plan.chunk_bytes <= 0:
            return 1
        return max(1, int(math.ceil(plan.segment_bytes / plan.chunk_bytes)))

    def _hd_time(self, plan: CollectivePlan) -> float:
        """Pre-fold + log2(N) exchange rounds + the deferred final fold.

        Deferral keeps the wire at ~S/2 per round (each halving doubles
        contributions per state while halving the states shipped), and
        every rank exchanges at once, so E*P streams share each NIC.
        """
        n, p = plan.ranks, plan.parallelism
        if n <= 1:
            return 0.0
        s_chan = plan.value_bytes / p
        m = n.bit_length() - 1
        n2 = 1 << m
        e_max = max(plan.hosts)
        total = 0.0
        extras = n - n2
        if extras:
            streams = max(1.0, extras * p / plan.num_hosts)
            total += (self.alpha_inter
                      + s_chan / self._inter_rate(streams))
        round_bytes = s_chan / 2.0
        round_rate = self._inter_rate(e_max * p)
        total += m * (self.alpha_inter + round_bytes / round_rate)
        # Deferred contributions fold at the end: ~one full channel pass.
        total += (n / n2) * s_chan / self._merge_rate(plan)
        return total

    def _hier_time(self, plan: CollectivePlan) -> float:
        """Loopback leader gather, then H inter-host hops per segment."""
        n, p = plan.ranks, plan.parallelism
        if n <= 1:
            return 0.0
        seg = plan.segment_bytes
        s_chan = plan.value_bytes / p
        e_max = max(plan.hosts)
        h = plan.num_hosts
        total = 0.0
        if e_max > 1:
            rate = self._intra_rate((e_max - 1) * p)
            total += self.alpha_intra + s_chan / rate
        if h > 1:
            # n*P accumulator walks share the H leader NICs.
            rate = self._inter_rate(n * p / h)
            total += h * (self.alpha_inter + seg / rate)
        # Each walk folds all n contributions of its segment in sequence.
        total += (n - 1) * seg / self._merge_rate(plan)
        return total

    def _gather_time(self, plan: CollectivePlan, owners: int) -> float:
        """Owners ship their reduced segments to the driver, concurrently."""
        owners = max(1, owners)
        per_owner = plan.value_bytes / owners
        transfer = plan.value_bytes / min(self.nic_bandwidth,
                                          owners * self.stream_bandwidth)
        return (per_owner / self.ser_bandwidth
                + self.alpha_inter + transfer
                + per_owner / self.deser_bandwidth
                + plan.value_bytes / self.merge_bandwidth)

    # ---------------------------------------------------------- calibration
    def observe(self, algorithm: str, predicted: float,
                measured: float) -> None:
        """Fold one measured reduce+gather span into the correction EWMA."""
        if predicted <= 0.0 or measured <= 0.0:
            return
        raw = predicted / self.corrections.get(algorithm, 1.0)
        if raw <= 0.0:
            return
        ratio = measured / raw
        prior = self.corrections.get(algorithm)
        if prior is None:
            self.corrections[algorithm] = ratio
        else:
            self.corrections[algorithm] = (
                (1.0 - CORRECTION_WEIGHT) * prior
                + CORRECTION_WEIGHT * ratio)
        self.observations[algorithm] = (
            self.observations.get(algorithm, 0) + 1)


class CostCalibrator:
    """Bus listener refining the model's link constants from obs samples.

    Subscribes like any listener (``bus.subscribe(CostCalibrator(model))``)
    and updates the model in place:

    * small :class:`~repro.obs.MessageDelivered` flight times → alpha
      (per-message overhead + latency),
    * large ones → beta (the achieved per-stream rate),
    * :class:`~repro.obs.NicSample` readings → the NIC ceiling, ratcheted
      up to the highest rate actually observed.

    Never touches merge/serde constants — those are CPU-side and the obs
    layer measures them elsewhere.
    """

    def __init__(self, model: CollectiveCostModel):
        self.model = model
        self.alpha_samples = 0
        self.beta_samples = 0
        self.nic_samples = 0

    def on_event(self, event: Any) -> None:
        if isinstance(event, MessageDelivered):
            if event.flight_time <= 0.0:
                return
            if event.nbytes <= SMALL_MESSAGE_BYTES:
                self.model.alpha_inter = (
                    (1.0 - SAMPLE_WEIGHT) * self.model.alpha_inter
                    + SAMPLE_WEIGHT * event.flight_time)
                self.alpha_samples += 1
            else:
                wire = event.flight_time - self.model.alpha_inter
                if wire > 0.0:
                    rate = event.nbytes / wire
                    if rate <= self.model.nic_bandwidth:
                        self.model.stream_bandwidth = (
                            (1.0 - SAMPLE_WEIGHT)
                            * self.model.stream_bandwidth
                            + SAMPLE_WEIGHT * rate)
                        self.beta_samples += 1
        elif isinstance(event, NicSample):
            observed = max(event.in_rate, event.out_rate)
            if observed > self.model.nic_bandwidth:
                self.model.nic_bandwidth = observed
            self.nic_samples += 1


def choose_collective(
    model: CollectiveCostModel,
    value_bytes: float,
    slots: Sequence[Any],
    algorithms: Sequence[str],
    parallelism_candidates: Sequence[int],
    chunk_bytes: float = DEFAULT_CHUNK_BYTES,
    compute_penalty: float = 1.0,
) -> Tuple[CollectivePlan, List[Tuple[CollectivePlan, float]]]:
    """Price every ``(algorithm, parallelism)`` candidate; pick cheapest.

    Returns ``(winner, estimates)`` where ``estimates`` lists every
    candidate with its calibrated prediction (winner included), in the
    deterministic candidate order. Ties break toward the earlier
    candidate, so listing ``"ring"`` first keeps the seed behaviour
    whenever the model sees no advantage elsewhere. ``compute_penalty``
    is the health registry's merge-CPU slowdown for the degraded nodes
    in ``slots`` (1.0 = all healthy, predictions unchanged).
    """
    hosts = _host_profile(slots)
    ranks = len(slots)
    if ranks < 1:
        raise ValueError("choose_collective needs at least one slot")
    estimates: List[Tuple[CollectivePlan, float]] = []
    best: Optional[Tuple[CollectivePlan, float]] = None
    for algorithm in algorithms:
        for p in parallelism_candidates:
            plan = CollectivePlan(algorithm=algorithm, parallelism=p,
                                  ranks=ranks, hosts=hosts,
                                  value_bytes=value_bytes,
                                  chunk_bytes=chunk_bytes,
                                  compute_penalty=compute_penalty)
            predicted = model.predict(plan)
            estimates.append((plan, predicted))
            if best is None or predicted < best[1]:
                best = (plan, predicted)
    assert best is not None
    return best[0], estimates


def cost_model_for(sc: Any) -> CollectiveCostModel:
    """The context's cached cost model, built (and wired) on first use.

    Creates one :class:`CollectiveCostModel` from the context's cluster
    config, subscribes a :class:`CostCalibrator` to the context's event
    bus (when it has one), and caches both on the context so every
    aggregation of a job shares one calibration state.
    """
    model = getattr(sc, "collective_costs", None)
    if model is None:
        model = CollectiveCostModel.from_config(sc.cluster.config)
        sc.collective_costs = model
        bus = getattr(sc, "event_bus", None)
        if bus is not None:
            calibrator = CostCalibrator(model)
            bus.subscribe(calibrator)
            sc.collective_calibrator = calibrator
    return model
