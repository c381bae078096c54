"""The RFC 2544 testbed: tester + middlebox, discrete-event simulated.

Mirrors Fig. 11: the Tester replays a workload into the Middlebox's
port, the Middlebox runs one NF on one core processing one packet at a
time, and the Tester timestamps what comes back. The middlebox's RX
descriptor ring is bounded, so offered load beyond the service rate
produces RFC 2544 loss — the knee the throughput search finds.

Latency for a forwarded packet is::

    queueing delay + NF processing (cost model) + fixed path overhead
    (+ rare DPDK outlier stall)

measured with "hardware timestamps" (exact simulation times), like the
paper's use of NIC timestamping [49].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Sequence

from repro.nat.base import NetworkFunction
from repro.net.costmodel import CostModel
from repro.net.link import LinkModel
from repro.net.moongen import ConstantRateFlows, PacketEvent
from repro.obs.histogram import LatencyHistogram
from repro.obs.registry import MetricsRegistry

US = 1_000
S = 1_000_000_000


@dataclass
class LatencyStats:
    """Summary of per-packet latencies, nanoseconds."""

    samples: List[int] = field(default_factory=list)

    def add(self, value: int) -> None:
        self.samples.append(value)

    @property
    def count(self) -> int:
        return len(self.samples)

    def average_us(self) -> float:
        if not self.samples:
            return math.nan
        return sum(self.samples) / len(self.samples) / US

    def confidence_interval_us(self) -> float:
        """Half-width of the 95% CI of the mean, microseconds.

        The paper reports ≈20 ns confidence intervals for Fig. 12; this
        is the corresponding statistic for our samples (normal
        approximation, 1.96 σ/√n).
        """
        n = len(self.samples)
        if n < 2:
            return math.nan
        mean = sum(self.samples) / n
        variance = sum((s - mean) ** 2 for s in self.samples) / (n - 1)
        return 1.96 * math.sqrt(variance / n) / US

    def percentile_us(self, fraction: float) -> float:
        if not self.samples:
            return math.nan
        ordered = sorted(self.samples)
        rank = min(len(ordered) - 1, int(fraction * len(ordered)))
        return ordered[rank] / US

    def to_histogram(self) -> LatencyHistogram:
        """The samples as a log2-bucketed, mergeable histogram.

        Built on demand from the exact sample list (the measurement path
        itself stays untouched); per-worker histograms merge exactly, so
        sharded runs aggregate without re-touching raw samples.
        """
        return LatencyHistogram.of(self.samples)

    def ccdf(self) -> List[tuple[float, float]]:
        """(latency_us, P[latency > x]) points, one per distinct sample."""
        if not self.samples:
            return []
        ordered = sorted(self.samples)
        total = len(ordered)
        points: List[tuple[float, float]] = []
        for i, value in enumerate(ordered):
            if i + 1 < total and ordered[i + 1] == value:
                continue
            points.append((value / US, (total - (i + 1)) / total))
        return points


@dataclass
class RunResult:
    """Outcome of one workload replay through the middlebox."""

    offered: int = 0
    forwarded: int = 0
    nf_dropped: int = 0
    queue_dropped: int = 0
    wire_dropped: int = 0
    #: Core busy time and how the work arrived, for burst-mode analysis.
    busy_ns: int = 0
    bursts: int = 0
    burst_packets: int = 0
    probe_latency: LatencyStats = field(default_factory=LatencyStats)
    all_latency: LatencyStats = field(default_factory=LatencyStats)

    @property
    def loss_fraction(self) -> float:
        if self.offered == 0:
            return 0.0
        return self.queue_dropped / self.offered

    @property
    def per_packet_busy_ns(self) -> float:
        """Average core occupancy per processed packet (service cost)."""
        if self.burst_packets == 0:
            return math.nan
        return self.busy_ns / self.burst_packets

    @property
    def avg_burst_fill(self) -> float:
        """Average packets per service burst (1.0 in single-packet mode)."""
        if self.bursts == 0:
            return math.nan
        return self.burst_packets / self.bursts

    def register_metrics(self, registry, labels=None) -> None:
        """Publish this run's counters and latency distributions."""
        for name, fn, help_text in (
            ("testbed_offered_total", lambda: self.offered, "measured packets offered"),
            ("testbed_forwarded_total", lambda: self.forwarded, "measured packets forwarded"),
            ("testbed_nf_dropped_total", lambda: self.nf_dropped, "packets the NF dropped"),
            (
                "testbed_queue_dropped_total",
                lambda: self.queue_dropped,
                "packets lost to a full RX ring",
            ),
            (
                "testbed_wire_dropped_total",
                lambda: self.wire_dropped,
                "packets lost on the wire",
            ),
            ("testbed_busy_ns_total", lambda: self.busy_ns, "core busy time, ns"),
        ):
            registry.counter_fn(name, fn, help_text, labels)
        registry.histogram_fn(
            "testbed_latency_ns",
            self.all_latency.to_histogram,
            "per-packet latency, ns (all forwarded packets)",
            labels,
        )
        registry.histogram_fn(
            "testbed_probe_latency_ns",
            self.probe_latency.to_histogram,
            "per-packet latency, ns (probe packets)",
            labels,
        )

    def metrics_snapshot(self, nf: Optional[NetworkFunction] = None) -> dict:
        """One collected snapshot of this run (plus its NF, if given)."""
        registry = MetricsRegistry()
        self.register_metrics(registry)
        if nf is not None:
            nf.register_metrics(registry)
        return registry.snapshot()


@dataclass
class ThroughputResult:
    """RFC 2544 binary-search outcome for one configuration."""

    flow_count: int
    max_mpps: float
    loss_fraction: float


@dataclass
class ShardedRunResult:
    """Outcome of one workload replay through N parallel workers.

    Each worker is an independent single-core middlebox with its own
    queue; this holds one :class:`RunResult` per worker plus the
    steering spread. Aggregates are sums — the workers run on separate
    cores, so their busy times overlap in wall-clock terms and the
    aggregate service capacity is the *sum* of per-worker rates
    (:meth:`aggregate_mpps`), not the rate implied by summed busy time.
    """

    per_worker: List[RunResult] = field(default_factory=list)
    #: All packets steered to each worker (warm-up included).
    steered: List[int] = field(default_factory=list)
    #: The shard NFs the run drove, in worker order — populated by
    #: :meth:`Rfc2544Testbed.run_spec` (which owns their construction)
    #: so callers can read counters without rebuilding the shards.
    nfs: Optional[List[NetworkFunction]] = None

    @property
    def workers(self) -> int:
        return len(self.per_worker)

    def op_counters(self) -> dict:
        """NF operation counters summed across shards (run_spec runs)."""
        aggregate: dict = {}
        for nf in self.nfs or []:
            for key, value in nf.op_counters().items():
                aggregate[key] = aggregate.get(key, 0) + value
        return aggregate

    @property
    def offered(self) -> int:
        return sum(r.offered for r in self.per_worker)

    @property
    def forwarded(self) -> int:
        return sum(r.forwarded for r in self.per_worker)

    @property
    def nf_dropped(self) -> int:
        return sum(r.nf_dropped for r in self.per_worker)

    @property
    def queue_dropped(self) -> int:
        return sum(r.queue_dropped for r in self.per_worker)

    @property
    def loss_fraction(self) -> float:
        offered = self.offered
        if offered == 0:
            return 0.0
        return self.queue_dropped / offered

    @property
    def burst_packets(self) -> int:
        return sum(r.burst_packets for r in self.per_worker)

    @property
    def per_packet_busy_ns(self) -> float:
        """Mean core occupancy per packet across workers (per-core cost)."""
        packets = self.burst_packets
        if packets == 0:
            return math.nan
        return sum(r.busy_ns for r in self.per_worker) / packets

    def per_worker_mpps(self) -> List[float]:
        """Each worker's service-limited forwarding rate, Mpps."""
        rates: List[float] = []
        for result in self.per_worker:
            busy = result.per_packet_busy_ns
            rates.append(1_000.0 / busy if result.burst_packets and busy > 0 else 0.0)
        return rates

    def aggregate_mpps(self) -> float:
        """Service-limited rate of the whole sharded box: sum of workers."""
        return sum(self.per_worker_mpps())

    def metrics_snapshot(
        self, nfs: Optional[Sequence[NetworkFunction]] = None
    ) -> dict:
        """One merged snapshot: per-worker labeled runs (plus their NFs)."""
        registry = MetricsRegistry()
        for worker_id, result in enumerate(self.per_worker):
            labels = {"worker": str(worker_id)}
            result.register_metrics(registry, labels)
            if nfs is not None:
                nfs[worker_id].register_metrics(registry, labels)
        return registry.snapshot()


@dataclass
class _Job:
    arrival_ns: int
    event: PacketEvent
    jitter_ns: int = 0


class Rfc2544Testbed:
    """Single-server FIFO middlebox fed by a time-ordered workload.

    With ``burst_size == 1`` (the default) the middlebox serves one
    packet per NF invocation — the paper's configuration. A larger
    ``burst_size`` models a DPDK main loop: each service turn picks up
    every packet already queued when service starts (up to the burst
    size), hands them to ``nf.process_burst`` in one call, and charges
    the cost model's per-burst fixed cost once — so bursts grow, and
    per-packet cost falls, exactly when the box is under pressure.
    """

    def __init__(
        self,
        cost_model: Optional[CostModel] = None,
        rx_capacity: int = 512,
        measure_from_ns: int = 0,
        link: Optional[LinkModel] = None,
        burst_size: int = 1,
        workers: int = 1,
    ) -> None:
        if burst_size <= 0:
            raise ValueError("burst size must be positive")
        if workers <= 0:
            raise ValueError("worker count must be positive")
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.rx_capacity = rx_capacity
        #: Events before this time are warm-up: processed but unmeasured.
        self.measure_from_ns = measure_from_ns
        #: Optional wire impairment (jitter + loss); None = clean links.
        self.link = link
        self.burst_size = burst_size
        #: Parallel worker cores :meth:`run_spec` models; :meth:`run` is
        #: one core regardless.
        self.workers = workers

    # -- workload replay ---------------------------------------------------------
    def run(self, nf: NetworkFunction, events: Iterable[PacketEvent]) -> RunResult:
        """One middlebox core: the one-worker case of the sharded replay
        (no steering cost, and a burst of one is the paper's per-packet
        service)."""
        return self._replay_shards([nf], lambda _packet: 0, events).per_worker[0]

    # -- sharded replay: N parallel worker cores ---------------------------------
    def run_spec(
        self, spec, events: Iterable[PacketEvent]
    ) -> ShardedRunResult:
        """Replay a workload through the deployment a spec describes.

        The analytic counterpart of :func:`repro.net.app.launch`: builds
        the spec's shard NFs (partitioned config, optional fastpath
        wrappers) and NAT-aware steering, then runs the discrete-event
        model. ``spec.execution`` does not change the outcome here — the
        model always assumes one real core per worker, which is exactly
        what the ``process`` mode provides and the deterministic mode
        simulates. Replication specs are refused: the analytic model
        neither replicates nor recovers.
        """
        if spec.replication_lag is not None:
            raise ValueError(
                "run_spec models plain data paths; a replicated deployment "
                "runs through launch() in a sharded execution"
            )
        if spec.workers != self.workers:
            raise ValueError(
                f"testbed configured for {self.workers} worker(s), "
                f"spec wants {spec.workers}"
            )
        from repro.net.dpdk import build_nf
        from repro.net.rss import NatSteering

        shards = spec.resolved_config().partition(spec.workers)
        nfs = [build_nf(spec.nf_factory, cfg, spec.fastpath) for cfg in shards]
        steering = NatSteering(shards)
        outcome = self._replay_shards(nfs, steering.worker_for, events)
        outcome.nfs = nfs
        return outcome

    def _replay_shards(
        self,
        nfs: Sequence[NetworkFunction],
        steer: Callable[..., int],
        events: Iterable[PacketEvent],
    ) -> ShardedRunResult:
        """Replay a workload through N workers selected by ``steer``.

        Models the sharded data path: every worker is an independent
        single-server FIFO (its own RX ring of ``rx_capacity``, its own
        burst service loop, its own NF), and an RSS-style steering
        function maps each arriving packet to its worker — pass
        :meth:`repro.net.rss.NatSteering.worker_for` for NAT-correct
        return-traffic steering. Workers run on separate cores: each has
        its own ``free_at`` clock, so their service times overlap.
        The cost model additionally charges
        :meth:`~repro.net.costmodel.CostModel.steering_overhead_ns`
        per packet when more than one worker is configured.
        """
        n = len(nfs)
        results = [RunResult() for _ in range(n)]
        steered = [0] * n
        queues: List[List[_Job]] = [[] for _ in range(n)]
        heads = [0] * n
        free_at = [0] * n
        steer_ns = self.cost_model.steering_overhead_ns(n)

        def serve(w: int) -> None:
            result = results[w]
            queue = queues[w]
            first = queue[heads[w]]
            start = max(free_at[w], first.arrival_ns)
            batch = [first]
            scan = heads[w] + 1
            while (
                scan < len(queue)
                and len(batch) < self.burst_size
                and queue[scan].arrival_ns <= start
            ):
                batch.append(queue[scan])
                scan += 1
            heads[w] = scan
            now_us = start // US
            outputs = nfs[w].process_burst([j.event.packet for j in batch], now_us)
            latency_ns, service_ns = self.cost_model.burst_costs(nfs[w], len(batch))
            latency_ns += steer_ns
            service_ns += steer_ns * len(batch)
            free_at[w] = start + service_ns
            result.busy_ns += service_ns
            result.bursts += 1
            result.burst_packets += len(batch)
            for job, out in zip(batch, outputs):
                if not out:
                    result.nf_dropped += 1
                    continue
                if job.arrival_ns >= self.measure_from_ns:
                    total = (
                        (start - job.arrival_ns)
                        + latency_ns
                        + job.jitter_ns
                        + self.cost_model.path_overhead_ns(nfs[w])
                        + self.cost_model.sample_outlier_ns()
                    )
                    result.all_latency.add(total)
                    if job.event.probe:
                        result.probe_latency.add(total)

        for event in events:
            target = steer(event.packet)
            measured = event.time_ns >= self.measure_from_ns
            if measured:
                results[target].offered += 1
            steered[target] += 1
            jitter_ns = 0
            if self.link is not None:
                jitter_ns, wire_dropped = self.link.transit(event.time_ns // US)
                if wire_dropped:
                    if measured:
                        results[target].wire_dropped += 1
                    continue
            # Every worker core drains its own queue up to this arrival.
            for w in range(n):
                while heads[w] < len(queues[w]):
                    start = max(free_at[w], queues[w][heads[w]].arrival_ns)
                    if start >= event.time_ns:
                        break
                    serve(w)
            if len(queues[target]) - heads[target] >= self.rx_capacity:
                if measured:
                    results[target].queue_dropped += 1
                continue
            queues[target].append(
                _Job(arrival_ns=event.time_ns, event=event, jitter_ns=jitter_ns)
            )
        for w in range(n):
            while heads[w] < len(queues[w]):
                serve(w)

        for result in results:
            result.forwarded = result.all_latency.count
        return ShardedRunResult(per_worker=results, steered=steered)

    # -- RFC 2544 throughput search -------------------------------------------------
    def max_throughput(
        self,
        nf_factory: Callable[[], NetworkFunction],
        flow_count: int,
        *,
        max_loss: float = 0.001,
        packet_count: int = 30_000,
        iterations: int = 8,
        rate_hint_pps: Optional[float] = None,
    ) -> ThroughputResult:
        """Binary-search the highest rate with loss below ``max_loss``."""
        # Seed the search window from the NF's steady-state service time:
        # replay a small flow set until lookups are hits, then average.
        if rate_hint_pps is None:
            sample_flows = min(flow_count, 2_000)
            warm = sample_flows
            count = 2_000
            nf = nf_factory()
            model = CostModel()
            total_service_ns = 0
            measured = 0
            events = list(ConstantRateFlows(sample_flows, 1e5, warm + count).events())
            step = self.burst_size
            for i in range(0, len(events), step):
                chunk = events[i : i + step]
                # Estimate steady state at full burst fill, the regime
                # the search's saturating rates operate in.
                nf.process_burst([e.packet for e in chunk], chunk[0].time_ns // US)
                _lat, svc = model.burst_costs(nf, len(chunk))
                if i >= warm:
                    total_service_ns += svc
                    measured += len(chunk)
            rate_hint_pps = S / (total_service_ns / max(1, measured))

        low = rate_hint_pps * 0.7
        high = rate_hint_pps * 1.4
        best = low
        best_loss = 0.0
        for _ in range(iterations):
            rate = (low + high) / 2
            nf = nf_factory()
            workload = ConstantRateFlows(flow_count, rate, packet_count)
            outcome = self.run(nf, workload.events())
            if outcome.loss_fraction <= max_loss:
                best = rate
                best_loss = outcome.loss_fraction
                low = rate
            else:
                high = rate
        return ThroughputResult(
            flow_count=flow_count,
            max_mpps=best / 1e6,
            loss_fraction=best_loss,
        )
