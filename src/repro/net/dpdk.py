"""A DPDK-like runtime: burst receive/transmit over simulated ports.

DPDK's native unit of work is the burst: ``rte_eth_rx_burst`` hands the
main loop up to N packets at once, the NF processes them, and one
``rte_eth_tx_burst`` per output port ships the survivors. The runtime
exposes that API plus :meth:`DpdkRuntime.main_loop_burst`, a complete
main-loop turn that drives any :class:`~repro.nat.base.NetworkFunction`
through its burst entry point with the no-leak discipline Vigor's
ownership tracking enforces (§5.2.4).

:class:`ShardedRuntime` scales that out: N workers, each a private
``DpdkRuntime`` plus an NF built from one shard of a partitioned
:class:`~repro.nat.config.NatConfig`, behind the NAT-aware RSS steering
of :mod:`repro.net.rss`. See ``docs/SCALING.md``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.nat.base import NetworkFunction
from repro.nat.config import NatConfig
from repro.nat.fastpath import FastPathNat, check_fastpath
from repro.net.mbuf import Mbuf, MbufPool
from repro.net.nic import Port, RssNic
from repro.net.rss import NatSteering
from repro.obs import flight
from repro.obs.registry import MetricsRegistry
from repro.packets.headers import Packet


class DpdkRuntime:
    """Ports plus an mbuf pool: the NF's execution environment."""

    def __init__(self, port_count: int = 2, rx_capacity: int = 512, pool_size: int = 4096) -> None:
        if port_count <= 0:
            raise ValueError("need at least one port")
        self.ports: Dict[int, Port] = {
            i: Port(port_id=i, rx_capacity=rx_capacity) for i in range(port_count)
        }
        self.pool = MbufPool(pool_size)
        #: Packets the NF itself decided to drop (its buffers were freed).
        self.nf_dropped = 0
        #: Which worker this runtime serves in a sharded deployment
        #: (0 standalone); labels trace events and metric samples.
        self.worker_id = 0

    def port(self, port_id: int) -> Port:
        return self.ports[port_id]

    # -- the burst API ----------------------------------------------------------
    def rx_burst(self, port_id: int, max_packets: int) -> List[Mbuf]:
        """rte_eth_rx_burst: up to ``max_packets`` buffers from the ring.

        A packet is only popped from the ring once a buffer is secured
        for it; on pool exhaustion it stays queued (counted as
        ``rx_nombuf``, like the hardware counter) rather than being lost.
        """
        port = self.ports[port_id]
        burst: List[Mbuf] = []
        while len(burst) < max_packets:
            if self.pool.free_count == 0:
                if port.rx_pending():
                    port.counters.rx_nombuf += 1
                break
            item = port.rx_pop()
            if item is None:
                break
            timestamp, packet = item
            # Cannot fail: a free buffer was checked for before the pop.
            mbuf = self.pool.alloc(packet, port=port_id, timestamp=timestamp)
            assert mbuf is not None
            burst.append(mbuf)
        return burst

    def tx_burst(self, port_id: int, mbufs: List[Mbuf], timestamp: int) -> int:
        """rte_eth_tx_burst: transmit buffers, returning them to the pool."""
        port = self.ports[port_id]
        for mbuf in mbufs:
            port.transmit(mbuf.packet, timestamp)
            self.pool.free(mbuf)
        return len(mbufs)

    def free(self, mbuf: Mbuf) -> None:
        """rte_pktmbuf_free: drop a packet, returning its buffer."""
        self.pool.free(mbuf)

    # -- the burst main loop ----------------------------------------------------
    def main_loop_burst(
        self, nf: NetworkFunction, now_us: int, burst_size: int = 32
    ) -> int:
        """One main-loop turn: rx_burst → ``nf.process_burst`` → tx_burst.

        Drains every port's RX ring in bursts of ``burst_size``, batches
        transmissions per output port, and frees the buffer of every
        dropped packet. Returns the number of packets processed.
        """
        if burst_size <= 0:
            raise ValueError("burst size must be positive")
        processed = 0
        # One recorder fetch per main-loop turn: with observability off
        # (the default no-op recorder) the per-packet trace calls below
        # are skipped entirely.
        recorder = obs.recorder()
        tracing = recorder.active
        for port_id in sorted(self.ports):
            while True:
                burst = self.rx_burst(port_id, burst_size)
                if not burst:
                    break
                if tracing:
                    for mbuf in burst:
                        recorder.trace(
                            flight.RX,
                            t_us=mbuf.timestamp,
                            worker=self.worker_id,
                            detail=f"port {port_id}",
                        )
                results = nf.process_burst([m.packet for m in burst], now_us)
                staged: Dict[int, List[Mbuf]] = {}
                for mbuf, outputs in zip(burst, results):
                    if not outputs:
                        if tracing:
                            recorder.trace(
                                flight.DROP,
                                t_us=now_us,
                                worker=self.worker_id,
                                reason=flight.REASON_NF_DROP,
                                wire=mbuf.packet.wire_bytes(),
                            )
                        self.free(mbuf)
                        self.nf_dropped += 1
                        continue
                    first = outputs[0]
                    mbuf.packet = first
                    staged.setdefault(first.device, []).append(mbuf)
                    for extra in outputs[1:]:  # multicast/flood NFs
                        clone = self.pool.alloc(extra, extra.device, now_us)
                        if clone is not None:
                            staged.setdefault(extra.device, []).append(clone)
                for out_port, mbufs in sorted(staged.items()):
                    if tracing:
                        for mbuf in mbufs:
                            recorder.trace(
                                flight.TX,
                                t_us=now_us,
                                worker=self.worker_id,
                                detail=f"port {out_port}",
                            )
                    self.tx_burst(out_port, mbufs, now_us)
                processed += len(burst)
        return processed

    def drop_causes(self) -> Dict[str, int]:
        """Drops (and near-drops) by cause, aggregated over all ports."""
        return {
            "rx_ring_full": sum(p.counters.rx_dropped for p in self.ports.values()),
            "rx_no_mbuf": sum(p.counters.rx_nombuf for p in self.ports.values()),
            "nf_drop": self.nf_dropped,
            "pool_high_water": self.pool.high_water,
        }

    # -- observability -----------------------------------------------------------
    def register_metrics(self, registry, labels=None) -> None:
        """Register this runtime's pool, ports and drop counters."""
        self.pool.register_metrics(registry, labels)
        for port in self.ports.values():
            port.register_metrics(registry, labels)
        registry.counter_fn(
            "runtime_nf_dropped_total",
            lambda: self.nf_dropped,
            "packets the NF decided to drop",
            labels,
        )

    def metrics_snapshot(self, nf: Optional[NetworkFunction] = None) -> Dict:
        """One collected snapshot of this runtime (plus its NF, if given)."""
        registry = MetricsRegistry()
        self.register_metrics(registry)
        if nf is not None:
            nf.register_metrics(registry)
        return registry.snapshot()

    # -- wire side -----------------------------------------------------------------
    def inject(self, port_id: int, packet: Packet, timestamp: int) -> bool:
        """Deliver a packet to a port as if from the wire."""
        return self.ports[port_id].deliver(packet, timestamp)

    def collect(self) -> List[Tuple[int, int, Packet]]:
        """All transmissions since last collect: (port, timestamp, packet)."""
        out: List[Tuple[int, int, Packet]] = []
        for port_id, port in sorted(self.ports.items()):
            for timestamp, packet in port.drain_tx():
                out.append((port_id, timestamp, packet))
        return out


class ShardedRuntime:
    """N independent workers behind one RSS-steered NIC.

    Each worker is a complete single-core data path — its own
    :class:`DpdkRuntime` (ports, mbuf pool) plus its own NF instance
    built from one shard of the partitioned configuration
    (:meth:`repro.nat.config.NatConfig.partition`), so no state, buffer
    or counter is ever shared between workers. Arriving packets pass the
    NAT-aware steering of :class:`repro.net.rss.NatSteering` (forward
    traffic by 5-tuple hash, return traffic by external-port ownership),
    which guarantees every packet of a flow — replies and ICMP errors
    included — reaches the worker holding that flow's state.

    :meth:`main_loop_burst` runs one burst-mode main-loop turn on every
    worker in a deterministic round-robin (worker 0 first), which keeps
    simulated runs reproducible; on hardware the workers would spin on
    their own cores concurrently. The verified per-packet core is
    untouched: sharding lives entirely in this (modelled) I/O layer.

    An optional ``fault_plan`` (:class:`repro.resil.faults.FaultPlan`)
    injects faults at the runtime's choke points: link drop/corrupt/
    delay and partitions at :meth:`inject` (the wire → NIC boundary),
    worker kill/hang, clock skew and mbuf-pool seizure at
    :meth:`main_loop_burst`. With no plan (the default) every code path
    is exactly as before — fault injection costs nothing when off.
    """

    def __init__(
        self,
        nf_factory: Callable[[NatConfig], NetworkFunction],
        config: Optional[NatConfig] = None,
        workers: int = 1,
        *,
        steering: Optional[NatSteering] = None,
        port_count: int = 2,
        rx_capacity: int = 512,
        pool_size: int = 4096,
        fastpath="off",
        fault_plan=None,
    ) -> None:
        if workers <= 0:
            raise ValueError("need at least one worker")
        config = config if config is not None else NatConfig()
        self.config = config
        self.shards: Tuple[NatConfig, ...] = config.partition(workers)
        self.steering = steering if steering is not None else NatSteering(self.shards)
        self.nfs: List[NetworkFunction] = [nf_factory(cfg) for cfg in self.shards]
        if check_fastpath(fastpath) != "off":
            # Per-worker microflow caches: each worker caches only the
            # flows steered to it, so caches stay private like all other
            # worker state.
            self.nfs = [FastPathNat(nf) for nf in self.nfs]
        self.runtimes: List[DpdkRuntime] = [
            DpdkRuntime(port_count, rx_capacity, pool_size) for _ in range(workers)
        ]
        for worker_id, runtime in enumerate(self.runtimes):
            runtime.worker_id = worker_id
        self.nic = RssNic(workers, steer=self.steering.worker_for)
        #: Duck-typed FaultPlan (kept untyped to avoid a net → resil
        #: import cycle); None means no fault machinery runs at all.
        self.fault_plan = fault_plan
        #: Packets the fault plan destroyed on the wire / corrupted.
        self.fault_wire_dropped = 0
        self.fault_wire_corrupted = 0
        #: Queued packets lost when a killed worker's rings were flushed.
        self.fault_kill_lost = 0
        # Buffers currently held hostage per worker by pool-exhaust faults.
        self._seized: List[List[Mbuf]] = [[] for _ in range(workers)]

    @property
    def workers(self) -> int:
        return len(self.nfs)

    @property
    def steered(self) -> List[int]:
        """Packets steered to each worker so far."""
        return list(self.nic.queue_packets)

    # -- wire side -----------------------------------------------------------
    def worker_for(self, packet: Packet) -> int:
        """The worker the steering stage would select (without counting)."""
        return self.steering.worker_for(packet)

    def inject(self, port_id: int, packet: Packet, timestamp: int) -> bool:
        """Deliver a packet from the wire: RSS-steer, then enqueue.

        An active fault plan is consulted first, with the packet's
        steering target as the fault scope: a drop/partition verdict
        destroys the packet before the NIC ever sees it, corruption
        damages it in flight, and link delay slips its arrival stamp.
        """
        plan = self.fault_plan
        if plan is not None and not plan.empty:
            target = self.steering.worker_for(packet)
            verdict, delay_us = plan.link_verdict(timestamp, target)
            if verdict == "drop":
                self.fault_wire_dropped += 1
                recorder = obs.recorder()
                if recorder.active:
                    recorder.trace(
                        flight.DROP,
                        t_us=timestamp,
                        worker=target,
                        reason=flight.REASON_LINK_FAULT,
                    )
                return False
            if verdict == "corrupt":
                packet = plan.corrupt_packet(packet)
                self.fault_wire_corrupted += 1
            if delay_us:
                timestamp += delay_us
        worker = self.nic.select(packet)
        recorder = obs.recorder()
        if recorder.active:
            recorder.trace(
                flight.STEER,
                t_us=timestamp,
                worker=worker,
                detail=f"port {port_id}",
            )
        # The reorder draw happens for every delivered-verdict packet
        # (not only when a swap is possible) so the seeded RNG sequence
        # is identical across runtimes consulting the same plan.
        reorder = (
            plan is not None
            and not plan.empty
            and plan.reorder_fires(timestamp, worker)
        )
        accepted = self.runtimes[worker].inject(port_id, packet, timestamp)
        if reorder and accepted:
            self.runtimes[worker].ports[port_id].swap_tail()
        return accepted

    def collect(self) -> List[Tuple[int, int, Packet]]:
        """All workers' transmissions, merged: (port, timestamp, packet)."""
        merged: List[Tuple[int, int, Packet]] = []
        for runtime in self.runtimes:
            merged.extend(runtime.collect())
        merged.sort(key=lambda item: item[1])  # stable: worker order on ties
        return merged

    def collect_by_worker(self) -> List[List[Tuple[int, int, Packet]]]:
        """Per-worker transmissions since the last collect."""
        return [runtime.collect() for runtime in self.runtimes]

    # -- the sharded main loop ------------------------------------------------
    def main_loop_burst(self, now_us: int, burst_size: int = 32) -> int:
        """One main-loop turn on every worker, round-robin, worker 0 first.

        Returns the total number of packets processed across workers.
        With a fault plan active, a killed worker's turn is skipped and
        its queued packets flushed (they are lost with the worker), a
        hung worker's turn is skipped with its queues intact, clock skew
        biases the ``now`` that worker's NF observes (a negative skew
        exercises the NATs' monotonic clamp), and pool-exhaust faults
        hold buffers hostage for the window's duration.
        """
        processed = 0
        plan = self.fault_plan
        faults_on = plan is not None and not plan.empty
        for worker_id, (runtime, nf) in enumerate(zip(self.runtimes, self.nfs)):
            worker_now = now_us
            if faults_on:
                if plan.worker_killed(now_us, worker_id):
                    self.fault_kill_lost += self._flush_rx(runtime, now_us)
                    continue
                if plan.worker_hung(now_us, worker_id):
                    continue
                self._apply_pool_seizure(
                    worker_id, runtime, plan.pool_seizure(now_us, worker_id)
                )
                skew = plan.clock_skew_us(now_us, worker_id)
                if skew:
                    worker_now = max(0, now_us + skew)
            processed += runtime.main_loop_burst(nf, worker_now, burst_size)
        return processed

    def flush_worker(self, worker_id: int, now_us: int) -> int:
        """Tear down one worker's queued packets (they die with it).

        The failover controller calls this at promotion time — the dead
        worker's RX rings are gone, so whatever they held is attributed
        to the kill. Returns the number of packets lost.
        """
        lost = self._flush_rx(self.runtimes[worker_id], now_us)
        self.fault_kill_lost += lost
        return lost

    def _flush_rx(self, runtime: DpdkRuntime, now_us: int) -> int:
        """Discard a dead worker's queued packets, returning the count."""
        lost = 0
        recorder = obs.recorder()
        tracing = recorder.active
        for port in runtime.ports.values():
            while True:
                item = port.rx_pop()
                if item is None:
                    break
                lost += 1
                if tracing:
                    recorder.trace(
                        flight.DROP,
                        t_us=now_us,
                        worker=runtime.worker_id,
                        reason=flight.REASON_WORKER_KILL,
                    )
        return lost

    def _apply_pool_seizure(
        self, worker_id: int, runtime: DpdkRuntime, target: int
    ) -> None:
        """Hold exactly ``target`` of this worker's buffers hostage.

        Seizure goes through the pool's public alloc/free so ownership
        accounting (in_flight, high_water, alloc_failures) tells the
        truth about the induced pressure.
        """
        held = self._seized[worker_id]
        while len(held) < target:
            mbuf = runtime.pool.alloc(None, port=0, timestamp=0)
            if mbuf is None:
                break  # pool already drier than the fault demands
            held.append(mbuf)
        while len(held) > target:
            runtime.pool.free(held.pop())

    # -- introspection ----------------------------------------------------------
    def flow_count(self) -> int:
        """Live translation entries across all workers."""
        return sum(
            nf.flow_count() for nf in self.nfs if hasattr(nf, "flow_count")
        )

    def per_worker_counters(self) -> List[Dict[str, int]]:
        """Each worker's NF operation counters, in worker order."""
        return [dict(nf.op_counters()) for nf in self.nfs]

    def op_counters(self) -> Dict[str, int]:
        """NF operation counters aggregated (summed) across workers."""
        aggregate: Dict[str, int] = {}
        for counters in self.per_worker_counters():
            for key, value in counters.items():
                aggregate[key] = aggregate.get(key, 0) + value
        return aggregate

    def drop_causes(self) -> Dict[str, int]:
        """Drop/near-drop causes aggregated across all workers.

        Drop counts sum; ``pool_high_water`` aggregates by max — every
        worker owns a private pool (sized ``pool_size`` each), so the
        merged watermark is the worst any single pool saw, not the sum
        of marks no pool ever reached together.
        """
        aggregate: Dict[str, int] = {}
        for runtime in self.runtimes:
            for key, value in runtime.drop_causes().items():
                if key == "pool_high_water":
                    aggregate[key] = max(aggregate.get(key, 0), value)
                else:
                    aggregate[key] = aggregate.get(key, 0) + value
        # Fault-attributed losses appear only when a plan is attached, so
        # fault-free reports stay byte-identical to the pre-fault layer.
        if self.fault_plan is not None:
            aggregate["fault_wire_dropped"] = self.fault_wire_dropped
            aggregate["fault_wire_corrupted"] = self.fault_wire_corrupted
            aggregate["fault_kill_lost"] = self.fault_kill_lost
        return aggregate

    # -- observability -----------------------------------------------------------
    def register_metrics(self, registry) -> None:
        """Register every worker's runtime + NF under a ``worker`` label.

        Each worker's pool reports into the merged snapshot as its own
        labeled sample (merge strategies do the aggregation at read
        time) — there is no shared mutable counter between workers,
        matching the no-shared-state discipline of the data path.
        """
        self.nic.register_metrics(registry)
        for worker_id, (runtime, nf) in enumerate(zip(self.runtimes, self.nfs)):
            labels = {"worker": str(worker_id)}
            runtime.register_metrics(registry, labels)
            nf.register_metrics(registry, labels)

    def metrics_snapshot(self) -> Dict:
        """One merged snapshot: NIC steering, all workers' runtimes + NFs."""
        registry = MetricsRegistry()
        self.register_metrics(registry)
        return registry.snapshot()

    def snapshot_metrics(self) -> Dict:
        """Protocol alias (see :class:`repro.net.app.Runtime`)."""
        return self.metrics_snapshot()

    # -- control plane -----------------------------------------------------------
    def checkpoint(self, now_us: int = 0):
        """A coordinated checkpoint of every shard, as one manifest.

        Single-threaded execution makes the fence trivial: between
        main-loop turns nothing is in flight and every RX ring has been
        drained, so the shard frames always form a consistent cut.
        """
        from repro.resil.checkpoint import snapshot_all

        return snapshot_all(self.nfs, now_us)

    def restore(self, checkpoint_set) -> None:
        """Adopt a coordinated checkpoint, one frame per worker, in order."""
        from repro.resil.checkpoint import restore_all

        restore_all(self.nfs, checkpoint_set)

    def stop(self) -> None:
        """Nothing to tear down — workers are plain objects in-thread."""
