"""A DPDK-like runtime: burst receive/transmit over simulated ports.

DPDK's native unit of work is the burst: ``rte_eth_rx_burst`` hands the
main loop up to N packets at once, the NF processes them, and one
``rte_eth_tx_burst`` per output port ships the survivors. The runtime
exposes that API plus :meth:`DpdkRuntime.main_loop_burst`, a complete
main-loop turn that drives any :class:`~repro.nat.base.NetworkFunction`
through its burst entry point with the no-leak discipline Vigor's
ownership tracking enforces (§5.2.4). A burst call pays its costs once
per burst: ``rx_burst`` is one ring pop and one pool allocation,
``tx_burst`` checks the whole burst (freed, foreign, repeated buffers)
before one transmit and one pool credit.

:class:`Shard` is the unit every launched runtime is made of: one NF
built from the factory, its private ``DpdkRuntime``, one turn, and the
one ``checkpoint``/``restore``. :class:`ShardedRuntime` scales it out —
N shards of a partitioned :class:`~repro.nat.config.NatConfig` behind
the NAT-aware RSS steering of :mod:`repro.net.rss`
(:class:`SteeringFront`, shared with the process runtime). See
``docs/SCALING.md`` and DESIGN.md "Runtime: who owns what".
"""

from __future__ import annotations

import time
from functools import partial
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
        #: Packets the NF emitted that found no free buffer (lost).
        self.out_no_mbuf = 0
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
        pool = self.pool
        free = pool.free_count
        descriptors = port.rx_pop_burst(max_packets if max_packets < free else free)
        if free < max_packets and port.rx_pending():
            port.counters.rx_nombuf += 1
        return pool.alloc_burst(descriptors, port_id) if descriptors else []

    def tx_burst(self, port_id: int, mbufs: List[Mbuf], timestamp: int) -> int:
        """rte_eth_tx_burst: check the whole burst, transmit it, free it."""
        port = self.ports[port_id]
        self.pool.free_burst(mbufs)
        port.transmit_burst(mbufs, timestamp)
        return len(mbufs)

    def free(self, mbuf: Mbuf) -> None:
        """rte_pktmbuf_free: drop a packet, returning its buffer."""
        self.pool.free(mbuf)

    # -- the burst main loop ----------------------------------------------------
    def main_loop_burst(
        self, nf: NetworkFunction, now_us: int, burst_size: int = 32
    ) -> int:
        """One main-loop turn: rx_burst → ``nf.process_burst`` → tx_burst.

        Drains every non-empty RX ring in bursts of ``burst_size``, batches
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
        for port_id, port in sorted(self.ports.items()):
            while port.rx_pending():
                burst = self.rx_burst(port_id, burst_size)
                if not burst:
                    break
                if tracing:
                    for mbuf in burst:
                        recorder.trace(
                            flight.RX,
                            t_us=mbuf.timestamp,
                            worker=self.worker_id,
                            detail=port_id,
                        )
                results = nf.process_burst([m.packet for m in burst], now_us)
                if len(results) != len(burst):
                    self.pool.free_burst(burst)
                    raise unmatched_outputs(nf, len(burst), len(results))
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
                    first = mbuf.packet = outputs[0]
                    device = first.device
                    if device in staged:
                        staged[device].append(mbuf)
                    else:
                        staged[device] = [mbuf]
                    if len(outputs) > 1:  # multicast/flood NFs
                        for extra in outputs[1:]:
                            clone = self.pool.alloc(extra, extra.device, now_us)
                            if clone is None:
                                self.out_no_mbuf += 1
                            else:
                                staged.setdefault(extra.device, []).append(clone)
                for out_port, mbufs in sorted(staged.items()):
                    if tracing:
                        for mbuf in mbufs:
                            recorder.trace(
                                flight.TX,
                                t_us=now_us,
                                worker=self.worker_id,
                                detail=out_port,
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
            "out_no_mbuf": self.out_no_mbuf,
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


def unmatched_outputs(nf: NetworkFunction, sent: int, returned: int) -> ValueError:
    """An NF broke ``process_burst``'s one-list-per-packet contract."""
    return ValueError(
        f"{type(nf).__name__}.process_burst returned {returned} "
        f"output lists for {sent} packets"
    )


def build_nf(
    nf_factory: Callable[[NatConfig], NetworkFunction],
    config,
    fastpath: str = "off",
    checkpoint=None,
    delta_sink=None,
) -> NetworkFunction:
    """The one NF builder, and the one fast-path admission rule: the
    factory's NF, wrapped iff the fast path is on *and* the NF is a
    provider (``fastpath_hooks()`` is not None). An NF with nothing to
    skip runs as it is — in every runtime, execution mode and chain
    stage, byte-identical to ``"off"``.

    Given a ``checkpoint`` the new NF comes back holding its state —
    through :func:`repro.resil.checkpoint.restore`, so every
    name/config/state check applies and a refused frame raises. A
    ``delta_sink`` is attached after the restore, so it hears only what
    the NF does from then on.
    """
    nf = nf_factory(config)
    if check_fastpath(fastpath) != "off" and nf.fastpath_hooks() is not None:
        nf = FastPathNat(nf)
    if checkpoint is not None:
        from repro.resil.checkpoint import restore

        restore(nf, checkpoint)
    if delta_sink is not None:
        nf.delta_sink(delta_sink)
    return nf


class Shard:
    """One worker's whole world: an NF, its ``DpdkRuntime``, its hostages.

    The unit every runtime builds, turns, checkpoints and restores
    through: :class:`~repro.net.app.InlineRuntime` is one,
    :class:`ShardedRuntime` holds N, a
    :class:`~repro.net.procrun.ProcessShardedRuntime` worker process
    hosts one, and :meth:`SteeringFront.recover` rebuilds a dead one
    (built with a ``checkpoint``, it starts out holding that state).
    Nothing in it is shared with any other shard.

    A replicating shard (``replicate=True``) buffers its NF's flow
    deltas in :attr:`deltas` until the front end takes them after the
    turn; otherwise no delta sink is attached at all.
    """

    def __init__(
        self,
        nf_factory: Callable[[NatConfig], NetworkFunction],
        config,
        *,
        fastpath: str = "off",
        worker_id: int = 0,
        rx_capacity: int = 512,
        pool_size: int = 4096,
        checkpoint=None,
        replicate: bool = False,
    ) -> None:
        self.fastpath = fastpath
        self.deltas: Optional[List[tuple]] = [] if replicate else None
        self._build_nf = partial(
            build_nf,
            nf_factory,
            config,
            fastpath,
            delta_sink=self.deltas.append if replicate else None,
        )
        self.nf = self._build_nf(checkpoint)
        self.runtime = DpdkRuntime(rx_capacity=rx_capacity, pool_size=pool_size)
        self.runtime.worker_id = worker_id
        # Buffers held hostage by a pool-exhaust fault.
        self._seized: List[Mbuf] = []

    def turn(self, now_us: int, burst_size: int = 32, seizure: int = 0) -> int:
        """One main-loop turn with exactly ``seizure`` buffers held hostage.

        Seizure goes through the pool's public alloc/free so ownership
        accounting (in_flight, high_water, alloc_failures) tells the
        truth about the induced pressure.
        """
        held = self._seized
        pool = self.runtime.pool
        while len(held) < seizure:
            mbuf = pool.alloc(None, port=0, timestamp=0)
            if mbuf is None:
                break  # pool already drier than the fault demands
            held.append(mbuf)
        while len(held) > seizure:
            pool.free(held.pop())
        return self.runtime.main_loop_burst(self.nf, now_us, burst_size)

    def flush_rx(self, now_us: int) -> int:
        """Discard a dead worker's queued packets, returning the count."""
        lost = 0
        recorder = obs.recorder()
        tracing = recorder.active
        for port in self.runtime.ports.values():
            while port.rx_pop() is not None:
                lost += 1
                if tracing:
                    recorder.trace(
                        flight.DROP,
                        t_us=now_us,
                        worker=self.runtime.worker_id,
                        reason=flight.REASON_WORKER_KILL,
                    )
        return lost

    def flow_count(self) -> int:
        return self.nf.flow_count()

    def counters(self) -> Dict:
        """What a front end merges: NF ops, drop causes, live flows."""
        return {
            "op_counters": dict(self.nf.op_counters()),
            "drop_causes": self.runtime.drop_causes(),
            "flow_count": self.flow_count(),
        }

    def register_metrics(self, registry, labels=None) -> None:
        self.runtime.register_metrics(registry, labels)
        self.nf.register_metrics(registry, labels)

    # -- control plane -----------------------------------------------------------
    def checkpoint(self, now_us: int = 0):
        """This shard's ``repro-ckpt/v1`` frame (take it between turns)."""
        from repro.resil.checkpoint import snapshot

        return snapshot(self.nf, now_us)

    def restore(self, checkpoint) -> None:
        """Adopt a checkpoint — the one restore every recovery path takes.

        ``restore_state`` demands a freshly constructed NF, so the state
        lands in a new one from the factory (its fastpath cache cold, as
        after any restore) and replaces the serving NF only once every
        name/config/state check has passed: a bad frame raises and the
        old NF keeps serving, warm or not.
        """
        self.nf = self._build_nf(checkpoint)


def ingress_fault(plan, tally, packet: Packet, timestamp: int, scope: int):
    """What an active fault plan does to one packet arriving off the wire.

    ``None`` when a drop/partition verdict destroyed it (counted on
    ``tally`` and traced); otherwise ``(packet, timestamp, reorder)`` —
    the possibly corrupted packet, its possibly delayed arrival stamp,
    and whether it should trade places with its not-yet-taken
    predecessor. The reorder draw happens for every delivered-verdict
    packet (not only when a swap is possible) so the seeded RNG
    sequence is identical across runtimes consulting the same plan.
    """
    verdict, delay_us = plan.link_verdict(timestamp, scope)
    if verdict == "drop":
        tally.fault_wire_dropped += 1
        recorder = obs.recorder()
        if recorder.active:
            recorder.trace(
                flight.DROP,
                t_us=timestamp,
                worker=scope,
                reason=flight.REASON_LINK_FAULT,
            )
        return None
    if verdict == "corrupt":
        packet = plan.corrupt_packet(packet)
        tally.fault_wire_corrupted += 1
    timestamp += delay_us
    return packet, timestamp, plan.reorder_fires(timestamp, scope)


def merge_counters(per_worker) -> Dict[str, int]:
    """Per-worker counter dicts merged into one.

    Counts sum; ``pool_high_water`` aggregates by max — every worker
    owns a private pool, so the merged watermark is the worst any single
    pool saw, not the sum of marks no pool ever reached together.
    """
    aggregate: Dict[str, int] = {}
    for counters in per_worker:
        for key, value in counters.items():
            if key == "pool_high_water":
                aggregate[key] = max(aggregate.get(key, 0), value)
            else:
                aggregate[key] = aggregate.get(key, 0) + value
    return aggregate


class SteeringFront:
    """What the two sharded front ends share; where the shards live is theirs.

    Built from a :class:`~repro.net.app.RuntimeSpec`: one partitioned
    config, NAT-aware steering behind an :class:`RssNic`, the fault
    plan's wire tallies, the one :meth:`inject` (admission, steering,
    and a per-worker batch the reorder fault swaps in), the one turn
    policy (:meth:`main_loop_burst`), the merged views — counters,
    transmissions, checkpoint, restore — over per-worker answers, and
    the one recovery primitive, :meth:`recover`. :class:`ShardedRuntime`
    answers from in-thread :class:`Shard` objects,
    :class:`~repro.net.procrun.ProcessShardedRuntime` asks a worker
    process hosting one; each supplies the turn's hooks — ``_hold`` and
    ``_turn`` hand a worker its batch (onto its shard's RX rings, or
    framed to its process), ``_gather`` ends the turn, and the process
    runtime's ``_kill`` is a SIGKILL.

    ``supervise=True`` rebuilds a dead worker instead of leaving it dead
    (threaded) or raising ``WorkerCrashed`` (process). A
    ``replication_lag`` implies it, and mirrors every shard into a
    :class:`~repro.resil.replication.StandbyReplica` through a
    :class:`~repro.resil.replication.ReplicationChannel` of that lag.
    """

    def __init__(self, spec) -> None:
        self.spec = spec
        self.config = spec.resolved_config()
        self.shards: Tuple[NatConfig, ...] = self.config.partition(spec.workers)
        self.steering = NatSteering(self.shards)
        self.nic = RssNic(spec.workers, steer=self.steering.worker_for)
        replicating = spec.replication_lag is not None
        self._build_nf = partial(build_nf, spec.nf_factory, fastpath=spec.fastpath)
        self._make_shard = partial(
            Shard,
            spec.nf_factory,
            fastpath=spec.fastpath,
            rx_capacity=spec.rx_capacity,
            pool_size=spec.pool_size,
            replicate=replicating,
        )
        #: Duck-typed FaultPlan (kept untyped to avoid a net → resil
        #: import cycle); None means no fault machinery runs at all.
        self.fault_plan = spec.fault_plan
        #: Packets the fault plan destroyed on the wire / corrupted.
        self.fault_wire_dropped = 0
        self.fault_wire_corrupted = 0
        #: Queued packets lost when a killed worker's rings were flushed.
        self.fault_kill_lost = 0
        self.supervise = spec.supervise or replicating
        #: Whether each worker is serving; only :meth:`recover` revives one.
        self._alive: List[bool] = [True] * spec.workers
        #: Steered packets per worker as (port, timestamp, packet) — the
        #: order ``collect`` returns — handed to the worker at its next
        #: turn or hang.
        self._pending: List[List[Tuple[int, int, Packet]]] = [
            [] for _ in range(spec.workers)
        ]
        #: One channel and standby per worker; both empty unless replicating.
        self.channels: List = []
        self.replicas: List = []
        if replicating:
            from repro.resil.replication import ReplicationChannel, StandbyReplica

            # A standby mirrors its NF's own rows, so it needs the NF's name.
            name = spec.nf_factory(self.shards[0]).name
            self.channels = [
                ReplicationChannel(spec.replication_lag) for _ in self.shards
            ]
            self.replicas = [StandbyReplica(name, cfg) for cfg in self.shards]
        #: One :class:`~repro.resil.replication.FailoverReport` per recovery.
        self.reports: List = []
        #: The last coordinated checkpoint, kept while supervising.
        self._fence = None
        self._start()
        if self.supervise:
            self.checkpoint(0)  # a fresh fleet's empty state is the first fence

    def _start(self) -> None:
        """Bring the workers up — the subclass knows where they live."""
        raise NotImplementedError

    def fresh_shard(self, worker_id: int, checkpoint=None) -> Shard:
        """A newly built shard for one worker slot: empty state, or —
        rebuilt by :meth:`recover` — ``checkpoint``'s state. Its cache
        starts cold either way: a flow's first packet learns, as any
        new flow's does."""
        return self._make_shard(
            self.shards[worker_id], worker_id=worker_id, checkpoint=checkpoint
        )

    @property
    def workers(self) -> int:
        return len(self.shards)

    @property
    def steered(self) -> List[int]:
        """Packets steered to each worker so far."""
        return list(self.nic.queue_packets)

    def worker_for(self, packet: Packet) -> int:
        """The worker the steering stage would select (without counting)."""
        return self.steering.worker_for(packet)

    # -- wire side -----------------------------------------------------------
    def inject(self, port_id: int, packet: Packet, timestamp: int) -> bool:
        """Deliver a packet from the wire into its worker's batch.

        An active fault plan is consulted first (:func:`ingress_fault`,
        scoped to the packet's steering target), then the NIC steers,
        the ``STEER`` trace records it, and the packet joins the
        worker's batch for its next turn (or hang). A firing reorder
        swaps the batch's two newest packets on this port, their stamps
        staying with the slots so arrivals stay monotonic — what
        :meth:`~repro.net.nic.Port.swap_tail` does to a ring. False only
        when the plan destroyed the packet: a full RX ring drops (and
        counts) it at delivery, in the worker.
        """
        plan = self.fault_plan
        reorder = False
        if plan is not None and not plan.empty:
            hit = ingress_fault(
                plan, self, packet, timestamp, self.steering.worker_for(packet)
            )
            if hit is None:
                return False
            packet, timestamp, reorder = hit
        worker = self.nic.select(packet)
        recorder = obs.recorder()
        if recorder.active:
            recorder.trace(flight.STEER, t_us=timestamp, worker=worker, detail=port_id)
        batch = self._pending[worker]
        batch.append((port_id, timestamp, packet))
        if reorder:
            tail = [i for i, item in enumerate(batch) if item[0] == port_id][-2:]
            if len(tail) == 2:
                a, b = tail
                batch[a], batch[b] = (
                    (port_id, batch[a][1], batch[b][2]),
                    (port_id, batch[b][1], batch[a][2]),
                )
        return True

    # -- the turn ------------------------------------------------------------
    def main_loop_burst(self, now_us: int, burst_size: int = 32) -> int:
        """One main-loop turn on every worker, worker 0 first.

        The one fault policy of both sharded runtimes. A worker the plan
        kills dies (:meth:`_kill`); a dead worker is rebuilt by
        :meth:`recover` before its turn when supervising, and otherwise
        skips it with its queued frames counted lost. A hung worker
        takes its batch and skips its turn with its queue intact
        (:meth:`_hold`), clock skew biases the ``now`` that worker's NF
        observes (a negative skew exercises the NATs' monotonic clamp),
        and a pool-exhaust fault holds that many buffers hostage for the
        turn. The subclass hands each worker its batch and runs or
        starts its turn (:meth:`_turn`), and ends the whole turn
        (:meth:`_gather`), which returns the packets processed.
        """
        if burst_size <= 0:
            raise ValueError("burst size must be positive")
        plan = self.fault_plan
        faults_on = plan is not None and not plan.empty
        alive = self._alive
        turned: List[Tuple[int, object]] = []
        for worker_id in range(len(alive)):
            worker_now = now_us
            seizure = 0
            if faults_on and plan.worker_killed(now_us, worker_id):
                self._kill(worker_id)
            if not alive[worker_id]:
                if not self.supervise:
                    self.flush_worker(worker_id, now_us)
                    continue
                self.recover(worker_id, now_us)
            if faults_on:
                if plan.worker_hung(now_us, worker_id):
                    self._hold(worker_id)
                    continue
                seizure = plan.pool_seizure(now_us, worker_id)
                skew = plan.clock_skew_us(now_us, worker_id)
                if skew:
                    worker_now = max(0, now_us + skew)
            turned.append(
                (worker_id, self._turn(worker_id, worker_now, burst_size, seizure))
            )
        return self._gather(turned, now_us)

    def _kill(self, worker_id: int) -> None:
        """A fault-plan kill: the worker is dead until :meth:`recover`."""
        self._alive[worker_id] = False

    def _hold(self, worker_id: int) -> None:
        """A hung worker's skipped turn: it takes its batch, and its
        queue stays where it is."""
        raise NotImplementedError

    def _turn(self, worker_id: int, now_us: int, burst_size: int, seizure: int):
        """Hand the worker its batch and run (or start) its turn; what it
        returns is :meth:`_gather`'s."""
        raise NotImplementedError

    def _gather(self, turned: List[Tuple[int, object]], now_us: int) -> int:
        """End the turn: ``turned`` holds (worker, :meth:`_turn`'s
        answer) per worker that turned. Returns the packets processed."""
        raise NotImplementedError

    def collect(self) -> List[Tuple[int, int, Packet]]:
        """All workers' transmissions, merged: (port, timestamp, packet)."""
        merged = [item for sent in self.collect_by_worker() for item in sent]
        merged.sort(key=lambda item: item[1])  # stable: worker order on ties
        return merged

    # -- recovery ------------------------------------------------------------
    def _replicate(self, worker_id: int, raw_deltas) -> None:
        """Publish one worker's turn of deltas on its channel; what
        completes transit reaches its standby."""
        from repro.resil.replication import FlowDelta

        channel, replica = self.channels[worker_id], self.replicas[worker_id]
        recorder = obs.recorder()
        for raw in raw_deltas:
            replica.apply_all(channel.publish(FlowDelta(*raw)))
            if recorder.active:
                recorder.trace(
                    flight.REPLICATE, t_us=raw[3], worker=worker_id, detail=raw[0]
                )

    def recover(self, worker_id: int, now_us: int):
        """Rebuild one dead worker alone — the one recovery primitive.

        Cut the worker's replication channel (its in-flight deltas are
        lost), count its queued frames lost, then build only this shard
        fresh from one frame: its standby's synthesized ``repro-ckpt/v1``
        frame when replicating, otherwise its frame of the last
        coordinated checkpoint, in its own slot: steering is unchanged.
        Frames the dead worker already transmitted are kept and the kill
        window is retired. The survivors are untouched: shards share
        nothing, and replies reach a flow's owner by port. Returns the
        recorded :class:`~repro.resil.replication.FailoverReport`, whose
        ``recovery_us`` is the wall time all of this took.
        """
        from repro.resil.replication import FailoverReport

        started = time.perf_counter_ns()
        plan = self.fault_plan
        killed_at = now_us
        if plan is not None:
            killed_at = min(
                (
                    f.start_us
                    for f in plan.faults
                    if f.kind == "worker-kill" and f.active_at(now_us, worker_id)
                ),
                default=now_us,
            )
        lost: List = []
        at_kill = unrecovered = ()
        if self.replicas:
            replica = self.replicas[worker_id]
            lost = self.channels[worker_id].lost_in_flight()
            at_kill = replica.keys_after(lost)
            unrecovered = at_kill - set(replica.established_keys())
            frame = replica.to_checkpoint(now_us)
        else:
            frame = self._fence.for_workers(self.workers)[worker_id]
        packets_lost_queue = self.flush_worker(worker_id, now_us)
        self._rebuild(worker_id, frame)
        self._alive[worker_id] = True
        if plan is not None:
            plan.clear(kind="worker-kill", worker=worker_id)
        counters = self._worker_counters(worker_id)
        recovery_us = (time.perf_counter_ns() - started) // 1_000
        recovered = counters["flow_count"]
        report = FailoverReport(
            worker=worker_id,
            killed_at_us=killed_at,
            detected_at_us=now_us,
            recovery_us=recovery_us,
            flows_at_kill=len(at_kill) if self.replicas else recovered,
            flows_recovered=recovered,
            flows_lost=len(unrecovered),
            deltas_lost=len(lost),
            packets_lost_queue=packets_lost_queue,
        )
        self.reports.append(report)
        recorder = obs.recorder()
        if recorder.active:
            recorder.trace(
                flight.FAILOVER,
                t_us=now_us,
                worker=worker_id,
                reason=flight.REASON_REPLICATION_LOSS if lost else "",
                detail=(
                    f"rebuilt: {recovered}/{report.flows_at_kill} flows, "
                    f"{len(lost)} deltas lost, {recovery_us}us"
                ),
            )
        return report

    def register_recovery_metrics(self, registry) -> None:
        """Each standby's replication, and the recoveries run."""
        for worker_id, (channel, replica) in enumerate(
            zip(self.channels, self.replicas)
        ):
            labels = {"worker": str(worker_id)}
            for name, read, help_text in (
                (
                    "replication_published_total",
                    lambda c=channel: c.published_total,
                    "flow deltas published by the active NF",
                ),
                (
                    "replication_delivered_total",
                    lambda c=channel: c.delivered_total,
                    "flow deltas delivered to the standby",
                ),
                (
                    "replication_lost_total",
                    lambda c=channel: c.lost_total,
                    "in-flight deltas destroyed at channel cut",
                ),
                (
                    "standby_out_of_order_total",
                    lambda r=replica: r.out_of_order_total,
                    "deltas referencing flows the standby never saw",
                ),
            ):
                registry.counter_fn(name, read, help_text, labels)
            registry.gauge_fn(
                "replication_in_flight",
                channel.in_flight_count,
                "deltas currently in transit (== configured lag, steady state)",
                labels,
            )
            registry.gauge_fn(
                "standby_flows",
                replica.flow_count,
                "flows currently mirrored on the standby",
                labels,
            )
        if self.supervise:
            registry.counter_fn(
                "failover_total",
                lambda: len(self.reports),
                "dead workers rebuilt from a standby or the last fence",
            )

    # -- merged views over the subclass's per-worker ``_worker_*`` answers --------
    def per_worker_counters(self) -> List[Dict[str, int]]:
        """Each worker's NF operation counters, in worker order."""
        return [
            self._worker_counters(w)["op_counters"] for w in range(self.workers)
        ]

    def op_counters(self) -> Dict[str, int]:
        """NF operation counters aggregated (summed) across workers."""
        return merge_counters(self.per_worker_counters())

    def drop_causes(self) -> Dict[str, int]:
        """Drop/near-drop causes across all workers (:func:`merge_counters`).

        Wire-fault losses appear only when a plan is attached, kill
        losses when a plan is attached or a supervisor rebuilds dead
        workers, and replication losses only when replicating, so
        reports of a fleet with none of them stay byte-identical to the
        pre-fault layer.
        """
        causes = merge_counters(
            self._worker_counters(w)["drop_causes"] for w in range(self.workers)
        )
        if self.fault_plan is not None:
            causes["fault_wire_dropped"] = self.fault_wire_dropped
            causes["fault_wire_corrupted"] = self.fault_wire_corrupted
        if self.fault_plan is not None or self.supervise:
            causes["fault_kill_lost"] = self.fault_kill_lost
        if self.channels:
            causes["replication_deltas_lost"] = sum(
                channel.lost_total for channel in self.channels
            )
        return causes

    def flow_count(self) -> int:
        """Live translation entries across all workers."""
        return sum(
            self._worker_counters(w)["flow_count"] for w in range(self.workers)
        )

    def checkpoint(self, now_us: int = 0):
        """A coordinated checkpoint of every shard, as one manifest.

        Take it between main-loop turns: nothing is in flight and every
        RX ring has been drained, so the frames form a consistent cut.
        A supervised fleet keeps it as the fence a dead shard without a
        standby is rebuilt from.
        """
        from repro.resil.checkpoint import CheckpointSet

        checkpoint_set = CheckpointSet(
            now_us,
            tuple(self._worker_checkpoint(w, now_us) for w in range(self.workers)),
        )
        if self.supervise:
            self._fence = checkpoint_set
        return checkpoint_set

    def restore(self, checkpoint_set) -> None:
        """Adopt a coordinated checkpoint, one frame per worker — all or nothing.

        Every frame first restores into a throwaway NF built here from
        that worker's config (the full name/config/state validation);
        only when all of them pass is any worker told to adopt its own.
        A frame refused in any slot therefore leaves the whole fleet
        serving its pre-restore flows, never a mixed cut. The standbys
        come along: each is rebuilt from its worker's frame, and the
        deltas in flight, which described the state rolled back, are
        discarded. A supervised fleet takes the set as its fence.
        """
        frames = checkpoint_set.for_workers(self.workers)
        for config, frame in zip(self.shards, frames):
            self._build_nf(config, checkpoint=frame)
        for worker_id, frame in enumerate(frames):
            self._worker_restore(worker_id, frame)
        for channel, replica, frame in zip(self.channels, self.replicas, frames):
            channel.lost_in_flight()
            replica.adopt(frame.state)
        if self.supervise:
            self._fence = checkpoint_set


class ShardedRuntime(SteeringFront):
    """N independent workers behind one RSS-steered NIC.

    Each worker is a complete single-core data path — a :class:`Shard`
    built from one slice of the partitioned configuration
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
    :meth:`~SteeringFront.inject` batches each worker's packets and the
    turn (or a hang) delivers the batch to the worker's RX rings. An
    optional fault plan bites at inject (link faults and reorder, the
    wire → NIC boundary, :func:`ingress_fault`) and in the turn (worker
    kill/hang, clock skew, pool seizure: :meth:`SteeringFront.main_loop_burst`);
    with no plan every code path is exactly as before.
    """

    def _start(self) -> None:
        #: The workers, in worker order (``shards`` are their configs).
        self.units: List[Shard] = [self.fresh_shard(w) for w in range(self.workers)]

    @property
    def nfs(self) -> Tuple[NetworkFunction, ...]:
        """Each worker's serving NF — a view; replace ``units[w]`` to swap one."""
        return tuple(unit.nf for unit in self.units)

    @property
    def runtimes(self) -> Tuple[DpdkRuntime, ...]:
        return tuple(unit.runtime for unit in self.units)

    def _worker_counters(self, worker_id: int) -> Dict:
        return self.units[worker_id].counters()

    def _worker_checkpoint(self, worker_id: int, now_us: int):
        return self.units[worker_id].checkpoint(now_us)

    def _worker_restore(self, worker_id: int, checkpoint) -> None:
        self.units[worker_id].restore(checkpoint)

    def collect_by_worker(self) -> List[List[Tuple[int, int, Packet]]]:
        """Per-worker transmissions since the last collect."""
        return [unit.runtime.collect() for unit in self.units]

    # -- the turn's hooks -----------------------------------------------------
    def _hold(self, worker_id: int) -> None:
        """Deliver the worker's batch to its shard's RX rings."""
        runtime = self.units[worker_id].runtime
        for port_id, timestamp, packet in self._pending[worker_id]:
            runtime.inject(port_id, packet, timestamp)
        self._pending[worker_id].clear()

    def _turn(self, worker_id: int, now_us: int, burst_size: int, seizure: int) -> int:
        """Deliver the worker's batch, run its turn and publish its
        deltas to its standby."""
        self._hold(worker_id)
        unit = self.units[worker_id]
        processed = unit.turn(now_us, burst_size, seizure)
        if unit.deltas:
            self._replicate(worker_id, unit.deltas)
            unit.deltas.clear()
        return processed

    def _gather(self, turned: List[Tuple[int, int]], now_us: int) -> int:
        return sum(processed for _worker_id, processed in turned)

    def flush_worker(self, worker_id: int, now_us: int) -> int:
        """Tear down one worker's queued packets (they die with it).

        A dead worker's RX rings are gone, so whatever they and its
        batch held is attributed to the kill. Returns the number of
        packets lost.
        """
        self._hold(worker_id)
        lost = self.units[worker_id].flush_rx(now_us)
        self.fault_kill_lost += lost
        return lost

    def _rebuild(self, worker_id: int, checkpoint) -> None:
        """Swap in a fresh shard holding ``checkpoint``. Frames the dead
        worker already transmitted are on the wire: they carry over to
        the fresh shard's TX side, so :meth:`collect` still delivers
        them."""
        shard = self.fresh_shard(worker_id, checkpoint)
        for port_id, port in self.units[worker_id].runtime.ports.items():
            for sent_at, packet in port.drain_tx():
                shard.runtime.ports[port_id].transmit(packet, sent_at)
        self.units[worker_id] = shard

    # -- observability -----------------------------------------------------------
    def register_metrics(self, registry) -> None:
        """Register every worker's runtime + NF under a ``worker`` label.

        Each worker's pool reports into the merged snapshot as its own
        labeled sample (merge strategies do the aggregation at read
        time) — there is no shared mutable counter between workers,
        matching the no-shared-state discipline of the data path.
        """
        self.nic.register_metrics(registry)
        for worker_id, unit in enumerate(self.units):
            unit.register_metrics(registry, {"worker": str(worker_id)})
        self.register_recovery_metrics(registry)

    def snapshot_metrics(self) -> Dict:
        """One merged snapshot: NIC steering, all workers' runtimes + NFs."""
        registry = MetricsRegistry()
        self.register_metrics(registry)
        return registry.snapshot()

    def stop(self) -> None:
        """Nothing to tear down — workers are plain objects in-thread."""
