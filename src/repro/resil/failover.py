"""Active/standby failover over the sharded data path.

:class:`ReplicatedRuntime` pairs every worker of a
:class:`~repro.net.dpdk.ShardedRuntime` with a
:class:`~repro.resil.replication.StandbyReplica` fed through a lagged
:class:`~repro.resil.replication.ReplicationChannel`: each flow create/
touch/free on an active NF becomes a delta in flight, and the newest
``lag`` deltas are always the state the standby has not seen yet.

When the fault plan kills a worker, the embedded controller fails over:

1. **detect** — the kill is noticed on the next main-loop turn;
2. **cut** — the replication channel is severed, its in-flight deltas
   are counted lost (:data:`~repro.obs.flight.REASON_REPLICATION_LOSS`);
3. **flush** — packets queued on the dead worker's RX rings are lost
   with it;
4. **promote** — the standby synthesizes a ``repro-ckpt/v1`` checkpoint
   which a fresh :class:`~repro.net.dpdk.Shard` restores — the same
   ``fresh shard + restore`` every recovery path takes;
5. **repartition** — :meth:`repro.net.rss.NatSteering.reassign` points
   the dead shard's ownership at the promoted slot and the kill window
   is retired so the slot serves again.

Promotion is instantaneous in simulation, so its *cost* is modeled: the
slot stays in blackout for ``failover_fixed_us`` plus
``restore_us_per_flow`` per restored flow, and packets steered at it
during the blackout are dropped and attributed to the failover. The
resulting :class:`FailoverReport` carries the loss ledger the
availability benchmark aggregates: flows at kill, flows recovered,
flows lost, packets lost (queued + blackout), and the recovery window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro import obs
from repro.nat.base import NetworkFunction
from repro.nat.config import NatConfig
from repro.net.dpdk import ShardedRuntime
from repro.obs import flight
from repro.obs.registry import MetricsRegistry
from repro.packets.headers import Packet
from repro.resil.faults import FaultPlan
from repro.resil.replication import FlowDelta, ReplicationChannel, StandbyReplica

#: Modeled fixed cost of a promotion (detection, ring teardown, NIC
#: redirection-table rewrite), microseconds.
FAILOVER_FIXED_US = 500
#: Modeled per-flow cost of restoring the standby's state into the
#: promoted NF, microseconds per flow.
RESTORE_US_PER_FLOW = 2


@dataclass
class FailoverReport:
    """The loss ledger of one kill-and-promote event."""

    worker: int
    killed_at_us: int
    detected_at_us: int
    ready_at_us: int
    #: Modeled blackout: fixed cost + per-flow restore cost.
    recovery_us: int
    #: Live flows on the active NF at the moment it died.
    flows_at_kill: int
    #: Flows the promoted standby restored.
    flows_recovered: int
    #: Flows the active held that the standby never learned of
    #: (their deltas were in flight when the channel was cut).
    flows_lost: int
    #: In-flight deltas destroyed with the channel (creates, touches
    #: and frees — a superset of ``flows_lost``'s causes).
    deltas_lost: int
    #: Packets queued on the dead worker's RX rings, lost with it.
    packets_lost_queue: int
    #: Packets steered at the slot during the modeled blackout.
    packets_lost_blackout: int = 0
    #: Microflow-cache actions pre-installed from the restored flow
    #: state at promotion (0 when the runtime runs without a fast path).
    fastpath_warmed: int = 0

    @property
    def packets_lost(self) -> int:
        return self.packets_lost_queue + self.packets_lost_blackout

    def to_dict(self) -> Dict:
        return {
            "worker": self.worker,
            "killed_at_us": self.killed_at_us,
            "detected_at_us": self.detected_at_us,
            "ready_at_us": self.ready_at_us,
            "recovery_us": self.recovery_us,
            "flows_at_kill": self.flows_at_kill,
            "flows_recovered": self.flows_recovered,
            "flows_lost": self.flows_lost,
            "deltas_lost": self.deltas_lost,
            "packets_lost_queue": self.packets_lost_queue,
            "packets_lost_blackout": self.packets_lost_blackout,
            "packets_lost": self.packets_lost,
            "fastpath_warmed": self.fastpath_warmed,
        }


def _state_keys(nf_name: str, state: Dict) -> Set[int]:
    """The flow keys in an NF checkpoint payload, in delta-key space.

    The verified NAT keys flows by chain index (row[0] of its ``flows``
    rows: ``[index, touched, fid, port]``); the unverified NAT by
    external port (row[2] of ``[last_seen, fid, port]``).
    """
    rows = state.get("flows", [])
    if nf_name == "verified-nat":
        return {row[0] for row in rows}
    return {row[2] for row in rows}


class ReplicatedRuntime:
    """A sharded data path where every worker has a warm standby.

    Wraps a :class:`~repro.net.dpdk.ShardedRuntime` (same constructor
    surface plus ``lag``) and supports the NFs that emit flow deltas —
    the two NATs. The wire-side API (:meth:`inject`, :meth:`collect`,
    :meth:`main_loop_burst`) delegates to the sharded runtime, with two
    additions: every delta an active NF emits is published on that
    worker's replication channel, and each main-loop turn runs the
    failover controller against the attached fault plan.

    Passing no ``fault_plan`` attaches an empty one — kills can then be
    scripted after construction via :attr:`fault_plan`'s builders.
    """

    def __init__(
        self,
        nf_factory: Callable[[NatConfig], NetworkFunction],
        config: Optional[NatConfig] = None,
        workers: int = 1,
        *,
        lag: int = 0,
        fastpath="off",
        fault_plan: Optional[FaultPlan] = None,
        port_count: int = 2,
        rx_capacity: int = 512,
        pool_size: int = 4096,
        failover_fixed_us: int = FAILOVER_FIXED_US,
        restore_us_per_flow: int = RESTORE_US_PER_FLOW,
    ) -> None:
        if failover_fixed_us < 0 or restore_us_per_flow < 0:
            raise ValueError("failover costs cannot be negative")
        self.fault_plan = fault_plan if fault_plan is not None else FaultPlan()
        self.failover_fixed_us = failover_fixed_us
        self.restore_us_per_flow = restore_us_per_flow
        self.lag = lag
        self.runtime = ShardedRuntime(
            nf_factory,
            config,
            workers,
            port_count=port_count,
            rx_capacity=rx_capacity,
            pool_size=pool_size,
            fastpath=fastpath,
            fault_plan=self.fault_plan,
        )
        self.channels: List[ReplicationChannel] = [
            ReplicationChannel(lag) for _ in range(workers)
        ]
        self.replicas: List[StandbyReplica] = [
            StandbyReplica(nf.name, shard)
            for nf, shard in zip(self.runtime.nfs, self.runtime.shards)
        ]
        for worker_id, nf in enumerate(self.runtime.nfs):
            nf.delta_sink(self._sink_for(worker_id))
        self.reports: List[FailoverReport] = []
        #: Slot → modeled blackout deadline (µs); packets steered at a
        #: slot before its deadline are dropped as failover loss.
        self._blackout_until: Dict[int, int] = {}
        self._blackout_report: Dict[int, FailoverReport] = {}
        self.blackout_dropped = 0

    # -- replication --------------------------------------------------------
    def _sink_for(self, worker_id: int) -> Callable:
        channel = self.channels[worker_id]
        replica = self.replicas[worker_id]

        def sink(raw: Tuple[str, int, object, int]) -> None:
            op, key, payload, t_us = raw
            delivered = channel.publish(FlowDelta(op, key, payload, t_us))
            replica.apply_all(delivered)
            recorder = obs.recorder()
            if recorder.active:
                recorder.trace(
                    flight.REPLICATE, t_us=t_us, worker=worker_id, detail=op
                )

        return sink

    def drain_replication(self) -> None:
        """Synchronization barrier: deliver every in-flight delta.

        Models a clean shutdown or a periodic full sync — after this the
        standbys hold exactly the actives' abstract state regardless of
        lag.
        """
        for channel, replica in zip(self.channels, self.replicas):
            replica.apply_all(channel.drain())

    # -- wire side ----------------------------------------------------------
    @property
    def workers(self) -> int:
        return self.runtime.workers

    @property
    def steered(self) -> List[int]:
        return self.runtime.steered

    def worker_for(self, packet: Packet) -> int:
        return self.runtime.worker_for(packet)

    def inject(self, port_id: int, packet: Packet, timestamp: int) -> bool:
        """Deliver a packet from the wire, minding blackout windows.

        A packet steered at a slot still inside its modeled promotion
        blackout is lost — the standby is warming up and the queue it
        would land on does not exist yet.
        """
        if self._blackout_until:
            target = self.runtime.worker_for(packet)
            deadline = self._blackout_until.get(target)
            if deadline is not None:
                if timestamp < deadline:
                    self.blackout_dropped += 1
                    report = self._blackout_report.get(target)
                    if report is not None:
                        report.packets_lost_blackout += 1
                    recorder = obs.recorder()
                    if recorder.active:
                        recorder.trace(
                            flight.DROP,
                            t_us=timestamp,
                            worker=target,
                            reason=flight.REASON_WORKER_KILL,
                            detail="promotion blackout",
                        )
                    return False
                self._end_blackout(target)
        return self.runtime.inject(port_id, packet, timestamp)

    def collect(self) -> List[Tuple[int, int, Packet]]:
        return self.runtime.collect()

    def collect_by_worker(self) -> List[List[Tuple[int, int, Packet]]]:
        return self.runtime.collect_by_worker()

    # -- the main loop + failover controller --------------------------------
    def main_loop_burst(self, now_us: int, burst_size: int = 32) -> int:
        """One turn on every worker, after running the failover controller.

        Kills are detected against the fault plan *before* the sharded
        turn runs, so the promoted standby serves in the same turn its
        predecessor died (modulo the modeled blackout at the wire).
        """
        plan = self.fault_plan
        if not plan.empty:
            for worker_id in range(self.workers):
                if plan.worker_killed(now_us, worker_id):
                    self._failover(worker_id, now_us)
        for worker_id, deadline in list(self._blackout_until.items()):
            if now_us >= deadline:
                self._end_blackout(worker_id)
        return self.runtime.main_loop_burst(now_us, burst_size)

    def kill_worker(self, worker_id: int, at_us: int) -> None:
        """Script a kill directly (sugar over the fault plan)."""
        self.fault_plan.kill_worker(worker_id, at_us)

    def _end_blackout(self, worker_id: int) -> None:
        self._blackout_until.pop(worker_id, None)
        self._blackout_report.pop(worker_id, None)

    def _failover(self, worker_id: int, now_us: int) -> None:
        """Cut, flush, promote, repartition — one dead worker."""
        plan = self.fault_plan
        killed_at = min(
            (
                f.start_us
                for f in plan.faults
                if f.kind == "worker-kill" and f.active_at(now_us, worker_id)
            ),
            default=now_us,
        )
        dead_nf = self.runtime.nfs[worker_id]
        active_keys = _state_keys(dead_nf.name, dead_nf.checkpoint_state())

        # 2. cut: in-flight deltas die with the channel.
        lost_deltas = self.channels[worker_id].lost_in_flight()
        recorder = obs.recorder()
        tracing = recorder.active
        if tracing and lost_deltas:
            recorder.trace(
                flight.REPLICATE,
                t_us=now_us,
                worker=worker_id,
                reason=flight.REASON_REPLICATION_LOSS,
                detail=f"{len(lost_deltas)} deltas lost at cut",
            )

        # 3. flush: queued packets are lost with the worker.
        packets_lost_queue = self.runtime.flush_worker(worker_id, now_us)

        # 4. promote: a fresh shard built holding the standby's
        # checkpoint — the same restore path a cold restart would take.
        replica = self.replicas[worker_id]
        shard = self.runtime.fresh_shard(worker_id, replica.to_checkpoint(now_us))
        shard.nf.delta_sink(self._sink_for(worker_id))
        # The restored NF knows every recovered flow; rebuild the
        # microflow cache from that state so the promoted standby does
        # not serve its first packets at a 0% hit rate.
        fastpath_warmed = shard.nf.warm() if shard.fastpath != "off" else 0
        # Packets the dead worker had already transmitted are on the
        # wire — they survive the kill. Carry them onto the fresh
        # shard's TX side so collect() still delivers them.
        for port_id, port in self.runtime.units[worker_id].runtime.ports.items():
            for sent_at, packet in port.drain_tx():
                shard.runtime.ports[port_id].transmit(packet, sent_at)
        self.runtime.units[worker_id] = shard

        # 5. repartition ownership and retire the kill so the slot serves.
        # Shard index equals the slot the standby is promoted into (the
        # standby takes over its partner's queue), but the reassignment
        # goes through the steering table so a custom topology could
        # promote onto any slot.
        self.runtime.steering.reassign(worker_id, worker_id)
        plan.clear(kind="worker-kill", worker=worker_id)

        recovered_keys = set(replica.established_keys())
        flows_recovered = len(recovered_keys)
        recovery_us = (
            self.failover_fixed_us + self.restore_us_per_flow * flows_recovered
        )
        report = FailoverReport(
            worker=worker_id,
            killed_at_us=killed_at,
            detected_at_us=now_us,
            ready_at_us=now_us + recovery_us,
            recovery_us=recovery_us,
            flows_at_kill=len(active_keys),
            flows_recovered=flows_recovered,
            flows_lost=len(active_keys - recovered_keys),
            deltas_lost=len(lost_deltas),
            packets_lost_queue=packets_lost_queue,
            fastpath_warmed=fastpath_warmed,
        )
        self.reports.append(report)
        if recovery_us > 0:
            self._blackout_until[worker_id] = report.ready_at_us
            self._blackout_report[worker_id] = report
        if tracing:
            recorder.trace(
                flight.FAILOVER,
                t_us=now_us,
                worker=worker_id,
                detail=(
                    f"promoted standby: {flows_recovered}/{len(active_keys)} "
                    f"flows, ready at {report.ready_at_us}"
                ),
            )

    # -- introspection -------------------------------------------------------
    def flow_count(self) -> int:
        return self.runtime.flow_count()

    def standby_flow_count(self) -> int:
        """Live flows across all standbys (lags the actives by design)."""
        return sum(replica.flow_count() for replica in self.replicas)

    def op_counters(self) -> Dict[str, int]:
        return self.runtime.op_counters()

    def per_worker_counters(self) -> List[Dict[str, int]]:
        return self.runtime.per_worker_counters()

    def drop_causes(self) -> Dict[str, int]:
        """The sharded runtime's causes plus the failover-owned ones."""
        causes = self.runtime.drop_causes()
        causes["failover_blackout_dropped"] = self.blackout_dropped
        causes["replication_deltas_lost"] = sum(
            channel.lost_total for channel in self.channels
        )
        return causes

    # -- observability -------------------------------------------------------
    def register_metrics(self, registry) -> None:
        """Everything the sharded runtime exports, plus replication/failover."""
        self.runtime.register_metrics(registry)
        for worker_id, (channel, replica) in enumerate(
            zip(self.channels, self.replicas)
        ):
            labels = {"worker": str(worker_id)}
            registry.counter_fn(
                "replication_published_total",
                lambda c=channel: c.published_total,
                "flow deltas published by the active NF",
                labels,
            )
            registry.counter_fn(
                "replication_delivered_total",
                lambda c=channel: c.delivered_total,
                "flow deltas delivered to the standby",
                labels,
            )
            registry.counter_fn(
                "replication_lost_total",
                lambda c=channel: c.lost_total,
                "in-flight deltas destroyed at channel cut",
                labels,
            )
            registry.gauge_fn(
                "replication_in_flight",
                lambda c=channel: c.in_flight_count(),
                "deltas currently in transit (== configured lag, steady state)",
                labels,
            )
            registry.gauge_fn(
                "standby_flows",
                lambda r=replica: r.flow_count(),
                "flows currently mirrored on the standby",
                labels,
            )
            registry.counter_fn(
                "standby_out_of_order_total",
                lambda r=replica: r.out_of_order_total,
                "deltas referencing flows the standby never saw",
                labels,
            )
        registry.counter_fn(
            "failover_total",
            lambda: len(self.reports),
            "standby promotions performed",
        )
        registry.counter_fn(
            "failover_blackout_dropped_total",
            lambda: self.blackout_dropped,
            "packets lost to modeled promotion blackouts",
        )

    def snapshot_metrics(self) -> Dict:
        registry = MetricsRegistry()
        self.register_metrics(registry)
        return registry.snapshot()

    # -- control plane -------------------------------------------------------
    def checkpoint(self, now_us: int = 0):
        """A coordinated checkpoint of the *active* NFs (standbys lag)."""
        return self.runtime.checkpoint(now_us)

    def restore(self, checkpoint_set) -> None:
        """Adopt a coordinated checkpoint: actives and standbys alike.

        The actives restore all-or-nothing (``SteeringFront.restore``).
        ``Shard.restore`` lands the state in a *fresh* NF, so each
        worker's delta sink is attached anew; its standby is rebuilt
        from the restored frame, and what described the pre-restore
        state — deltas in flight, promotion blackouts — is discarded.
        """
        self.runtime.restore(checkpoint_set)
        frames = checkpoint_set.for_workers(self.workers)
        for worker_id, (nf, frame) in enumerate(zip(self.runtime.nfs, frames)):
            self.channels[worker_id].lost_in_flight()
            self.replicas[worker_id].adopt(frame.state)
            nf.delta_sink(self._sink_for(worker_id))
            self._end_blackout(worker_id)

    def stop(self) -> None:
        """Nothing to tear down — replicas are plain objects in-thread."""


__all__ = [
    "FAILOVER_FIXED_US",
    "RESTORE_US_PER_FLOW",
    "FailoverReport",
    "ReplicatedRuntime",
]
