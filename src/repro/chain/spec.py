"""NF service chains: one spec, one launcher, the same runtime protocol.

A :class:`ChainSpec` composes existing NFs (firewall, bridge, limiter,
the NATs, the no-op forwarder) into an ordered service chain; the
resulting :class:`ChainRuntime` satisfies the same
:class:`~repro.net.app.Runtime` protocol every other launched runtime
speaks, so drivers, sweeps and the CLI treat a whole chain like one NF.

Topology and device remapping
-----------------------------

The chain has two wire ports: port 0 faces stage 0's ``device_a`` side
(the "left"/inward edge), port 1 faces the last stage's ``device_b``
side (the "right"/outward edge). Each stage keeps its own device
numbering; the chain remaps at every handoff:

- a packet a stage emits on its ``device_b`` moves right — into the
  next stage (arriving on that stage's ``device_a``) or, after the last
  stage, out chain port 1;
- a packet emitted on ``device_a`` moves left — into the previous stage
  (arriving on its ``device_b``) or, before stage 0, out chain port 0;
- anything else is a *misroute*: dropped, counted per stage, and
  recorded in the stage's truth log.

Each stage runs behind its own launched engine — an
:class:`~repro.net.app.InlineRuntime` (``execution="inline"``) or a
single-worker :class:`~repro.net.procrun.ProcessShardedRuntime`
(``execution="process"``) — so a chain composes *runtimes*, not bare
NFs, and per-stage pool/port accounting comes for free. The chain-level
``main_loop_burst`` threads every stage's TX into its neighbor's RX
within the turn: an ascending sweep carries rightward traffic the whole
way in one turn, a descending sweep then does the same for leftward
traffic (NAT replies), so one turn fully flushes both directions.

Truth logs. Every stage owns a bounded
:class:`~repro.obs.flight.FlightRecorder` that records each handoff in
(``rx``), emission (``tx``) and misroute (``drop``) regardless of the
global observability switch — the last ``truth_log_capacity`` events
per stage are always available for post-mortems via
:meth:`ChainRuntime.stage_truth`. A record is one tuple stored in the
ring (the device as an int); the event objects and their ``"dev N"``
strings are built when the log is read. ``chain_stage_*``
counters/gauges are stamped with stage labels (via
:func:`~repro.obs.with_labels`) in :meth:`ChainRuntime.snapshot_metrics`.

Checkpoint/restore. :meth:`ChainRuntime.checkpoint` binds one frame per
stage into a single ``repro-ckpt-set/v1``
:class:`~repro.resil.checkpoint.CheckpointSet` (stage order is frame
order); :meth:`ChainRuntime.restore` is all-or-nothing — every frame is
first restored into a throwaway NF (running the full per-NF
validation) and only then does each stage engine restore its own, so a
bad set leaves the chain untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.nat.base import NetworkFunction
from repro.nat.config import NatConfig
from repro.nat.fastpath import check_fastpath
from repro.net.app import INLINE, PROCESS, RuntimeSpec, launch
from repro.net.dpdk import build_nf, ingress_fault
from repro.net.nic import Port
from repro.obs import flight
from repro.obs.flight import FlightRecorder
from repro.obs.registry import MetricsRegistry, with_labels
from repro.packets.headers import Packet
from repro.resil.checkpoint import CheckpointError, CheckpointSet

#: Execution modes a chain supports: every stage inline in this
#: process, or one OS process per stage.
CHAIN_EXECUTIONS = (INLINE, PROCESS)


@dataclass(frozen=True)
class ChainStage:
    """One position in a service chain: an NF and its two-sided port map.

    ``nf_factory`` is called with ``config`` (which may be ``None`` or
    any NF-specific config object — the chain never partitions it);
    ``device_a``/``device_b`` name the NF's own inward/outward devices,
    matching its config (e.g. a NAT's ``internal_device``/
    ``external_device``, a limiter's ingress/egress).
    """

    name: str
    nf_factory: Callable[[Optional[object]], NetworkFunction]
    config: Optional[object] = None
    device_a: int = 0
    device_b: int = 1

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("every chain stage needs a name")
        if not callable(self.nf_factory):
            raise ValueError(f"stage {self.name!r}: nf_factory must be callable")
        if self.device_a < 0 or self.device_b < 0:
            raise ValueError(f"stage {self.name!r}: devices must be >= 0")
        if self.device_a == self.device_b:
            raise ValueError(f"stage {self.name!r}: devices must differ")


@dataclass(frozen=True)
class ChainSpec:
    """Everything needed to stand up a service chain, in one value.

    Frozen and validated like :class:`~repro.net.app.RuntimeSpec`: a
    chain spec can be hashed, logged in a benchmark record, and varied
    with :meth:`with_` — two runs launched from equal specs are
    comparable runs. ``fastpath`` goes to every stage as it is;
    :func:`~repro.net.dpdk.build_nf` wraps exactly the stages whose NF
    is a fast-path provider (the others run their slow path unchanged,
    preserving byte identity).
    """

    stages: Tuple[ChainStage, ...]
    execution: str = INLINE
    fastpath: str = "off"
    burst_size: int = 32
    rx_capacity: int = 512
    pool_size: int = 4096
    fault_plan: Optional[object] = None
    #: Bounded per-stage truth-log ring (always recording).
    truth_log_capacity: int = 256
    #: Process execution only, forwarded to each stage's RuntimeSpec.
    transport: str = "shm"
    turn_timeout_s: float = 30.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "stages", tuple(self.stages))
        check_fastpath(self.fastpath)
        if not self.stages:
            raise ValueError("a chain needs at least one stage")
        names = [stage.name for stage in self.stages]
        if len(set(names)) != len(names):
            raise ValueError(f"stage names must be unique, got {names}")
        if self.execution not in CHAIN_EXECUTIONS:
            raise ValueError(
                f"unknown chain execution {self.execution!r}; "
                f"choose one of {CHAIN_EXECUTIONS}"
            )
        if self.burst_size <= 0:
            raise ValueError("burst size must be positive")
        if self.rx_capacity <= 0 or self.pool_size <= 0:
            raise ValueError("rx capacity and pool size must be positive")
        if self.truth_log_capacity <= 0:
            raise ValueError("truth log capacity must be positive")
        if self.turn_timeout_s <= 0:
            raise ValueError("turn timeout must be positive")
        from repro.net.procrun import TRANSPORTS

        if self.transport not in TRANSPORTS:
            raise ValueError(
                f"unknown transport {self.transport!r}; "
                f"choose one of {TRANSPORTS}"
            )

    def with_(self, **overrides) -> "ChainSpec":
        """A varied copy — ``spec.with_(execution=PROCESS)``."""
        return replace(self, **overrides)


class ChainRuntime:
    """A launched service chain, driven like any other runtime.

    See the module docstring for topology, truth logs and the
    checkpoint contract. ``workers`` reports the number of stages.
    """

    def __init__(self, spec: ChainSpec) -> None:
        self.spec = spec
        self.stages = spec.stages
        n = len(spec.stages)
        self.engines = [launch(self._stage_spec(i)) for i in range(n)]
        self._down: List[bool] = [False] * n
        # Two wire-facing ports with bounded RX rings, like any NIC.
        self._ports = [Port(0, spec.rx_capacity), Port(1, spec.rx_capacity)]
        # Handoff buffers: packets waiting to enter stage i next sweep,
        # as (stage-local device, timestamp, packet).
        self._pending: List[List[Tuple[int, int, Packet]]] = [[] for _ in range(n)]
        # Truth logs + chain_stage_* counter state.
        self.stage_logs = [
            FlightRecorder(spec.truth_log_capacity, detail_unit="dev")
            for _ in range(n)
        ]
        self._stage_rx = [0] * n
        self._stage_tx = [0] * n
        self._stage_misroute = [0] * n
        self._stage_killed = [0] * n
        self._handoffs = 0
        self._exited = [0, 0]
        self._promotions = 0
        self.fault_wire_dropped = 0
        self.fault_wire_corrupted = 0

    # -- construction ----------------------------------------------------------
    def _stage_spec(self, index: int) -> RuntimeSpec:
        stage = self.stages[index]
        spec = self.spec
        # The stage factory closes over the stage's own config; the
        # RuntimeSpec-level config only feeds process-mode partitioning
        # plumbing (degenerate at one worker), so it is passed through
        # only when it actually is a NatConfig.
        config = stage.config
        return RuntimeSpec(
            nf_factory=lambda _shard_config: stage.nf_factory(stage.config),
            config=config if isinstance(config, NatConfig) else None,
            workers=1,
            execution=spec.execution,
            fastpath=spec.fastpath,
            burst_size=spec.burst_size,
            port_count=max(2, stage.device_a + 1, stage.device_b + 1),
            rx_capacity=spec.rx_capacity,
            pool_size=spec.pool_size,
            transport=spec.transport,
            turn_timeout_s=spec.turn_timeout_s,
        )

    # -- introspection ---------------------------------------------------------
    @property
    def workers(self) -> int:
        """Stages in the chain (each stage is one worker slot)."""
        return len(self.stages)

    def stage_truth(self, index: int) -> FlightRecorder:
        """Stage ``index``'s bounded truth log (always recording)."""
        return self.stage_logs[index]

    def stage_names(self) -> List[str]:
        return [stage.name for stage in self.stages]

    def per_stage_counters(self) -> List[Dict[str, int]]:
        """Each stage NF's own op counters, in chain order."""
        return [dict(engine.op_counters()) for engine in self.engines]

    def op_counters(self) -> Dict[str, int]:
        return {
            "injected": sum(p.counters.rx_packets for p in self._ports),
            "exited": sum(self._exited),
            "handoffs": self._handoffs,
            "misroutes": sum(self._stage_misroute),
            "stage_killed": sum(self._stage_killed),
            "promotions": self._promotions,
        }

    def drop_causes(self) -> Dict[str, int]:
        causes: Dict[str, int] = {
            "chain_rx_ring_full": sum(p.counters.rx_dropped for p in self._ports),
            "chain_misroute": sum(self._stage_misroute),
            "chain_stage_killed": sum(self._stage_killed),
        }
        for engine in self.engines:
            for key, value in engine.drop_causes().items():
                causes[key] = causes.get(key, 0) + value
        if self.spec.fault_plan is not None:
            causes["fault_wire_dropped"] = self.fault_wire_dropped
            causes["fault_wire_corrupted"] = self.fault_wire_corrupted
        return causes

    def flow_count(self) -> int:
        return sum(engine.flow_count() for engine in self.engines)

    # -- wire side -------------------------------------------------------------
    def inject(self, port_id: int, packet: Packet, timestamp: int) -> bool:
        """Deliver a packet from the wire onto one of the chain's edges.

        The chain's fault plan is consulted here (the inject choke
        point), scoped to the entry stage's index: drops/corruption/
        delay exactly like the sharded runtimes, and a firing
        ``reorder`` fault swaps the port's two newest descriptors.
        """
        if port_id not in (0, 1):
            raise ValueError(f"chain ports are 0 and 1, got {port_id}")
        scope = 0 if port_id == 0 else len(self.stages) - 1
        plan = self.spec.fault_plan
        reorder = False
        if plan is not None and not plan.empty:
            hit = ingress_fault(plan, self, packet, timestamp, scope)
            if hit is None:
                return False
            packet, timestamp, reorder = hit
        accepted = self._ports[port_id].deliver(packet, timestamp)
        if reorder and accepted:
            self._ports[port_id].swap_tail()
        return accepted

    def collect(self) -> List[Tuple[int, int, Packet]]:
        """Everything the chain transmitted: (port, timestamp, packet)."""
        merged: List[Tuple[int, int, Packet]] = []
        for port in self._ports:
            merged.extend(
                (port.port_id, ts, pkt) for ts, pkt in port.drain_tx()
            )
        return merged

    # -- the chain main loop -----------------------------------------------------
    def main_loop_burst(self, now_us: int, burst_size: Optional[int] = None) -> int:
        """One chain turn: ingest both edges, then sweep both ways.

        The ascending sweep (stage 0 → N-1) lets rightward traffic
        traverse the whole chain within the turn; the descending sweep
        then flushes leftward traffic the same way. Handoffs produced
        against a sweep's direction wait for the opposite sweep — still
        inside this turn — so a quiescent chain is fully drained after
        every ``main_loop_burst`` (the checkpoint fence).
        """
        burst = burst_size if burst_size is not None else self.spec.burst_size
        last = len(self.stages) - 1
        while True:
            item = self._ports[0].rx_pop()
            if item is None:
                break
            ts, pkt = item
            self._enqueue(0, self.stages[0].device_a, ts, pkt)
        while True:
            item = self._ports[1].rx_pop()
            if item is None:
                break
            ts, pkt = item
            self._enqueue(last, self.stages[last].device_b, ts, pkt)
        processed = self._sweep(range(len(self.stages)), now_us, burst)
        processed += self._sweep(range(last, -1, -1), now_us, burst)
        return processed

    def _enqueue(self, index: int, device: int, ts: int, packet: Packet) -> None:
        self._pending[index].append((device, ts, packet))
        self._stage_rx[index] += 1
        self.stage_logs[index].record(flight.RX, ts, index, detail=device)

    def _sweep(self, order, now_us: int, burst: int) -> int:
        processed = 0
        for i in order:
            batch = self._pending[i]
            if not batch:
                continue
            self._pending[i] = []
            if self._down[i]:
                # A failed stage with no promoted standby blackholes its
                # traffic — the measured disruption scenarios count on it.
                self._stage_killed[i] += len(batch)
                for _dev, ts, _pkt in batch:
                    self.stage_logs[i].record(
                        flight.DROP,
                        t_us=ts,
                        worker=i,
                        reason=flight.REASON_WORKER_KILL,
                    )
                continue
            engine = self.engines[i]
            for device, ts, pkt in batch:
                pkt.device = device
                engine.inject(device, pkt, ts)
            processed += engine.main_loop_burst(now_us, burst)
            for port, ts, out in engine.collect():
                self._route(i, port, ts, out)
        return processed

    def _route(self, index: int, port: int, ts: int, packet: Packet) -> None:
        stage = self.stages[index]
        self._stage_tx[index] += 1
        self.stage_logs[index].record(flight.TX, ts, index, detail=port)
        if port == stage.device_b:
            if index == len(self.stages) - 1:
                self._exit(1, ts, packet)
            else:
                self._handoffs += 1
                self._enqueue(
                    index + 1, self.stages[index + 1].device_a, ts, packet
                )
        elif port == stage.device_a:
            if index == 0:
                self._exit(0, ts, packet)
            else:
                self._handoffs += 1
                self._enqueue(
                    index - 1, self.stages[index - 1].device_b, ts, packet
                )
        else:
            self._stage_misroute[index] += 1
            self.stage_logs[index].record(
                flight.DROP,
                t_us=ts,
                worker=index,
                reason=flight.REASON_CHAIN_MISROUTE,
                detail=port,
            )

    def _exit(self, chain_port: int, ts: int, packet: Packet) -> None:
        packet.device = chain_port
        self._ports[chain_port].transmit(packet, ts)
        self._exited[chain_port] += 1

    # -- observability -----------------------------------------------------------
    def register_metrics(self, registry) -> None:
        """Chain-level instruments (ports, handoffs, exits)."""
        for port in self._ports:
            port.register_metrics(registry, {"edge": "chain"})
        registry.counter_fn(
            "chain_handoffs_total",
            lambda: self._handoffs,
            "packets handed from one stage to a neighbor",
        )
        registry.counter_fn(
            "chain_exited_total",
            lambda: sum(self._exited),
            "packets that left the chain on either wire port",
        )
        registry.gauge_fn(
            "chain_stages",
            lambda: len(self.stages),
            "stages in this chain",
        )

    def snapshot_metrics(self) -> Dict:
        """One merged snapshot: chain instruments plus every stage's own
        metrics and its ``chain_stage_*`` series, stage-labeled."""
        registry = MetricsRegistry()
        self.register_metrics(registry)
        snapshots = [registry.snapshot()]
        for i, (stage, engine) in enumerate(zip(self.stages, self.engines)):
            labels = {"stage": str(i), "stage_name": stage.name}
            stage_registry = MetricsRegistry()
            stage_registry.counter_fn(
                "chain_stage_rx_total",
                lambda i=i: self._stage_rx[i],
                "packets handed to this stage",
            )
            stage_registry.counter_fn(
                "chain_stage_tx_total",
                lambda i=i: self._stage_tx[i],
                "packets this stage emitted",
            )
            stage_registry.counter_fn(
                "chain_stage_misroute_total",
                lambda i=i: self._stage_misroute[i],
                "packets emitted on a device mapping to no neighbor",
            )
            stage_registry.counter_fn(
                "chain_stage_killed_total",
                lambda i=i: self._stage_killed[i],
                "packets blackholed while the stage was down",
            )
            stage_registry.gauge_fn(
                "chain_stage_flows",
                lambda i=i: 0 if self._down[i] else self.engines[i].flow_count(),
                "per-stage flow-state entries",
            )
            snapshots.append(with_labels(stage_registry.snapshot(), labels))
            if not self._down[i]:
                snapshots.append(with_labels(engine.snapshot_metrics(), labels))
        from repro.obs import merge_snapshots

        return merge_snapshots(snapshots)

    # -- control plane -------------------------------------------------------
    def checkpoint(self, now_us: int = 0) -> CheckpointSet:
        """One coordinated set: frame ``i`` is stage ``i``'s state.

        The caller owns the fence: checkpoint only between completed
        ``main_loop_burst`` turns, when no handoff is pending.
        """
        frames = []
        for index, engine in enumerate(self.engines):
            if self._down[index]:
                raise CheckpointError(
                    f"stage {index} ({self.stages[index].name}) is down; "
                    f"promote a standby before checkpointing the chain"
                )
            frames.append(engine.checkpoint(now_us).checkpoints[0])
        return CheckpointSet(taken_at_us=now_us, checkpoints=tuple(frames))

    def checkpoint_stage(self, index: int, now_us: int = 0) -> CheckpointSet:
        """A single-stage set (e.g. to keep a warm standby in sync)."""
        return self.engines[index].checkpoint(now_us)

    def restore(self, checkpoint_set: CheckpointSet) -> None:
        """Adopt a chain-wide set, all-or-nothing.

        Every frame is first restored into a throwaway NF per stage —
        running the full name/config/state validation — and only when
        all of them pass does any engine restore its own frame, so a
        corrupt or mismatched set leaves the running chain untouched.
        """
        if checkpoint_set.workers != len(self.stages):
            raise CheckpointError(
                f"checkpoint set holds {checkpoint_set.workers} stage(s), "
                f"chain has {len(self.stages)}"
            )
        for stage, frame in zip(self.stages, checkpoint_set.checkpoints):
            build_nf(stage.nf_factory, stage.config, self.spec.fastpath, frame)
        for index, frame in enumerate(checkpoint_set.checkpoints):
            self.engines[index].restore(
                CheckpointSet(checkpoint_set.taken_at_us, (frame,))
            )
            self._down[index] = False

    def fail_stage(self, index: int) -> None:
        """Take one stage down (its engine stops serving immediately).

        Until a standby is promoted with :meth:`swap_stage`, traffic
        reaching the stage is blackholed and counted — the measured
        disruption window the scenario suite bounds.
        """
        self._down[index] = True
        self.engines[index].stop()

    def swap_stage(self, index: int, checkpoint_set: Optional[CheckpointSet] = None):
        """Promote a standby for one stage: fresh engine, optional state.

        Builds a new engine from the stage's spec, optionally restores a
        single-stage checkpoint set into it (the warm standby), then
        swaps it in and stops the old engine — whose queued packets, if
        any, die with it. Returns the new engine.
        """
        if checkpoint_set is not None and checkpoint_set.workers != 1:
            raise CheckpointError(
                f"stage swap takes a single-stage set, got "
                f"{checkpoint_set.workers} frames"
            )
        engine = launch(self._stage_spec(index))
        if checkpoint_set is not None:
            try:
                engine.restore(checkpoint_set)
            except Exception:
                engine.stop()
                raise
        old, self.engines[index] = self.engines[index], engine
        if not self._down[index]:
            old.stop()
        self._down[index] = False
        self._promotions += 1
        return engine

    def stop(self) -> None:
        for index, engine in enumerate(self.engines):
            if not self._down[index]:
                engine.stop()


def launch_chain(spec: ChainSpec) -> ChainRuntime:
    """Stand up the chain a spec describes (the one construction path)."""
    return ChainRuntime(spec)
