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
- anything else is a *misroute*: dropped and counted per stage.

The chain is one substrate: one :class:`~repro.net.dpdk.DpdkRuntime`
(two wire ports, one mbuf pool). A frame gets its buffer in the chain's
``rx_burst`` and keeps it across every stage; it goes back exactly once
— at exit through ``tx_burst``, or when an NF drop, a misroute or a
down stage frees it. Every stage is the NF
:func:`~repro.net.dpdk.build_nf` made, run inline on ``process_burst``
chunks of at most ``burst_size``. ``main_loop_burst`` threads every
stage's output into its neighbor within the turn: an ascending sweep
carries rightward traffic the whole way, a descending sweep then does
the same for leftward traffic (NAT replies), so one turn flushes both
directions.

Tracing. While the global recorder (:func:`repro.obs.recorder`) is
active, the staged path traces each stage hop into it like every other
runtime: a handoff in (``rx``), an emission (``tx``), a misroute
(``drop``, ``chain-misroute``), a frame its stage's NF dropped
(``drop``, ``nf-drop``) and a frame reaching a down stage (``drop``,
``worker-kill``), each with the stage index as ``worker`` and the
stage-local device as ``detail``. With it off, the chain traces
nothing. ``chain_stage_*`` counters/gauges are stamped with stage labels
(via :func:`~repro.obs.with_labels`) in
:meth:`ChainRuntime.snapshot_metrics`.

Fused hits (``docs/CHAINS.md`` §2b). A chain whose every stage
is a libVig NF behind its action cache fires, for the turn's maximal
prefix of frames every stage would hit (port 0's, then port 1's), one
cached per-flow composition of the stages' actions. Every key a stage's
cache drops evicts the entries holding it (``fused ⊆ cached actions``).

Checkpoint/restore. :meth:`ChainRuntime.checkpoint` binds one frame per
stage into a single ``repro-ckpt-set/v1``
:class:`~repro.resil.checkpoint.CheckpointSet` (stage order is frame
order); :meth:`ChainRuntime.restore` is all-or-nothing — every stage's
NF is first built holding its frame (running the full per-NF
validation) and only then does any stage adopt its own, down stages
included — so a bad set leaves the chain untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial, reduce
from typing import Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.nat.base import NetworkFunction
from repro.nat.concrete import LibvigNf
from repro.nat.fastpath import FastPathNat, check_fastpath
from repro.net.dpdk import DpdkRuntime, build_nf, ingress_fault, unmatched_outputs
from repro.net.mbuf import Mbuf
from repro.obs import flight
from repro.obs.registry import MetricsRegistry, with_labels
from repro.packets.headers import Packet
from repro.resil.checkpoint import CheckpointError, CheckpointSet, snapshot


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
    fastpath: str = "off"
    burst_size: int = 32
    rx_capacity: int = 512
    pool_size: int = 4096
    fault_plan: Optional[object] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "stages", tuple(self.stages))
        check_fastpath(self.fastpath)
        if not self.stages:
            raise ValueError("a chain needs at least one stage")
        names = [stage.name for stage in self.stages]
        if len(set(names)) != len(names):
            raise ValueError(f"stage names must be unique, got {names}")
        if self.burst_size <= 0:
            raise ValueError("burst size must be positive")
        if self.rx_capacity <= 0 or self.pool_size <= 0:
            raise ValueError("rx capacity and pool size must be positive")

    def with_(self, **overrides) -> "ChainSpec":
        """A varied copy — ``spec.with_(fastpath="compiled")``."""
        return replace(self, **overrides)


class ChainRuntime:
    """A launched service chain, driven like any other runtime.

    See the module docstring for the one substrate, topology, tracing,
    fused hits and the checkpoint contract. ``runtime`` is the chain's
    ``DpdkRuntime`` (wire ports and pool); ``engines[i]`` is stage
    ``i``'s NF. ``workers`` reports the number of stages.
    """

    def __init__(self, spec: ChainSpec) -> None:
        self.spec = spec
        self.stages = spec.stages
        n = len(spec.stages)
        self.runtime = DpdkRuntime(2, spec.rx_capacity, spec.pool_size)
        self._ports = self.runtime.ports
        self.engines = [
            build_nf(stage.nf_factory, stage.config, spec.fastpath)
            for stage in spec.stages
        ]
        self._down: List[bool] = [False] * n
        # Buffers waiting to enter stage i next sweep, by the stage-local
        # device they arrive on — served in device order, as a NIC
        # drains its ports.
        self._pending: List[Dict[int, List[Mbuf]]] = [
            {device: [] for device in sorted((s.device_a, s.device_b))}
            for s in spec.stages
        ]
        # A hop is (stage, the device it arrives on) or (None, chain
        # port). Stage i's device_a leads to lefts[i], its device_b to
        # rights[i + 1], any other device nowhere (a misroute).
        lefts = [(None, 0)] + [(i, s.device_b) for i, s in enumerate(spec.stages)]
        rights = [(i, s.device_a) for i, s in enumerate(spec.stages)] + [(None, 1)]
        self._hops = [
            {s.device_a: lefts[i], s.device_b: rights[i + 1]}
            for i, s in enumerate(spec.stages)
        ]
        self._entries = (rights[0], lefts[n])
        # Buffers leaving on chain port 0 / 1 at the end of the turn.
        self._exits: List[List[Mbuf]] = [[], []]
        # chain_stage_* counter state; the turn's trace call, None while
        # the global recorder is off.
        self._trace = None
        self._stage_rx = [0] * n
        self._stage_tx = [0] * n
        self._stage_misroute = [0] * n
        self._stage_killed = [0] * n
        self._handoffs = 0
        self._promotions = 0
        self.fault_wire_dropped = 0
        self.fault_wire_corrupted = 0
        # Fused hits. Per port, flow key at entry -> (composed closure,
        # tokens in path order, [(stage, stage key)]); per stage, stage
        # key -> the (port, entry key)s holding it.
        self._fusing = all(
            isinstance(engine, FastPathNat) and isinstance(engine.inner, LibvigNf)
            for engine in self.engines
        )
        last = spec.stages[-1]
        self._one_port = last.device_b < last.device_a
        self._waiting: List[Dict[int, List[Mbuf]]] = [{} for _ in range(n)]
        self._fused_frames = 0
        self._bind()

    def _bind(self) -> None:
        """Empty the fused table and attach it to the current engines."""
        self._fused: Tuple[Dict, Dict] = ({}, {})
        self._owners: List[Dict] = [{} for _ in self.stages]
        if not self._fusing:
            return
        for index, engine in enumerate(self.engines):
            engine.on_flow_freed(partial(self._evict, index))
        # Each stage's NF is its own provider (fastpath_hooks() is itself).
        self._nfs = hooks = [engine.inner for engine in self.engines]
        self._scans = [h.begin_burst for h in hooks]
        rejuvenates = [h.rejuvenate for h in hooks]
        # In path order: port 0's frames cross stage 0 first, port 1's last.
        self._rejuvenates = (rejuvenates, rejuvenates[::-1])

    # -- introspection ---------------------------------------------------------
    @property
    def workers(self) -> int:
        """Stages in the chain (each stage is one worker slot)."""
        return len(self.stages)

    def stage_names(self) -> List[str]:
        return [stage.name for stage in self.stages]

    def per_stage_counters(self) -> List[Dict[str, int]]:
        """Each stage NF's own op counters, in chain order."""
        return [dict(engine.op_counters()) for engine in self.engines]

    def op_counters(self) -> Dict[str, int]:
        ports = self._ports.values()
        return {
            "injected": sum(p.counters.rx_packets for p in ports),
            "exited": sum(p.counters.tx_packets for p in ports),
            "handoffs": self._handoffs,
            "misroutes": sum(self._stage_misroute),
            "stage_killed": sum(self._stage_killed),
            "promotions": self._promotions,
            "fused": self._fused_frames,
        }

    def drop_causes(self) -> Dict[str, int]:
        """Each drop under one key: ``chain_rx_ring_full`` is the wire
        ports', ``out_no_mbuf`` an emitted packet the chain pool had no
        buffer left for, the rest the chain's own ``DpdkRuntime``'s."""
        own = self.runtime.drop_causes()
        causes = {
            "chain_rx_ring_full": own.pop("rx_ring_full"),
            "chain_misroute": sum(self._stage_misroute),
            "chain_stage_killed": sum(self._stage_killed),
            **own,
        }
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
        return self.runtime.collect()

    # -- the chain main loop -----------------------------------------------------
    def main_loop_burst(self, now_us: int, burst_size: Optional[int] = None) -> int:
        """One chain turn: receive both edges, sweep both ways, transmit.

        The ascending sweep (stage 0 → N-1) lets rightward traffic
        traverse the whole chain within the turn; the descending sweep
        then flushes leftward traffic the same way. Handoffs produced
        against a sweep's direction wait for the opposite sweep — still
        inside this turn — so a quiescent chain is fully drained after
        every ``main_loop_burst`` (the checkpoint fence), every buffer
        back in the pool. Frames whose every stage would hit are fired
        as fused hits first (module docstring) and carried by the sweeps;
        when every arrival fused, nothing else can move, so each group is
        carried straight along its path instead, the same counts without
        the sweeps' cost (``docs/CHAINS.md`` §2b). With the global
        recorder active the turn is staged and traced.
        """
        burst = burst_size if burst_size is not None else self.spec.burst_size
        if burst <= 0:
            raise ValueError("burst size must be positive")
        # One recorder fetch per turn, as in DpdkRuntime.main_loop_burst.
        recorder = obs.recorder()
        self._trace = recorder.trace if recorder.active else None
        fuse = (
            self._fusing
            and self._trace is None
            and not any(self._down)
            and all(now_us >= nf.clock for nf in self._nfs)
            and not any(batch for queues in self._pending for batch in queues.values())
        )
        for port, (index, device) in enumerate(self._entries):
            if not self._ports[port].rx_pending():
                continue
            arrived = self.runtime.rx_burst(port, self.spec.rx_capacity)
            self._pending[index][device] += arrived
            self._stage_rx[index] += len(arrived)
            if self._trace is not None:
                for mbuf in arrived:
                    self._trace(flight.RX, mbuf.timestamp, index, detail=device)
        if fuse and self._fuse(now_us, burst):
            processed = 0
            for index, device in self._entries:
                group = self._waiting[index].pop(device, None)
                while group is not None and index is not None:
                    processed += len(group)
                    index, device = self._pass(index, device, group)
        else:
            last = len(self.stages) - 1
            processed = self._sweep(range(last + 1), now_us, burst)
            processed += self._sweep(range(last, -1, -1), now_us, burst)
        for port, mbufs in enumerate(self._exits):
            if mbufs:
                self._exits[port] = []
                self.runtime.tx_burst(port, mbufs, now_us)
        return processed

    def _sweep(self, order, now_us: int, burst: int) -> int:
        processed = 0
        for i in order:
            queues = self._pending[i]
            waiting = self._waiting[i]  # fused groups: never down
            ready = [(d, batch) for d, batch in queues.items() if batch or d in waiting]
            if not ready:
                continue
            for device, _batch in ready:
                queues[device] = []
            if not self._down[i]:
                processed += self._serve(i, ready, now_us, burst)
                continue
            # A failed stage with no promoted standby blackholes its
            # traffic — the measured disruption scenarios count on it.
            trace = self._trace
            for device, batch in ready:
                self._stage_killed[i] += len(batch)
                for mbuf in batch:
                    if trace is not None:
                        reason = flight.REASON_WORKER_KILL
                        trace(flight.DROP, mbuf.timestamp, i, reason, device)
                    self.runtime.free(mbuf)
        return processed

    def _serve(self, index: int, ready, now_us: int, burst: int) -> int:
        """Run the stage's NF on its own buffers, ``burst`` at a time,
        after carrying any fused group waiting on the same device."""
        nf = self.engines[index]
        runtime = self.runtime
        route = self._route
        trace = self._trace
        processed = 0
        waiting = self._waiting
        for device, batch in ready:
            group = waiting[index].pop(device, None)
            if group is not None:
                processed += len(group)
                target, arrive = self._pass(index, device, group)
                if target is not None:
                    waiting[target][arrive] = group
            processed += len(batch)
            for start in range(0, len(batch), burst):
                chunk = batch[start : start + burst]
                packets = [mbuf.packet for mbuf in chunk]
                for packet in packets:
                    packet.device = device
                results = nf.process_burst(packets, now_us)
                if len(results) != len(chunk):
                    runtime.pool.free_burst(batch[start:])
                    raise unmatched_outputs(nf, len(chunk), len(results))
                for mbuf, outputs in zip(chunk, results):
                    if not outputs:
                        if trace is not None:
                            reason = flight.REASON_NF_DROP
                            trace(flight.DROP, mbuf.timestamp, index, reason, device)
                        runtime.free(mbuf)
                        runtime.nf_dropped += 1
                        continue
                    first = outputs[0]
                    mbuf.packet = first
                    mbuf.timestamp = now_us
                    route(index, first.device, mbuf)
                    for extra in outputs[1:]:  # multicast/flood NFs
                        clone = runtime.pool.alloc(extra, extra.device, now_us)
                        if clone is None:
                            runtime.out_no_mbuf += 1
                        else:
                            route(index, extra.device, clone)
        return processed

    def _route(self, index: int, port: int, mbuf: Mbuf) -> None:
        trace = self._trace
        self._stage_tx[index] += 1
        if trace is not None:
            trace(flight.TX, mbuf.timestamp, index, detail=port)
        hop = self._hops[index].get(port)
        if hop is None:
            self._stage_misroute[index] += 1
            if trace is not None:
                reason = flight.REASON_CHAIN_MISROUTE
                trace(flight.DROP, mbuf.timestamp, index, reason, port)
            self.runtime.free(mbuf)
            return
        target, device = hop
        if target is None:
            mbuf.packet.device = device
            self._exits[device].append(mbuf)
        else:
            self._handoffs += 1
            self._pending[target][device].append(mbuf)
            self._stage_rx[target] += 1
            if trace is not None:
                trace(flight.RX, mbuf.timestamp, target, detail=device)

    # -- fused hits (every stage a fast-path cache) ------------------------------
    def _fuse(self, now: int, burst: int) -> bool:
        """Fire the turn's fusable prefix — port 0's arrivals, then port
        1's, up to the first frame without a live entry — doing each
        frame's stage work but its counts and handoffs (:meth:`_pass`).
        True when that left nothing pending."""
        entries = self._entries
        pending = self._pending
        if self._one_port and all(pending[i][d] for i, d in entries):
            return False
        from_image = Packet.from_image
        scan = True  # the turn's first frame walks, each stage scanning first
        for port, (index, device) in enumerate(entries):
            queue = pending[index][device]
            table = self._fused[port]
            rejuvenates = self._rejuvenates[port]
            taken = 0
            for mbuf in queue:
                packet = mbuf.packet
                image = packet.image
                if image is None:
                    break
                packet.device = device
                key = packet.flow_key()
                if key is None:
                    break
                entry = None if scan else table.get(key)
                if entry is None:
                    entry = self._walk(port, key, now if scan else None)
                    scan = False
                if entry is None:
                    break
                closure, tokens, _keys = entry
                for rejuvenate, token in zip(rejuvenates, tokens):
                    rejuvenate(token, now)
                mbuf.packet = from_image(closure(image), 1 - port)
                taken += 1
            if taken:
                self._fused_frames += taken
                self._waiting[index][device] = queue[:taken]
                del queue[:taken]
                for engine in self.engines:
                    engine.credit_hits(taken, -(-taken // burst))
            if queue:
                return False
        return True

    def _walk(self, port: int, key, now: Optional[int] = None):
        """Build the fused entry for ``key`` arriving on ``port``, or None:
        every stage toward the other port must cache an action emitting
        that way; the next key is this one as the action rewrites it.
        Given ``now`` (a turn's first frame), each stage scans
        (``begin_burst``) before its cache is read."""
        owner = (port, key)
        tokens, keys, closures = [], [], []
        index = self._entries[port][0]
        while index is not None:
            if now is not None:
                self._scans[index](now)
            stage = self.stages[index]
            emit = stage.device_a if port else stage.device_b
            action = self.engines[index].action_for(key)
            if action is None or action.out_device != emit:
                return None
            tokens.append(action.token)
            keys.append((index, key))
            if action.src is not None or action.dst is not None:
                closures.append(action.closure)
            index, device = self._hops[index][emit]
            src = action.src or key[2:4]
            dst = action.dst or key[4:6]
            key = (device, key[1], *src, *dst)
        entry = (_compose(closures), tokens, keys)
        self._fused[port][owner[1]] = entry
        for held_at, stage_key in keys:
            self._owners[held_at].setdefault(stage_key, set()).add(owner)
        return entry

    def _evict(self, index: int, keys) -> None:
        """Stage ``index`` dropped ``keys``: every fused entry holding one
        goes, from the table and every stage's reverse index."""
        owners = self._owners
        for key in keys:
            for owner in owners[index].pop(key, ()):
                for held_at, stage_key in self._fused[owner[0]].pop(owner[1])[2]:
                    held = owners[held_at].get(stage_key)
                    if held is not None:
                        held.discard(owner)
                        if not held:
                            del owners[held_at][stage_key]

    def _pass(self, index: int, device: int, group: List[Mbuf]):
        """A fused group crosses stage ``index``: the counts :meth:`_route`
        adds for its frames. Returns the hop the group takes next; out a
        chain port, it has left."""
        stage = self.stages[index]
        emit = stage.device_b if device == stage.device_a else stage.device_a
        count = len(group)
        self._stage_tx[index] += count
        hop = target, arrive = self._hops[index][emit]
        if target is None:
            self._exits[arrive].extend(group)
            return hop
        self._handoffs += count
        self._stage_rx[target] += count
        return hop

    # -- observability -----------------------------------------------------------
    def register_metrics(self, registry) -> None:
        """Chain-level instruments (pool, ports, handoffs, exits)."""
        self.runtime.register_metrics(registry, {"edge": "chain"})
        registry.counter_fn(
            "chain_handoffs_total",
            lambda: self._handoffs,
            "packets handed from one stage to a neighbor",
        )
        registry.counter_fn(
            "chain_exited_total",
            lambda: self.op_counters()["exited"],
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
        per_stage = (
            ("chain_stage_rx_total", self._stage_rx, "packets handed to this stage"),
            ("chain_stage_tx_total", self._stage_tx, "packets this stage emitted"),
            (
                "chain_stage_misroute_total",
                self._stage_misroute,
                "packets emitted on a device mapping to no neighbor",
            ),
            (
                "chain_stage_killed_total",
                self._stage_killed,
                "packets blackholed while the stage was down",
            ),
        )
        for i, (stage, engine) in enumerate(zip(self.stages, self.engines)):
            labels = {"stage": str(i), "stage_name": stage.name}
            stage_registry = MetricsRegistry()
            for name, counts, help_text in per_stage:
                stage_registry.counter_fn(name, lambda c=counts, i=i: c[i], help_text)
            stage_registry.gauge_fn(
                "chain_stage_flows",
                lambda i=i: 0 if self._down[i] else self.engines[i].flow_count(),
                "per-stage flow-state entries",
            )
            if not self._down[i]:
                engine.register_metrics(stage_registry, {"worker": "0"})
            snapshots.append(with_labels(stage_registry.snapshot(), labels))
        from repro.obs import merge_snapshots

        return merge_snapshots(snapshots)

    # -- control plane -----------------------------------------------------------
    def _stage_frame(self, index: int, now_us: int):
        """Stage ``index``'s frame, refused while the stage is down: the
        NF it holds then is the failed one, not the stage's state."""
        if self._down[index]:
            raise CheckpointError(
                f"stage {index} ({self.stages[index].name}) is down; "
                f"promote a standby before checkpointing it"
            )
        return snapshot(self.engines[index], now_us)

    def checkpoint(self, now_us: int = 0) -> CheckpointSet:
        """One coordinated set: frame ``i`` is stage ``i``'s state.

        The caller owns the fence: checkpoint only between completed
        ``main_loop_burst`` turns, when no handoff is pending. Refused
        while any stage is down.
        """
        frames = tuple(self._stage_frame(i, now_us) for i in range(len(self.stages)))
        return CheckpointSet(taken_at_us=now_us, checkpoints=frames)

    def checkpoint_stage(self, index: int, now_us: int = 0) -> CheckpointSet:
        """A single-stage set (e.g. to keep a warm standby in sync);
        refused while the stage is down."""
        return CheckpointSet(now_us, (self._stage_frame(index, now_us),))

    def restore(self, checkpoint_set: CheckpointSet) -> None:
        """Adopt a chain-wide set, all-or-nothing.

        Every stage's NF is first built holding its frame — running the
        full name/config/state validation — and only when all of them
        pass does any stage adopt its own, so a corrupt or mismatched
        set leaves the running chain untouched. A down stage adopts its
        NF like the others: every stage is up afterwards, on the set's
        state.
        """
        if checkpoint_set.workers != len(self.stages):
            raise CheckpointError(
                f"checkpoint set holds {checkpoint_set.workers} stage(s), "
                f"chain has {len(self.stages)}"
            )
        self.engines[:] = [
            build_nf(stage.nf_factory, stage.config, self.spec.fastpath, frame)
            for stage, frame in zip(self.stages, checkpoint_set.checkpoints)
        ]
        self._down[:] = [False] * len(self.stages)
        self._bind()

    def fail_stage(self, index: int) -> None:
        """Take one stage down (its engine stops serving immediately).

        Until a standby is promoted with :meth:`swap_stage`, traffic
        reaching the stage is blackholed and counted — the measured
        disruption window the scenario suite bounds.
        """
        self._down[index] = True
        self._bind()

    def swap_stage(self, index: int, checkpoint_set: Optional[CheckpointSet] = None):
        """Promote a standby for one stage: fresh engine, optional state.

        Builds a new engine for the stage, holding a single-stage
        checkpoint set's state if one is given (the warm standby; a
        refused frame raises and the slot stays as it was), then swaps
        it in. Returns the new engine.
        """
        if checkpoint_set is not None and checkpoint_set.workers != 1:
            raise CheckpointError(
                f"stage swap takes a single-stage set, got "
                f"{checkpoint_set.workers} frames"
            )
        frame = None if checkpoint_set is None else checkpoint_set.checkpoints[0]
        stage = self.stages[index]
        engine = build_nf(stage.nf_factory, stage.config, self.spec.fastpath, frame)
        self.engines[index] = engine
        self._down[index] = False
        self._promotions += 1
        self._bind()
        return engine

    def stop(self) -> None:
        """Nothing to tear down — every stage is an NF in this process."""


def _compose(closures):
    """A fused path's non-identity closures as one image -> image call."""
    if len(closures) == 1:
        return closures[0]
    return lambda image: reduce(lambda out, closure: closure(out), closures, image)


def launch_chain(spec: ChainSpec) -> ChainRuntime:
    """Stand up the chain a spec describes (the one construction path)."""
    return ChainRuntime(spec)
