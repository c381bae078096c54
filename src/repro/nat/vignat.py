"""VigNat: the verified NAT — the paper's primary contribution.

The implementation follows the paper's architecture exactly: *all*
mutable state lives in libVig structures (a :class:`DoubleMap` flow table
plus a :class:`DoubleChain` allocator/ager), while the packet-processing
decisions live in the shared stateless function
:func:`repro.nat.core_logic.nat_loop_iteration` — the very same function
the Vigor toolchain explores symbolically (:data:`repro.verif.proofs.PROOFS`).
This class merely binds that function to the concrete library and to
real packets.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.libvig.double_chain import DoubleChain
from repro.libvig.double_map import DoubleMap
from repro.libvig.expirator import expire_items
from repro.libvig.port_allocator import PortAllocator
from repro.nat.base import NetworkFunction
from repro.nat.config import NatConfig
from repro.nat.core_logic import nat_loop_iteration
from repro.nat.fastpath import (
    apply_endpoint_action,
    expiry_threshold,
    warm_actions,
)
from repro.nat.flow import Flow, FlowId, flow_id_of_packet, microflow_keys
from repro.nat.rewrite import rewrite_destination, rewrite_source
from repro.packets.headers import Packet


class _ConcretePacketView:
    """Adapter exposing a concrete packet's fields to the stateless code."""

    __slots__ = ("packet",)

    def __init__(self, packet: Packet) -> None:
        self.packet = packet

    @property
    def ethertype(self) -> int:
        return self.packet.eth.ethertype

    @property
    def protocol(self) -> int:
        # A non-IPv4 packet never reaches the protocol check (the
        # stateless code tests ethertype first), but return a harmless
        # value for robustness.
        return self.packet.ipv4.protocol if self.packet.ipv4 is not None else 0

    @property
    def device(self) -> int:
        return self.packet.device

    @property
    def src_ip(self) -> int:
        assert self.packet.ipv4 is not None
        return self.packet.ipv4.src_ip

    @property
    def dst_ip(self) -> int:
        assert self.packet.ipv4 is not None
        return self.packet.ipv4.dst_ip

    @property
    def src_port(self) -> int:
        return self.packet.src_port

    @property
    def dst_port(self) -> int:
        return self.packet.dst_port

    def flow_id(self) -> FlowId:
        return flow_id_of_packet(self.packet)


class _ConcreteEnv:
    """Binds the stateless logic to libVig and real packet I/O.

    One env serves a whole burst: :meth:`rebind` points it at the next
    packet, and the expiry scan runs only on the first loop iteration —
    the stateless code still *requests* expiry every iteration (its
    verified structure is untouched), but within one burst all packets
    share one timestamp, so rescanning would find nothing to expire.
    """

    def __init__(self, nat: "VigNat", packet: Packet, now: int) -> None:
        self._nat = nat
        self._packet = packet
        self._now = now
        self._expiry_done = False
        self.outputs: List[Packet] = []

    def rebind(self, packet: Packet) -> None:
        """Point the env at the next packet of the burst."""
        self._packet = packet
        self.outputs = []

    def current_time(self) -> int:
        return self._now

    def expire_flows(self, min_time: int) -> None:
        if self._expiry_done:
            self._nat._expiry_scans_amortized += 1
            return
        self._expiry_done = True
        expired = expire_items(
            self._nat._chain,
            self._nat._flow_table,
            min_time,
            on_expire=self._nat._on_expire(min_time),
        )
        self._nat._expired_total += expired

    def receive(self) -> Optional[_ConcretePacketView]:
        return _ConcretePacketView(self._packet)

    def flow_table_get_internal(self, packet: _ConcretePacketView) -> Optional[int]:
        return self._nat._flow_table.get_by_a(packet.flow_id())

    def flow_table_get_external(self, packet: _ConcretePacketView) -> Optional[int]:
        return self._nat._flow_table.get_by_b(packet.flow_id())

    def flow_table_create(
        self, packet: _ConcretePacketView, now: int
    ) -> Optional[int]:
        index = self._nat._chain.allocate_new_index(now)
        if index is None:
            return None
        flow = Flow(
            internal_id=packet.flow_id(),
            external_port=self._nat.config.start_port + index,
        )
        self._nat._flow_table.put(index, flow)
        sink = self._nat._delta_sink
        if sink is not None:
            sink(("create", index, flow, now))
        return index

    def flow_table_rejuvenate(self, index: int, now: int) -> None:
        self._nat._chain.rejuvenate_index(index, now)
        sink = self._nat._delta_sink
        if sink is not None:
            sink(("touch", index, None, now))

    def flow_external_port(self, index: int) -> int:
        return self._nat._flow_table.get_value(index).external_port

    def flow_internal_endpoint(self, index: int) -> Tuple[int, int]:
        flow = self._nat._flow_table.get_value(index)
        return flow.internal_id.src_ip, flow.internal_id.src_port

    def emit(
        self,
        packet: _ConcretePacketView,
        device: int,
        src_ip: int,
        src_port: int,
        dst_ip: int,
        dst_port: int,
    ) -> None:
        out = packet.packet.clone()
        if (src_ip, src_port) != (packet.src_ip, packet.src_port):
            rewrite_source(out, src_ip, src_port)
        if (dst_ip, dst_port) != (packet.dst_ip, packet.dst_port):
            rewrite_destination(out, dst_ip, dst_port)
        out.device = device
        self.outputs.append(out)
        self._nat._forwarded_total += 1

    def drop(self, packet: _ConcretePacketView) -> None:
        self._nat._dropped_total += 1


class _VigNatFastPathHooks:
    """Microflow fast-path hooks over VigNat's libVig state.

    The fast path must keep the flow table's *observable* behavior
    identical to an all-slow-path run: the per-burst expiry scan still
    happens (here, once per burst — exactly what ``_ConcreteEnv``
    amortizes), and every hit rejuvenates its flow in the double chain,
    or sustained fast-path traffic would let live flows expire. Both
    expiry scans report each dying flow to the cache through the one
    routine (``VigNat._on_expire``) before its slot is released.
    """

    __slots__ = ("_nat",)
    supports_raw = True

    def __init__(self, nat: "VigNat") -> None:
        self._nat = nat

    def on_flow_freed(self, observer) -> None:
        nat = self._nat

        # Built once, not per burst: expiry hands out indices, the
        # cache wants the dying flow's keys.
        def flow_freed(index: int) -> None:
            observer(microflow_keys(nat.config, nat._flow_table.get_value(index)))

        nat._flow_freed = flow_freed

    def begin_burst(self, now: int) -> int:
        nat = self._nat
        now = nat._clamp_now(now)
        min_time = expiry_threshold(now, nat.config.expiration_time)
        expired = expire_items(
            nat._chain,
            nat._flow_table,
            min_time,
            on_expire=nat._on_expire(min_time),
        )
        nat._expired_total += expired
        return now

    def learn_token(self, packet: Packet) -> Optional[int]:
        nat = self._nat
        flow_id = flow_id_of_packet(packet)
        if packet.device == nat.config.internal_device:
            return nat._flow_table.get_by_a(flow_id)
        if packet.device == nat.config.external_device:
            return nat._flow_table.get_by_b(flow_id)
        return None

    def rejuvenate(self, token: int, now: int) -> None:
        nat = self._nat
        nat._chain.rejuvenate_index(token, now)
        sink = nat._delta_sink
        if sink is not None:
            sink(("touch", token, None, now))

    @staticmethod
    def apply(packet: Packet, action) -> Packet:
        return apply_endpoint_action(packet, action)

    def warm_entries(self):
        """(flow key, action) pairs for every live flow, both directions.

        Feeds :meth:`~repro.nat.fastpath.FastPathNat.warm` at standby
        promotion (:func:`~repro.nat.fastpath.warm_actions` per flow;
        the token is the live flow index). Flows are walked
        newest-first, so if the cache's capacity cap truncates warming,
        the entries sacrificed belong to the flows closest to expiry.
        """
        nat = self._nat
        for index, _touched in reversed(list(nat._chain.cells())):
            yield from warm_actions(
                nat.config, nat._flow_table.get_value(index), index
            )


class VigNat(NetworkFunction):
    """The verified NAT over libVig state (Fig. 6 semantics)."""

    name = "verified-nat"

    def __init__(self, config: NatConfig | None = None) -> None:
        self.config = config if config is not None else NatConfig()
        ext_ip = self.config.external_ip
        self._flow_table = DoubleMap(
            capacity=self.config.max_flows,
            key_a_of=lambda flow: flow.internal_id,
            key_b_of=lambda flow: flow.external_id(ext_ip),
        )
        self._chain = DoubleChain(self.config.max_flows)
        self._expired_total = 0
        self._dropped_total = 0
        self._forwarded_total = 0
        self._expiry_scans_amortized = 0
        self._clock_clamped = 0
        self._last_now = 0
        #: Optional per-flow delta observer (see base.delta_sink); None
        #: keeps the data path free of replication work.
        self._delta_sink = None
        #: The microflow cache's per-index flow-freed observer (set
        #: through ``fastpath_hooks().on_flow_freed``); None when unwrapped.
        self._flow_freed = None

    # -- introspection ----------------------------------------------------
    def flow_count(self) -> int:
        """Current number of live translation entries."""
        return self._flow_table.size()

    def has_flow(self, internal_id: FlowId) -> bool:
        """True when a translation exists for this internal 5-tuple."""
        return self._flow_table.get_by_a(internal_id) is not None

    def external_port_of(self, internal_id: FlowId) -> int | None:
        """External port allocated to this internal flow, if any."""
        index = self._flow_table.get_by_a(internal_id)
        if index is None:
            return None
        return self._flow_table.get_value(index).external_port

    def op_counters(self) -> Dict[str, int]:
        counters = {
            "map_probes": self._flow_table.probe_count,
            "expired": self._expired_total,
            "dropped": self._dropped_total,
            "forwarded": self._forwarded_total,
            "expiry_scans_amortized": self._expiry_scans_amortized,
            "clock_clamped": self._clock_clamped,
        }
        counters.update(self.burst_counters())
        return counters

    def _clamp_now(self, now: int) -> int:
        """Monotonic clock at the concrete-env boundary.

        libVig's double chain keeps timestamps non-decreasing and raises
        :class:`~repro.libvig.double_chain.TimeRegression` on violation —
        correct for the library, but a backwards hardware timestamp must
        not crash the NAT's data path (P2 is a crash-freedom proof). A
        regressing ``now`` is clamped to the newest time already seen,
        the same defense ``rte_get_timer_cycles`` wrappers apply.
        """
        if now < self._last_now:
            self._clock_clamped += 1
            return self._last_now
        self._last_now = now
        return now

    def fastpath_hooks(self) -> _VigNatFastPathHooks:
        """Opt into the microflow fast path (:mod:`repro.nat.fastpath`)."""
        return _VigNatFastPathHooks(self)

    # -- checkpoint/restore ------------------------------------------------
    def delta_sink(self, sink) -> None:
        self._delta_sink = sink

    def _on_expire(self, min_time: int):
        """Per-index observer of a dying flow, or None when nobody listens.

        The one place VigNat reports a freed flow: both expiry scans
        (the slow path's and the fast path's ``begin_burst``) pass it to
        ``expire_items``, which calls it *before* the map entry is
        erased — the flow record is still readable and nothing can have
        reallocated its index or port yet. The microflow cache drops
        the flow's two actions here; the delta log records the free.
        """
        sink = self._delta_sink
        flow_freed = self._flow_freed
        if sink is None:
            return flow_freed  # the cache alone, or nobody: no per-burst work

        def on_expire(index: int) -> None:
            if flow_freed is not None:
                flow_freed(index)
            sink(("free", index, None, min_time))

        return on_expire

    def checkpoint_state(self) -> Dict:
        """Flow state in chain age order, plus the clock and counters.

        The chain's cell list *is* the abstract state the refinement
        contracts reason about; serializing in that order lets restore
        rebuild an identical chain (same LRU order, same free list).
        """
        flows = []
        for index, touched in self._chain.cells():
            flow = self._flow_table.get_value(index)
            fid = flow.internal_id
            flows.append(
                [
                    index,
                    touched,
                    [fid.src_ip, fid.src_port, fid.dst_ip, fid.dst_port, fid.protocol],
                    flow.external_port,
                ]
            )
        return {
            "flows": flows,
            # Free-index order is observable through the ports future
            # allocations pick; carrying it makes a restored NAT replay
            # byte-identically. Standby-synthesized checkpoints omit it.
            "free_list": list(self._chain.free_list()),
            "last_now_us": self._last_now,
            "counters": {
                "expired": self._expired_total,
                "dropped": self._dropped_total,
                "forwarded": self._forwarded_total,
                "expiry_scans_amortized": self._expiry_scans_amortized,
                "clock_clamped": self._clock_clamped,
                "bursts": self._bursts_total,
                "burst_packets": self._burst_packets_total,
            },
        }

    def restore_state(self, state: Dict) -> None:
        """Rebuild libVig state from a checkpoint payload, validated first.

        All checks run before any structure is mutated:

        - the VigNat invariant ``external_port == start_port + index``
          must hold for every flow;
        - the external ports must be distinct and inside this config's
          shard range — cross-checked through a :class:`PortAllocator`
          over ``config.port_range()``, which raises
          :class:`~repro.libvig.port_allocator.PortRestoreError` on a
          double allocation or an out-of-shard port;
        - the internal 5-tuples must be distinct (the double map's key-A
          uniqueness);
        - the chain cells must be age-ordered with in-range indices
          (enforced by :meth:`DoubleChain.restore_cells`).

        The restored clock (`_last_now`) is the checkpoint's, floored at
        the newest flow timestamp — so a restore at an earlier wall time
        T' < T *clamps* forward instead of mass-expiring (thresholds are
        computed from the clamped clock) or tripping TimeRegression.
        """
        if self._flow_table.size() or self._chain.size():
            raise ValueError("restore_state requires a freshly constructed NF")
        flows = state.get("flows", [])
        cells = []
        entries = []
        internal_ids = set()
        for index, touched, fid_fields, external_port in flows:
            if external_port != self.config.start_port + index:
                raise ValueError(
                    f"flow at index {index} claims external port "
                    f"{external_port}; VigNat requires start_port + index "
                    f"= {self.config.start_port + index}"
                )
            internal_id = FlowId(*fid_fields)
            if internal_id in internal_ids:
                raise ValueError(
                    f"internal 5-tuple {internal_id} appears twice in checkpoint"
                )
            internal_ids.add(internal_id)
            cells.append((index, touched))
            entries.append(
                (index, Flow(internal_id=internal_id, external_port=external_port))
            )
        # Ownership cross-check: every external port must be free,
        # distinct and inside this shard's range.
        ports = PortAllocator(self.config.start_port, self.config.max_flows)
        ports.restore_ports([flow.external_port for _, flow in entries])
        self._chain.restore_cells(cells, state.get("free_list"))
        for index, flow in entries:
            self._flow_table.put(index, flow)
        newest = cells[-1][1] if cells else 0
        self._last_now = max(int(state.get("last_now_us", 0)), newest)
        counters = state.get("counters", {})
        self._expired_total = int(counters.get("expired", 0))
        self._dropped_total = int(counters.get("dropped", 0))
        self._forwarded_total = int(counters.get("forwarded", 0))
        self._expiry_scans_amortized = int(counters.get("expiry_scans_amortized", 0))
        self._clock_clamped = int(counters.get("clock_clamped", 0))
        self._bursts_total = int(counters.get("bursts", 0))
        self._burst_packets_total = int(counters.get("burst_packets", 0))

    def register_metrics(self, registry, labels=None) -> None:
        """Operation counters plus the flow table's occupancy/expiry state."""
        super().register_metrics(registry, labels)
        nf_labels = dict(labels or {})
        nf_labels["nf"] = self.name
        registry.gauge_fn(
            "flow_table_occupancy",
            self.flow_count,
            "live translation entries",
            nf_labels,
        )
        registry.gauge_fn(
            "flow_table_capacity",
            lambda: self.config.max_flows,
            "maximum translation entries",
            nf_labels,
        )
        registry.counter_fn(
            "flows_expired_total",
            lambda: self._expired_total,
            "flows removed by the expiry scan",
            nf_labels,
        )

    # -- the packet path: the shared stateless logic over libVig ------------
    def process(self, packet: Packet, now: int) -> List[Packet]:
        """One loop iteration of Fig. 6: expire, update, forward."""
        now = self._clamp_now(now)
        env = _ConcreteEnv(self, packet, now)
        nat_loop_iteration(env, self.config)
        return env.outputs

    def process_burst(
        self, packets: Sequence[Packet], now: int
    ) -> List[List[Packet]]:
        """One RX burst through Fig. 6, expiry scanned once for all.

        All packets of a burst share one receive timestamp (one
        ``rte_rdtsc`` read per main-loop turn, as VigNAT's C loop does),
        so the flow-expiry scan on the first iteration already covers
        the rest; the shared env suppresses the redundant rescans and
        counts them as ``expiry_scans_amortized``.
        """
        now = self._clamp_now(now)
        self._note_burst(len(packets))
        if not packets:
            return []
        env = _ConcreteEnv(self, packets[0], now)
        results: List[List[Packet]] = []
        for packet in packets:
            env.rebind(packet)
            nat_loop_iteration(env, self.config)
            results.append(env.outputs)
        return results
