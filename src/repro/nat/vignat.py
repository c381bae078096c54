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

from typing import Dict, Optional, Tuple

from repro.libvig.double_chain import DoubleChain
from repro.libvig.double_map import DoubleMap
from repro.libvig.expirator import expire_items
from repro.libvig.port_allocator import PortAllocator
from repro.nat.concrete import ConcreteEnv, LibvigNf, PacketView
from repro.nat.config import NatConfig
from repro.nat.core_logic import nat_loop_iteration
from repro.nat.flow import Flow, FlowId, flow_id_of_packet, microflow_keys
from repro.packets.headers import Packet


class _ConcreteEnv(ConcreteEnv):
    """``NatEnv`` over VigNat's libVig flow table."""

    __slots__ = ()
    expire_flows = ConcreteEnv.expire

    def flow_table_get_internal(self, packet: PacketView) -> Optional[int]:
        self.index = index = self._nf._flow_table.get_by_a(packet.flow_id())
        return index

    def flow_table_get_external(self, packet: PacketView) -> Optional[int]:
        self.index = index = self._nf._flow_table.get_by_b(packet.flow_id())
        return index

    def flow_table_create(self, packet: PacketView, now: int) -> Optional[int]:
        nat = self._nf
        index = nat._chain.allocate_new_index(now)
        if index is None:
            return None
        flow = Flow(
            internal_id=packet.flow_id(),
            external_port=nat.config.start_port + index,
        )
        nat._flow_table.put(index, flow)
        sink = nat._delta_sink
        if sink is not None:
            sink(("create", index, flow, now))
        self.index = index
        return index

    def flow_table_rejuvenate(self, index: int, now: int) -> None:
        self._nf.rejuvenate(index, now)

    def flow_external_port(self, index: int) -> int:
        return self._nf._flow_table.get_value(index).external_port

    def flow_internal_endpoint(self, index: int) -> Tuple[int, int]:
        flow = self._nf._flow_table.get_value(index)
        return flow.internal_id.src_ip, flow.internal_id.src_port


class VigNat(LibvigNf):
    """The verified NAT over libVig state (Fig. 6 semantics)."""

    name = "verified-nat"
    LOOP = staticmethod(nat_loop_iteration)
    ENV = _ConcreteEnv
    ROWS = "flows"
    LIFETIME = "expiration_time"

    # benchmarks/e2e/ledger.py wraps vars(VigNat)["process"] and
    # ["process_burst"]: both names must live in this class's own __dict__.
    process = LibvigNf.process
    process_burst = LibvigNf.process_burst

    def __init__(self, config: NatConfig | None = None) -> None:
        super().__init__(config if config is not None else NatConfig())
        ext_ip = self.config.external_ip
        self._flow_table = DoubleMap(
            capacity=self.config.max_flows,
            key_a_of=lambda flow: flow.internal_id,
            key_b_of=lambda flow: flow.external_id(ext_ip),
        )
        self._chain = DoubleChain(self.config.max_flows)
        #: Optional per-flow delta observer (see base.delta_sink); None
        #: keeps the data path free of replication work.
        self._delta_sink = None

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
        return {"map_probes": self._flow_table.probe_count, **self._declared_counters()}

    def delta_sink(self, sink) -> None:
        self._delta_sink = sink

    # -- the fast-path provider: what LibvigNf's half leaves to the NAT -----
    def fastpath_hooks(self) -> "VigNat":
        """Opt into the microflow fast path (:mod:`repro.nat.fastpath`)."""
        return self

    def _lookup(self, packet: Packet) -> Optional[int]:
        flow_id = flow_id_of_packet(packet)
        if packet.device == self.config.internal_device:
            return self._flow_table.get_by_a(flow_id)
        if packet.device == self.config.external_device:
            return self._flow_table.get_by_b(flow_id)
        return None

    def _freed_keys(self, index: int):
        return microflow_keys(self.config, self._flow_table.get_value(index))

    def rejuvenate(self, token: int, now: int) -> None:
        """The one place a flow is touched: slow path and fast path alike."""
        self._chain.rejuvenate_index(token, now)
        sink = self._delta_sink
        if sink is not None:
            sink(("touch", token, None, now))

    def _expire(self, min_time: int) -> None:
        """The one expiry scan: the slow path's and the fast path's."""
        self._expired_total += expire_items(
            self._chain,
            self._flow_table,
            min_time,
            on_expire=self._on_expire(min_time),
        )

    def _on_expire(self, min_time: int):
        """Per-index observer of a dying flow, or None when nobody listens.

        The one place VigNat reports a freed flow: ``expire_items``
        calls it *before* the map entry is erased — the flow record is
        still readable and nothing can have reallocated its index or
        port yet. The microflow cache drops the flow's two actions
        here; the delta log records the free.
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

    # -- checkpoint/restore ------------------------------------------------
    def _row(self, index: int):
        flow = self._flow_table.get_value(index)
        fid = flow.internal_id
        return (
            [fid.src_ip, fid.src_port, fid.dst_ip, fid.dst_port, fid.protocol],
            flow.external_port,
        )

    def checkpoint_state(self) -> Dict:
        """The flow rows, plus the clock the clamp had reached."""
        state = super().checkpoint_state()
        state["last_now_us"] = self._last_now
        return state

    def _parse_row(self, index: int, rest):
        """The VigNat invariant ``external_port == start_port + index``
        must hold for every flow, and the internal 5-tuples be distinct
        (the double map's key-A uniqueness)."""
        fid_fields, external_port = rest
        if external_port != self.config.start_port + index:
            raise ValueError(
                f"flow at index {index} claims external port "
                f"{external_port}; VigNat requires start_port + index "
                f"= {self.config.start_port + index}"
            )
        internal_id = FlowId(*fid_fields)
        return internal_id, Flow(internal_id=internal_id, external_port=external_port)

    def _parse_rows(self, rows):
        """Ownership cross-check on top of the per-row ones: every
        external port must be free, distinct and inside this config's
        shard range — a :class:`PortAllocator` over ``config.port_range()``
        raises :class:`~repro.libvig.port_allocator.PortRestoreError`
        on a double allocation or an out-of-shard port."""
        entries = super()._parse_rows(rows)
        ports = PortAllocator(self.config.start_port, self.config.max_flows)
        ports.restore_ports([flow.external_port for _, flow in entries])
        return entries

    def _adopt(self, index: int, flow: Flow) -> None:
        self._flow_table.put(index, flow)

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
