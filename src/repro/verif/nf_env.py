"""Symbolic environments: the NF bodies exhaustive symbolic execution runs.

:func:`symbolic_body` binds the *same* stateless function a deployed NF
runs (e.g. :func:`repro.nat.core_logic.nat_loop_iteration`) to an
environment over symbolic models — the Step 2(a) substitution of §3.
:class:`SymbolicFlowTableEnv` is that environment for the two NFs that
keep a flow table, the NAT and the firewall. The discard-protocol body
transcribes Fig. 1 against a chosen ring model.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple, Type

from repro.nat.config import NatConfig
from repro.verif.context import ExplorationContext
from repro.verif.engine import NfBody
from repro.verif.models.base import record_send
from repro.verif.models.nat import NatModelState, SymbolicPacket
from repro.verif.models.ring import _RingModelBase
from repro.verif.symbols import SymInt


def symbolic_body(
    env: Callable[[ExplorationContext, Any], Any],
    loop: Callable[[Any, Any], None],
    config: Any,
) -> NfBody:
    """The body the engine explores: ``loop``, the function the deployed
    NF runs, over a fresh ``env(ctx, config)`` per path."""

    def body(ctx: ExplorationContext) -> None:
        loop(env(ctx, config), config)

    return body


class SymbolicFlowTableEnv:
    """``NatEnv`` and ``FirewallEnv`` over symbolic models instead of libVig.

    Both NFs keep the same libVig flow table under the same contracts —
    the amortization §9 promises from a shared verified library — so one
    environment serves both; the firewall's ``session_*`` vocabulary is
    the NAT's ``flow_table_*`` under another name, and its sessions
    carry no external port.
    """

    def __init__(self, ctx: ExplorationContext, config: NatConfig) -> None:
        self.ctx = ctx
        self.config = config
        self.models = NatModelState(
            ctx, capacity=config.max_flows, start_port=config.start_port
        )

    def current_time(self) -> SymInt:
        return self.models.current_time()

    def expire_flows(self, min_time) -> None:
        self.models.expire_items(min_time)

    def receive(self) -> Optional[SymbolicPacket]:
        return self.models.receive()

    @staticmethod
    def _key_of(packet: SymbolicPacket) -> dict:
        return {
            "src_ip": packet.src_ip,
            "src_port": packet.src_port,
            "dst_ip": packet.dst_ip,
            "dst_port": packet.dst_port,
            "protocol": packet.protocol,
        }

    def flow_table_get_internal(self, packet: SymbolicPacket) -> Optional[SymInt]:
        return self.models.dmap_get_by_first_key(self._key_of(packet))

    def flow_table_get_external(self, packet: SymbolicPacket) -> Optional[SymInt]:
        return self.models.dmap_get_by_second_key(self._key_of(packet))

    def _create(self, packet: SymbolicPacket, now, with_port: bool) -> Optional[SymInt]:
        index = self.models.dchain_allocate_new_index(now)
        if index is None:
            return None
        external_port = index + self.config.start_port if with_port else None
        self.models.dmap_put(index, self._key_of(packet), external_port, now)
        return index

    def flow_table_create(self, packet: SymbolicPacket, now) -> Optional[SymInt]:
        return self._create(packet, now, with_port=True)

    def flow_table_rejuvenate(self, index: SymInt, now) -> None:
        self.models.dchain_rejuvenate_index(index, now)

    def flow_external_port(self, index: SymInt) -> SymInt:
        _ip, _port, ext_port = self.models.dmap_get_value(index)
        return ext_port

    def flow_internal_endpoint(self, index: SymInt) -> Tuple[SymInt, SymInt]:
        int_ip, int_port, _ext = self.models.dmap_get_value(index)
        return int_ip, int_port

    def emit(self, packet, device, src_ip, src_port, dst_ip, dst_port) -> None:
        record_send(
            self.ctx, device, src_ip, src_port, dst_ip, dst_port, packet.protocol
        )

    def drop(self, packet) -> None:
        self.models.drop()

    # -- the firewall's names for the same table ---------------------------
    expire_sessions = expire_flows
    session_get_internal = flow_table_get_internal
    session_get_external = flow_table_get_external
    session_rejuvenate = flow_table_rejuvenate

    def session_create(self, packet: SymbolicPacket, now) -> Optional[SymInt]:
        return self._create(packet, now, with_port=False)

    def forward(self, packet: SymbolicPacket, device) -> None:
        self.emit(
            packet,
            device,
            packet.src_ip,
            packet.src_port,
            packet.dst_ip,
            packet.dst_port,
        )


def discard_symbolic_body(
    ring_model: Type[_RingModelBase],
    capacity: int = 512,
) -> NfBody:
    """The Fig. 1 discard-protocol loop body over a chosen ring model."""

    def body(ctx: ExplorationContext) -> None:
        ring = ring_model(ctx, capacity)
        if not ring.ring_full():
            packet = ring.receive()
            if packet is not None:
                if packet.dst_port != 9:
                    ring.ring_push_back(packet)
        if not ring.ring_empty():
            if ring.can_send():
                packet = ring.ring_pop_front()
                record_send(ctx, device=1, dst_port=packet.dst_port)

    return body
