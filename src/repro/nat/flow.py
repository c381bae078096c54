"""Flow identifiers and flow-table entries.

A *flow ID* is the classic 5-tuple as seen on the wire at one interface.
A *flow* is a NAT translation entry: it remembers the internal 5-tuple
and the external port the NAT allocated, and can derive the 5-tuple the
same traffic bears on the external side. The flow's two IDs are the two
keys of the :class:`~repro.libvig.double_map.DoubleMap` flow table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.packets.headers import FlowKey, Packet


@dataclass(frozen=True, slots=True)
class FlowId:
    """The 5-tuple identifying a unidirectional flow at an interface."""

    src_ip: int
    src_port: int
    dst_ip: int
    dst_port: int
    protocol: int

    def reversed(self) -> "FlowId":
        """The 5-tuple of the reply direction at the same interface."""
        return FlowId(
            src_ip=self.dst_ip,
            src_port=self.dst_port,
            dst_ip=self.src_ip,
            dst_port=self.src_port,
            protocol=self.protocol,
        )


def flow_id_of_packet(packet: Packet) -> FlowId:
    """Extract the flow ID from a TCP/UDP IPv4 packet (the paper's F(P))."""
    if packet.ipv4 is None or packet.l4 is None:
        raise ValueError("packet has no flow ID (not TCP/UDP over IPv4)")
    return FlowId(
        src_ip=packet.ipv4.src_ip,
        src_port=packet.l4.src_port,
        dst_ip=packet.ipv4.dst_ip,
        dst_port=packet.l4.dst_port,
        protocol=packet.ipv4.protocol,
    )


def flow_key_of(device: int, flow_id: FlowId) -> FlowKey:
    """The microflow-cache key a packet of ``flow_id`` bears on ``device``
    (what :meth:`Packet.flow_key` answers for it)."""
    return (
        device,
        flow_id.protocol,
        flow_id.src_ip,
        flow_id.src_port,
        flow_id.dst_ip,
        flow_id.dst_port,
    )


@dataclass(frozen=True, slots=True)
class Flow:
    """A NAT translation entry.

    ``internal_id`` is the flow as first seen arriving on the internal
    interface; ``external_port`` is the source port the NAT substitutes
    on the external side.
    """

    internal_id: FlowId
    external_port: int

    def external_id(self, external_ip: int) -> FlowId:
        """The flow ID that *reply* packets bear on the external interface.

        A reply arrives with the remote endpoint as source and the NAT's
        external (ip, port) as destination.
        """
        return FlowId(
            src_ip=self.internal_id.dst_ip,
            src_port=self.internal_id.dst_port,
            dst_ip=external_ip,
            dst_port=self.external_port,
            protocol=self.internal_id.protocol,
        )


def microflow_keys(config, flow) -> Tuple[FlowKey, FlowKey]:
    """The two microflow-cache keys a translation entry's packets bear.

    Forward: the internal 5-tuple on ``config``'s internal device.
    Reply: remote endpoint to the NAT's external (ip, port) on the
    external device. ``flow`` is anything with ``internal_id`` and
    ``external_port`` (:class:`Flow`, the unverified NAT's entry). A
    stateful NAT names a flow to the fast path by these two keys — when
    it pre-installs the flow's actions and when it frees the flow — so
    the keys an action dies under are the keys it was cached under.
    """
    fid = flow.internal_id
    return (
        flow_key_of(config.internal_device, fid),
        (
            config.external_device,
            fid.protocol,
            fid.dst_ip,
            fid.dst_port,
            config.external_ip,
            flow.external_port,
        ),
    )
