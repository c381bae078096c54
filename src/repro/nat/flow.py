"""Flow identifiers and flow-table entries.

A *flow ID* is the classic 5-tuple as seen on the wire at one interface.
A *flow* is a NAT translation entry: it remembers the internal 5-tuple
and the external port the NAT allocated, and can derive the 5-tuple the
same traffic bears on the external side. The flow's two IDs are the two
keys of the :class:`~repro.libvig.double_map.DoubleMap` flow table.

Both are named tuples: immutable, and hashed and compared as the tuple
of their fields, in C. A new flow builds about three IDs and one entry
and hashes them five times, so these costs are most of a slow-path
miss's table work. The hash is the one a frozen dataclass of the same
fields computes (``hash((field, ...))``), so every libVig map puts
every key in the same slot, whatever class carries the fields
(``tests/nat/test_flow.py`` holds both to their field tuples).
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

from repro.packets.headers import FlowKey, Packet


class FlowId(NamedTuple):
    """The 5-tuple identifying a unidirectional flow at an interface."""

    src_ip: int
    src_port: int
    dst_ip: int
    dst_port: int
    protocol: int

    def reversed(self) -> "FlowId":
        """The 5-tuple of the reply direction at the same interface."""
        return FlowId(
            self.dst_ip, self.dst_port, self.src_ip, self.src_port, self.protocol
        )


def flow_id_of_packet(packet: Packet) -> FlowId:
    """Extract the flow ID from a TCP/UDP IPv4 packet (the paper's F(P))."""
    ipv4, l4 = packet.ipv4, packet.l4
    if ipv4 is None or l4 is None:
        raise ValueError("packet has no flow ID (not TCP/UDP over IPv4)")
    return FlowId(ipv4.src_ip, l4.src_port, ipv4.dst_ip, l4.dst_port, ipv4.protocol)


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


class Flow(NamedTuple):
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
        fid = self.internal_id
        return FlowId(
            fid.dst_ip, fid.dst_port, external_ip, self.external_port, fid.protocol
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
