"""Header rewriting with incremental checksum patching.

The translation itself: substituting the source (outbound) and/or
destination (inbound) endpoint of a packet and patching the IPv4 header
checksum and the TCP/UDP checksum incrementally per RFC 1624 — the same
technique a production NAT data path uses, and equal to a full recompute
up to the one's-complement double zero (the test-suite cross-checks the
two).

RFC 768's "no checksum" sentinel (a UDP checksum of 0) is read once, off
the packet as it arrives: a disabled checksum stays 0, and an enabled one
takes every patch, even where an intermediate sum passes through 0x0000,
and leaves as 0xFFFF where the result is 0x0000.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.packets.checksum import (
    checksum_update_u16,
    checksum_update_u32,
    udp_checksum_on_wire,
)
from repro.packets.headers import Packet, UdpHeader

Endpoint = Tuple[int, int]


def rewrite(
    packet: Packet, src: Optional[Endpoint] = None, dst: Optional[Endpoint] = None
) -> None:
    """Rewrite the src and/or dst ``(ip, port)`` in place, patching both
    checksums. An endpoint left None is not touched."""
    ipv4, l4 = packet.ipv4, packet.l4
    if ipv4 is None or l4 is None:
        raise ValueError("cannot rewrite a packet without IPv4 and L4 headers")
    ip_sum, l4_sum = ipv4.checksum, l4.checksum
    if src is not None:
        ip_sum = checksum_update_u32(ip_sum, ipv4.src_ip, src[0])
        l4_sum = checksum_update_u32(l4_sum, ipv4.src_ip, src[0])
        l4_sum = checksum_update_u16(l4_sum, l4.src_port, src[1])
        ipv4.src_ip, l4.src_port = src
    if dst is not None:
        ip_sum = checksum_update_u32(ip_sum, ipv4.dst_ip, dst[0])
        l4_sum = checksum_update_u32(l4_sum, ipv4.dst_ip, dst[0])
        l4_sum = checksum_update_u16(l4_sum, l4.dst_port, dst[1])
        ipv4.dst_ip, l4.dst_port = dst
    ipv4.checksum = ip_sum
    if not isinstance(l4, UdpHeader):
        l4.checksum = l4_sum
    elif l4.checksum != 0:
        l4.checksum = udp_checksum_on_wire(l4_sum)
