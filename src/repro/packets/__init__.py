"""Packet substrate: header models, checksums, and packet construction.

This package provides the byte-accurate packet model used throughout the
reproduction: Ethernet, IPv4, TCP and UDP headers with parse/serialize
round-tripping, Internet checksum computation (including the incremental
update from RFC 1624 that NAT header rewriting relies on), and convenience
builders for test and benchmark traffic.
"""

from repro.packets.addresses import (
    ip_to_int,
    ip_to_str,
    mac_to_bytes,
    mac_to_str,
)
from repro.packets.checksum import (
    checksum_apply_delta,
    checksum_delta_u16,
    checksum_delta_u32,
    checksum_update_u16,
    checksum_update_u32,
    internet_checksum,
    ipv4_header_checksum,
    l4_checksum,
)
from repro.packets.headers import (
    ETHERTYPE_ARP,
    ETHERTYPE_IPV4,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    EthernetHeader,
    FlowKey,
    Ipv4Header,
    Packet,
    ParseError,
    TcpHeader,
    UdpHeader,
)
from repro.packets.builder import make_tcp_packet, make_udp_packet

__all__ = [
    "ETHERTYPE_ARP",
    "ETHERTYPE_IPV4",
    "PROTO_ICMP",
    "PROTO_TCP",
    "PROTO_UDP",
    "EthernetHeader",
    "FlowKey",
    "Ipv4Header",
    "Packet",
    "ParseError",
    "TcpHeader",
    "UdpHeader",
    "checksum_apply_delta",
    "checksum_delta_u16",
    "checksum_delta_u32",
    "checksum_update_u16",
    "checksum_update_u32",
    "internet_checksum",
    "ip_to_int",
    "ip_to_str",
    "ipv4_header_checksum",
    "l4_checksum",
    "mac_to_bytes",
    "mac_to_str",
    "make_tcp_packet",
    "make_udp_packet",
]
