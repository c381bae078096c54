"""RSS-style flow steering for the sharded data path.

Real multi-queue NICs (82599 and up) spread load across cores with
Receive-Side Scaling: a hash of the 5-tuple selects the RX queue, so all
packets of one flow land on one core and per-core NF state needs no
locks. This module provides that hash plus the NAT-specific twist the
return path needs.

**Why plain RSS is not enough for a NAT.** Outbound traffic hashes on
the internal 5-tuple; the reply arrives bearing the *translated* tuple
(remote → EXT_IP:ext_port), which hashes to an unrelated queue — even a
symmetric hash cannot help, because translation rewrote the tuple.
What *does* identify the owning worker is the external port: each worker
allocates from a disjoint slice of the port range
(:meth:`repro.nat.config.NatConfig.partition`), so the translated
destination port names its allocator. :class:`NatSteering` therefore
steers external-side traffic by port ownership and everything else by
the RSS hash. With a single shard — the paper's one core behind one RX
queue — there is nothing to choose, and :meth:`NatSteering.worker_for`
answers without reading the packet.

**Packets without L4 ports** (IP fragments, ICMP messages) must still
hash *consistently*: the fallback is a dst-IP-only hash, so every
fragment of a datagram — first fragment included, even though it carries
ports — lands on the same queue. ICMP *errors* quote the offending
packet's IP header + 8 L4 bytes (RFC 792); for an inbound error about a
translated flow, the quoted source port *is* the external port, so
:class:`NatSteering` recovers the owner from the quote instead of
falling back to the hash.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Sequence, Tuple

from repro.nat.config import NatConfig
from repro.packets.headers import ETHERTYPE_IPV4, PROTO_ICMP, FlowKey, Packet
from repro.packets.icmp import IcmpMessage

#: The IPv4 More-Fragments bit within the 3-bit flags field.
MORE_FRAGMENTS = 0x1

_FNV_OFFSET = 0x811C9DC5
_FNV_PRIME = 0x01000193

#: What the RSS hash covers: src ip, dst ip, src port, dst port, proto.
_FIVE_TUPLE = struct.Struct(">IIHHB")


def _fnv1a(data: bytes) -> int:
    """FNV-1a + avalanche: a deterministic stand-in for Toeplitz.

    Plain FNV-1a mixes its *low* bits poorly for near-consecutive keys
    (adjacent flows can collapse onto two of four queues), so the result
    runs through a murmur3-style finalizer — queue selection takes the
    hash modulo the queue count, which uses exactly those bits.
    """
    value = _FNV_OFFSET
    for byte in data:
        value = ((value ^ byte) * _FNV_PRIME) & 0xFFFFFFFF
    value ^= value >> 16
    value = (value * 0x85EBCA6B) & 0xFFFFFFFF
    value ^= value >> 13
    value = (value * 0xC2B2AE35) & 0xFFFFFFFF
    value ^= value >> 16
    return value


def _flow_key_hash(key: FlowKey) -> int:
    """The 5-tuple hash of a packet that has a flow key."""
    _device, proto, src_ip, src_port, dst_ip, dst_port = key
    return _fnv1a(_FIVE_TUPLE.pack(src_ip, dst_ip, src_port, dst_port, proto))


def is_fragment(packet: Packet) -> bool:
    """True for any fragment of a fragmented datagram (first included)."""
    if packet.ipv4 is None:
        return False
    return packet.ipv4.fragment_offset > 0 or bool(
        packet.ipv4.flags & MORE_FRAGMENTS
    )


def rss_hash_packet(packet: Packet) -> int:
    """The RSS hash of a packet, 32 bits.

    TCP/UDP over IPv4 hashes the full 5-tuple. When L4 ports are absent
    or unreliable — fragments (only the first carries ports), ICMP and
    other protocols (no ports at all) — the hash degrades to dst-IP-only
    so that all packets of one datagram, and a flow's error packets,
    hash identically. Non-IP frames hash to 0 (queue 0), like a NIC's
    default queue for unclassifiable traffic.

    A packet with a flow key (``Packet.flow_key``: unfragmented TCP/UDP
    over IPv4) hashes that key's 5-tuple — read off the wire image when
    the packet still is one, so steering parses nothing.
    """
    key = packet.flow_key()
    if key is not None:
        return _flow_key_hash(key)
    if packet.eth.ethertype != ETHERTYPE_IPV4 or packet.ipv4 is None:
        return 0
    if packet.l4 is not None and not is_fragment(packet):
        return _fnv1a(
            _FIVE_TUPLE.pack(
                packet.ipv4.src_ip,
                packet.ipv4.dst_ip,
                packet.l4.src_port,
                packet.l4.dst_port,
                packet.ipv4.protocol,
            )
        )
    return _fnv1a(struct.pack(">I", packet.ipv4.dst_ip))


def rss_queue(packet: Packet, queue_count: int) -> int:
    """Map a packet to one of ``queue_count`` RX queues via the RSS hash."""
    if queue_count <= 0:
        raise ValueError("queue count must be positive")
    return rss_hash_packet(packet) % queue_count


class NatSteering:
    """NAT-aware worker selection over a partitioned port range.

    Holds the per-worker :class:`~repro.nat.config.NatConfig` shards
    (disjoint, exhaustive port ranges — see ``NatConfig.partition``).
    Forward-direction traffic is steered by the RSS hash; external-side
    traffic whose destination names a translated external port is
    steered to the worker *owning* that port, which is the worker whose
    allocator produced it — the invariant that keeps all of a flow's
    state on one worker with zero cross-worker lookups.
    """

    def __init__(self, shards: Sequence[NatConfig]) -> None:
        if not shards:
            raise ValueError("need at least one worker shard")
        first = shards[0]
        ranges: List[Tuple[int, int]] = []
        for cfg in shards:
            if (
                cfg.external_ip != first.external_ip
                or cfg.internal_device != first.internal_device
                or cfg.external_device != first.external_device
            ):
                raise ValueError("shards must share IP and device layout")
            ranges.append((cfg.start_port, cfg.end_port))
        for (_, end_a), (start_b, _) in zip(ranges, ranges[1:]):
            if start_b <= end_a:
                raise ValueError("shard port ranges must be disjoint and ordered")
        self.shards: Tuple[NatConfig, ...] = tuple(shards)
        self._ranges = ranges

    @property
    def worker_count(self) -> int:
        return len(self.shards)

    def owner_of_port(self, port: int) -> Optional[int]:
        """The worker whose port slice contains ``port``, if any."""
        for worker, (start, end) in enumerate(self._ranges):
            if start <= port <= end:
                return worker
        return None

    def _external_port_of(self, packet: Packet) -> Optional[int]:
        """The translated external port an external-side packet names.

        For TCP/UDP that is the destination port. For an ICMP error the
        quoted offending packet was one *we* emitted, so its quoted
        source must be (EXT_IP, ext_port) — the port is recovered from
        the quote. Fragments are excluded: only the first carries ports,
        and steering must treat all fragments of a datagram alike.
        """
        if packet.device != self.shards[0].external_device:
            return None
        if packet.ipv4 is None or is_fragment(packet):
            return None
        if packet.l4 is not None:
            return packet.l4.dst_port
        if packet.ipv4.protocol == PROTO_ICMP:
            try:
                message = IcmpMessage.unpack(packet.payload)
            except Exception:
                return None
            embedded = message.embedded()
            if embedded is None:
                return None
            inner_ip, inner_src_port, _inner_dst_port, _trailing = embedded
            if inner_ip.src_ip == self.shards[0].external_ip:
                return inner_src_port
        return None

    def worker_for(self, packet: Packet) -> int:
        """The worker this packet must be delivered to.

        One shard means one queue: every branch of the rule ends in
        worker 0 (its port owner, or a hash ``% 1``), so the packet is
        not read at all. Otherwise unfragmented TCP/UDP —
        everything with a flow key — is steered off the key alone
        (external side: the destination port's owner; otherwise the
        5-tuple hash), which a wire-backed packet answers from its
        image. Only fragments, ICMP and non-IP traffic read headers.
        """
        if len(self._ranges) == 1:
            return 0
        key = packet.flow_key()
        if key is not None:
            if key[0] == self.shards[0].external_device:
                owner = self.owner_of_port(key[5])
                if owner is not None:
                    return owner
            return _flow_key_hash(key) % len(self.shards)
        port = self._external_port_of(packet)
        if port is not None:
            owner = self.owner_of_port(port)
            if owner is not None:
                return owner
        return rss_queue(packet, len(self.shards))
