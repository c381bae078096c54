"""Byte-accurate Ethernet/IPv4/TCP/UDP header models.

Headers are mutable dataclasses with ``pack``/``unpack`` that round-trip
byte-for-byte. ``Packet`` composes them together with the receive-device
metadata the NAT dispatches on, mirroring a DPDK mbuf's (port, data) pair.

**Frames stay bytes until somebody asks.** A DPDK NF rewrites an mbuf in
place; it never builds header objects for a frame it only forwards.
:meth:`Packet.from_bytes` does the same for every frame in *canonical
form* (exactly the frames on which parse∘serialize is the identity;
the rule is :func:`is_canonical`): it keeps the immutable ``bytes`` image
and builds no header. Such a *wire-backed* packet answers
:meth:`Packet.wire_bytes`, :meth:`Packet.clone` and
:meth:`Packet.flow_key` from the image in O(1); the first read or write
of ``eth``/``ipv4``/``l4``/``payload`` parses the image once — with the
one parser every other frame takes eagerly — and drops it, so no header
reference can exist beside a live image and ``wire_bytes`` can never
return pre-write bytes. ``device`` is runtime routing state, not a wire
field, and stays a plain attribute in both states.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro.packets.checksum import (
    checksums_equivalent,
    internet_checksum,
    ipv4_header_checksum,
    l4_checksum,
    udp_checksum_on_wire,
)

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_ARP = 0x0806

PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17

# Header codecs precompiled once at import: hot-path pack/unpack must not
# re-parse a format string per packet (struct caches internally, but the
# lookup still costs; Struct objects skip it entirely).
_ETH_STRUCT = struct.Struct(">6s6sH")
_IPV4_STRUCT = struct.Struct(">BBHHHBBHII")
_TCP_STRUCT = struct.Struct(">HHIIBBHHH")
_UDP_STRUCT = struct.Struct(">HHHH")
_U16_STRUCT = struct.Struct(">H")

# Fixed field offsets for Ethernet II + option-less IPv4 (IHL=5).
OFF_ETHERTYPE = 12
OFF_VERSION_IHL = 14
OFF_FLAGS_FRAG = 20
OFF_PROTO = 23
OFF_IP_CSUM = 24
OFF_SRC_IP = 26
OFF_UDP_CSUM = 40
OFF_TCP_CSUM = 50
# The TCP field the canonical-form rule reads besides _CANONICAL_FIELDS.
_OFF_TCP_DATA_OFFSET = 46
_TCP_DATA_OFFSET_5 = 0x50  # offset 5, reserved bits clear

#: src_ip, dst_ip, src_port, dst_port — wire order at ``OFF_SRC_IP``.
_ENDPOINTS = struct.Struct(">IIHH")
_VERSION_IHL5 = 0x45
#: What the canonical-form rule reads, in one call: ethertype (12),
#: version/IHL (14), total length (16), protocol (23) and — meaningful
#: for UDP only — the UDP length (38).
_CANONICAL_FIELDS = struct.Struct("!12xHBxH5xB14xH")
_MIN_LEN_UDP = OFF_UDP_CSUM + 2
_MIN_LEN_TCP = OFF_TCP_CSUM + 4

#: A microflow key: (device, proto, src_ip, src_port, dst_ip, dst_port).
FlowKey = Tuple[int, int, int, int, int, int]


class ParseError(ValueError):
    """Raised when a byte buffer cannot be parsed as the expected header."""


@dataclass(slots=True)
class EthernetHeader:
    """Ethernet II header (no VLAN tags)."""

    dst: bytes = b"\x00" * 6
    src: bytes = b"\x00" * 6
    ethertype: int = ETHERTYPE_IPV4

    SIZE = 14

    def pack(self) -> bytes:
        return _ETH_STRUCT.pack(self.dst, self.src, self.ethertype)

    @classmethod
    def unpack(cls, data: bytes, offset: int = 0) -> "EthernetHeader":
        if len(data) - offset < cls.SIZE:
            raise ParseError("truncated Ethernet header")
        return cls(*_ETH_STRUCT.unpack_from(data, offset))

    def copy(self) -> "EthernetHeader":
        return EthernetHeader(self.dst, self.src, self.ethertype)


@dataclass(slots=True)
class Ipv4Header:
    """IPv4 header without options (IHL fixed at 5, as VigNAT assumes)."""

    tos: int = 0
    total_length: int = 20
    identification: int = 0
    flags: int = 0  # 3-bit flags field
    fragment_offset: int = 0
    ttl: int = 64
    protocol: int = PROTO_TCP
    checksum: int = 0
    src_ip: int = 0
    dst_ip: int = 0

    SIZE = 20
    VERSION_IHL = 0x45

    def pack(
        self, *, fill_checksum: bool = True, total_length: Optional[int] = None
    ) -> bytes:
        """The header's 20 bytes; ``total_length``, when given, stands in
        for the stored field."""
        checksum = self.checksum
        flags_frag = ((self.flags & 0x7) << 13) | (self.fragment_offset & 0x1FFF)
        raw = _IPV4_STRUCT.pack(
            self.VERSION_IHL,
            self.tos,
            self.total_length if total_length is None else total_length,
            self.identification,
            flags_frag,
            self.ttl,
            self.protocol,
            0 if fill_checksum else checksum,
            self.src_ip,
            self.dst_ip,
        )
        if fill_checksum:
            checksum = ipv4_header_checksum(raw)
            raw = raw[:10] + _U16_STRUCT.pack(checksum) + raw[12:]
        return raw

    @classmethod
    def unpack(cls, data: bytes, offset: int = 0) -> "Ipv4Header":
        if len(data) - offset < cls.SIZE:
            raise ParseError("truncated IPv4 header")
        (
            version_ihl,
            tos,
            total_length,
            identification,
            flags_frag,
            ttl,
            protocol,
            checksum,
            src_ip,
            dst_ip,
        ) = _IPV4_STRUCT.unpack_from(data, offset)
        if version_ihl >> 4 != 4:
            raise ParseError(f"not IPv4 (version {version_ihl >> 4})")
        if version_ihl & 0xF != 5:
            raise ParseError("IPv4 options are not supported")
        return cls(
            tos,
            total_length,
            identification,
            (flags_frag >> 13) & 0x7,
            flags_frag & 0x1FFF,
            ttl,
            protocol,
            checksum,
            src_ip,
            dst_ip,
        )

    def copy(self) -> "Ipv4Header":
        return Ipv4Header(
            self.tos,
            self.total_length,
            self.identification,
            self.flags,
            self.fragment_offset,
            self.ttl,
            self.protocol,
            self.checksum,
            self.src_ip,
            self.dst_ip,
        )

    def header_checksum_valid(self) -> bool:
        """True when the stored checksum matches the header contents."""
        raw = self.pack(fill_checksum=False)
        zeroed = raw[:10] + b"\x00\x00" + raw[12:]
        return checksums_equivalent(ipv4_header_checksum(zeroed), self.checksum)


@dataclass(slots=True)
class TcpHeader:
    """TCP header without options (data offset fixed at 5)."""

    src_port: int = 0
    dst_port: int = 0
    seq: int = 0
    ack: int = 0
    flags: int = 0x10  # ACK
    window: int = 0xFFFF
    checksum: int = 0
    urgent: int = 0

    SIZE = 20

    def pack(self) -> bytes:
        return _TCP_STRUCT.pack(
            self.src_port,
            self.dst_port,
            self.seq,
            self.ack,
            5 << 4,
            self.flags,
            self.window,
            self.checksum,
            self.urgent,
        )

    @classmethod
    def unpack(cls, data: bytes, offset: int = 0) -> "TcpHeader":
        if len(data) - offset < cls.SIZE:
            raise ParseError("truncated TCP header")
        (
            src_port,
            dst_port,
            seq,
            ack,
            offset_reserved,
            flags,
            window,
            checksum,
            urgent,
        ) = _TCP_STRUCT.unpack_from(data, offset)
        if offset_reserved >> 4 != 5:
            raise ParseError("TCP options are not supported")
        return cls(src_port, dst_port, seq, ack, flags, window, checksum, urgent)

    def copy(self) -> "TcpHeader":
        return TcpHeader(
            self.src_port,
            self.dst_port,
            self.seq,
            self.ack,
            self.flags,
            self.window,
            self.checksum,
            self.urgent,
        )


@dataclass(slots=True)
class UdpHeader:
    """UDP header."""

    src_port: int = 0
    dst_port: int = 0
    length: int = 8
    checksum: int = 0

    SIZE = 8

    def pack(self) -> bytes:
        return _UDP_STRUCT.pack(
            self.src_port, self.dst_port, self.length, self.checksum
        )

    @classmethod
    def unpack(cls, data: bytes, offset: int = 0) -> "UdpHeader":
        if len(data) - offset < cls.SIZE:
            raise ParseError("truncated UDP header")
        return cls(*_UDP_STRUCT.unpack_from(data, offset))

    def copy(self) -> "UdpHeader":
        return UdpHeader(self.src_port, self.dst_port, self.length, self.checksum)


def is_canonical(frame: bytes) -> bool:
    """Whether ``frame`` is in *canonical form*: option-less IPv4 over
    Ethernet II carrying UDP or option-less TCP, every length field
    agreeing with the frame's own length (``total_length == len - 14``;
    UDP ``length == len - 34``, or the TCP data-offset byte ``== 0x50``).
    Exactly these TCP/UDP frames survive parse then
    :meth:`Packet.wire_bytes` unchanged, so exactly these may stand in
    for their own parse — and a compiled fast-path closure, whose offsets
    are fixed, runs on nothing else.
    """
    size = len(frame)
    if size < _MIN_LEN_UDP:
        return False
    ethertype, version_ihl, total_length, proto, udp_length = (
        _CANONICAL_FIELDS.unpack_from(frame)
    )
    if (
        ethertype != ETHERTYPE_IPV4
        or version_ihl != _VERSION_IHL5
        or total_length != size - EthernetHeader.SIZE
    ):
        return False
    if proto == PROTO_UDP:
        return udp_length == size - EthernetHeader.SIZE - Ipv4Header.SIZE
    return (
        proto == PROTO_TCP
        and size >= _MIN_LEN_TCP
        and frame[_OFF_TCP_DATA_OFFSET] == _TCP_DATA_OFFSET_5
    )


def _parse(data: bytes):
    """(eth, ipv4, l4, payload) of a frame: the one parser.

    Non-IPv4 or non-TCP/UDP payloads stay opaque.
    """
    eth = EthernetHeader.unpack(data)
    offset = EthernetHeader.SIZE
    if eth.ethertype != ETHERTYPE_IPV4:
        return eth, None, None, data[offset:]
    ipv4 = Ipv4Header.unpack(data, offset)
    offset += Ipv4Header.SIZE
    l4: TcpHeader | UdpHeader | None
    if ipv4.protocol == PROTO_TCP:
        l4 = TcpHeader.unpack(data, offset)
        offset += TcpHeader.SIZE
    elif ipv4.protocol == PROTO_UDP:
        l4 = UdpHeader.unpack(data, offset)
        offset += UdpHeader.SIZE
    else:
        l4 = None
    return eth, ipv4, l4, data[offset:]


@dataclass(slots=True)
class Packet:
    """A packet plus the device index it was received on.

    ``l4`` is a :class:`TcpHeader` or :class:`UdpHeader`; the NAT only
    translates TCP and UDP (RFC 3022 traditional NAT), everything else is
    handled by the stateless dispatch code.

    ``image`` is the frame's bytes while the packet is wire-backed (see
    the module docstring) and None once any header has been touched, or
    for a packet built from headers. Read it; never assign it.
    """

    eth: EthernetHeader = field(default_factory=EthernetHeader)
    ipv4: Ipv4Header | None = None
    l4: TcpHeader | UdpHeader | None = None
    payload: bytes = b""
    device: int = 0
    image: bytes | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def src_port(self) -> int:
        if self.l4 is None:
            raise ValueError("packet has no L4 header")
        return self.l4.src_port

    @property
    def dst_port(self) -> int:
        if self.l4 is None:
            raise ValueError("packet has no L4 header")
        return self.l4.dst_port

    def is_tcpudp_ipv4(self) -> bool:
        """True when this packet is one the NAT can translate."""
        return (
            self.eth.ethertype == ETHERTYPE_IPV4
            and self.ipv4 is not None
            and self.l4 is not None
        )

    def flow_key(self) -> Optional[FlowKey]:
        """The microflow key, or None when the packet is ineligible.

        Ineligible (→ slow path): non-IPv4, no TCP/UDP header, fragments
        (MF set or nonzero offset — their L4 header may be absent or
        belong to another fragment). Answered from the image when there
        is one — canonical form already implies IPv4, IHL 5 and a whole
        TCP/UDP header, so only the fragment bits are checked — and from
        the headers otherwise; the two agree on every frame.
        """
        image = self.image
        if image is not None:
            if image[OFF_FLAGS_FRAG] & 0x3F or image[OFF_FLAGS_FRAG + 1]:
                return None
            src_ip, dst_ip, src_port, dst_port = _ENDPOINTS.unpack_from(
                image, OFF_SRC_IP
            )
            return (self.device, image[OFF_PROTO], src_ip, src_port, dst_ip, dst_port)
        ipv4 = self.ipv4
        l4 = self.l4
        if self.eth.ethertype != ETHERTYPE_IPV4 or ipv4 is None or l4 is None:
            return None
        if (ipv4.flags & 0x1) or ipv4.fragment_offset:
            return None
        proto = ipv4.protocol
        if proto != PROTO_TCP and proto != PROTO_UDP:
            return None
        return (
            self.device,
            proto,
            ipv4.src_ip,
            l4.src_port,
            ipv4.dst_ip,
            l4.dst_port,
        )

    def to_bytes(self) -> bytes:
        """Serialize, recomputing IPv4 and L4 checksums from scratch
        (a UDP checksum that computes to 0 is sent as 0xFFFF, RFC 768)."""
        parts = [self.eth.pack()]
        if self.ipv4 is not None:
            l4_raw = b""
            if self.l4 is not None:
                header = replace(self.l4, checksum=0)
                if isinstance(header, UdpHeader):
                    header.length = UdpHeader.SIZE + len(self.payload)
                l4_raw = header.pack() + self.payload
                proto = PROTO_UDP if isinstance(header, UdpHeader) else PROTO_TCP
                csum = l4_checksum(self.ipv4.src_ip, self.ipv4.dst_ip, proto, l4_raw)
                if proto == PROTO_UDP:
                    csum = udp_checksum_on_wire(csum)
                self.l4.checksum = csum
                header.checksum = csum
                l4_raw = header.pack() + self.payload
            else:
                l4_raw = self.payload
            self.ipv4.total_length = Ipv4Header.SIZE + len(l4_raw)
            ip_raw = self.ipv4.pack(fill_checksum=True)
            self.ipv4.checksum = _U16_STRUCT.unpack_from(ip_raw, 10)[0]
            parts.append(ip_raw)
            parts.append(l4_raw)
        else:
            parts.append(self.payload)
        return b"".join(parts)

    def wire_bytes(self) -> bytes:
        """Serialize with the checksums exactly as currently stored.

        Unlike :meth:`to_bytes` this never recomputes a checksum, so a
        packet whose checksums were patched incrementally (RFC 1624)
        serializes to the very bytes a byte-level patching data path
        produces — the equality the fast-path differential harness
        asserts. Lengths are taken from the structure (headers plus
        payload), not from the stored fields, and nothing is written
        back: serializing leaves the packet as it was. A wire-backed
        packet *is* those bytes and hands back its image.
        """
        image = self.image
        if image is not None:
            return image
        ipv4, l4, payload = self.ipv4, self.l4, self.payload
        if ipv4 is None:
            return self.eth.pack() + payload
        if isinstance(l4, UdpHeader):
            size = UdpHeader.SIZE + len(payload)
            l4_raw = _UDP_STRUCT.pack(l4.src_port, l4.dst_port, size, l4.checksum)
            l4_raw += payload
        else:
            l4_raw = payload if l4 is None else l4.pack() + payload
        total_length = Ipv4Header.SIZE + len(l4_raw)
        ip_raw = ipv4.pack(fill_checksum=False, total_length=total_length)
        return b"".join((self.eth.pack(), ip_raw, l4_raw))

    @classmethod
    def from_bytes(cls, data: bytes, device: int = 0) -> "Packet":
        """A frame as a packet: validated, parsed only when it must be.

        A frame in *canonical form* (:func:`is_canonical`) is kept as
        its image and parsed on first header access. Any other frame —
        trailing Ethernet padding, a wrong length, IP or TCP options,
        another protocol or ethertype (always slow-path traffic: nothing
        on their way is faster for staying bytes), anything malformed —
        is parsed here and now, raising :class:`ParseError` as it always
        did.

        A mutable buffer is copied once at entry, so neither an image
        nor a payload ever aliases a caller's ring slot.
        """
        if type(data) is not bytes:
            data = bytes(data)
        if is_canonical(data):
            # from_image, inlined: this runs once per frame.
            packet = _new_packet(_WirePacket)
            packet.image = data
            packet.device = device
            return packet
        return Packet(*_parse(data), device)

    @classmethod
    def from_image(cls, image: bytes, device: int = 0) -> "Packet":
        """A wire-backed packet over ``image``, unchecked.

        For callers that *know* ``image`` is canonical: it came out of a
        wire-backed packet, or a compiled closure made it from one (a
        closure splices fixed-width fields only, so lengths and offsets
        carry over). Anything off the wire goes through
        :meth:`from_bytes`.
        """
        packet = _new_packet(_WirePacket)
        packet.image = image
        packet.device = device
        return packet

    def l4_checksum_valid(self) -> bool:
        """True when the stored L4 checksum matches the packet contents."""
        if self.ipv4 is None or self.l4 is None:
            return False
        header = replace(self.l4, checksum=0)
        raw = header.pack() + self.payload
        proto = PROTO_UDP if isinstance(self.l4, UdpHeader) else PROTO_TCP
        expected = l4_checksum(self.ipv4.src_ip, self.ipv4.dst_ip, proto, raw)
        return checksums_equivalent(expected, self.l4.checksum)

    def clone(self) -> "Packet":
        """Deep-copy the packet (headers are small; payload bytes shared).

        A wire-backed packet's clone shares its immutable image.
        """
        image = self.image
        if image is not None:
            return Packet.from_image(image, self.device)
        ipv4 = self.ipv4
        l4 = self.l4
        return Packet(
            self.eth.copy(),
            ipv4.copy() if ipv4 is not None else None,
            l4.copy() if l4 is not None else None,
            self.payload,
            self.device,
        )


_new_packet = object.__new__


def _materialise(packet: "_WirePacket") -> None:
    """Parse the image into headers, once, and become a plain Packet."""
    image = packet.image
    packet.__class__ = Packet
    packet.image = None
    packet.eth, packet.ipv4, packet.l4, packet.payload = _parse(image)


def _parsed_on_touch(name: str) -> property:
    """``Packet.<name>``, materialising the packet before the access."""
    slot = Packet.__dict__[name]

    def read(self):
        _materialise(self)
        return slot.__get__(self)

    def write(self, value):
        _materialise(self)
        slot.__set__(self, value)

    return property(read, write)


class _WirePacket(Packet):
    """The wire-backed state of a :class:`Packet` — never a second type.

    An instance carries only ``image`` and ``device``. Touching any
    parsed field swaps ``__class__`` back to :class:`Packet` before the
    access completes, so a header reference, a field write, ``==`` and
    ``repr`` only ever see a materialised packet, and a materialised
    packet pays nothing for this class existing: its field reads stay
    plain slot loads.
    """

    __slots__ = ()

    eth = _parsed_on_touch("eth")
    ipv4 = _parsed_on_touch("ipv4")
    l4 = _parsed_on_touch("l4")
    payload = _parsed_on_touch("payload")

    def __eq__(self, other):
        _materialise(self)
        return self == other

    __hash__ = None  # mutable, like every Packet

    def __repr__(self) -> str:
        _materialise(self)
        return repr(self)

    def __reduce__(self):
        # copy/pickle rebuild from the image; the parsed slots are unset.
        return Packet.from_image, (self.image, self.device)


# internet_checksum is re-exported for callers that only import headers.
__all__ = [
    "ETHERTYPE_ARP",
    "ETHERTYPE_IPV4",
    "OFF_ETHERTYPE",
    "OFF_FLAGS_FRAG",
    "OFF_IP_CSUM",
    "OFF_PROTO",
    "OFF_SRC_IP",
    "OFF_TCP_CSUM",
    "OFF_UDP_CSUM",
    "OFF_VERSION_IHL",
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
    "internet_checksum",
    "is_canonical",
]
