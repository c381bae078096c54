"""Structure-aware frame mutations, shared by every fuzz of a wire input.

One Hypothesis strategy: a builder-made TCP or UDP frame with exactly
one structural mutation — trailing Ethernet padding, a wrong
``total_length`` or UDP length, TCP reserved/data-offset bits, IHL ≠ 5,
fragments, a VLAN tag, a non-IPv4 ethertype, truncation at every header
boundary, a zero UDP checksum. ``tests/packets/test_wire_backed.py``
holds ``Packet.from_bytes`` to the eager reference parser with it;
``tests/nat/test_fastpath_differential.py`` offers the same mutations
*on a warm flow's 5-tuple* to a fast path that has earned the flow's
closure; ``tests/integration/test_wire_frames_through_launch.py`` drives
the three :data:`NAMED_SHAPES` through ``launch()``.
"""

import struct

from hypothesis import strategies as st

from repro.packets.builder import make_tcp_packet, make_udp_packet
from repro.packets.headers import PROTO_ICMP, PROTO_TCP, PROTO_UDP

MUTATIONS = (
    "none",
    "padding",
    "total-length",
    "udp-length",
    "tcp-offset-byte",
    "ihl",
    "version",
    "more-fragments",
    "fragment-offset",
    "ethertype",
    "vlan",
    "protocol",
    "truncate",
    "zero-udp-checksum",
)

#: Every header boundary of both frame shapes, and one byte either side.
_BOUNDARIES = sorted(
    {
        max(0, edge + nudge)
        for edge in (0, 14, 34, 42, 54)
        for nudge in (-1, 0, 1)
    }
)


@st.composite
def builder_packets(draw):
    """A builder-made TCP or UDP packet with random endpoints."""
    make = draw(st.sampled_from([make_udp_packet, make_tcp_packet]))
    return make(
        draw(st.integers(1, 0xFFFFFFFE)),
        draw(st.integers(1, 0xFFFFFFFE)),
        draw(st.integers(1, 0xFFFF)),
        draw(st.integers(1, 0xFFFF)),
        payload=draw(st.binary(min_size=0, max_size=40)),
    )


@st.composite
def mutated_frames(draw, packets=builder_packets(), mutations=MUTATIONS):
    """A frame of one of ``packets`` with one of ``mutations`` applied.

    No mutation touches bytes 23 (protocol, except ``protocol`` itself)
    or 26..38 (the endpoints), so a mutated frame that still parses
    keeps its packet's 5-tuple.
    """
    frame = bytearray(draw(packets).to_bytes())
    mutation = draw(st.sampled_from(mutations))
    if mutation == "padding":
        frame += bytes(draw(st.integers(1, 18)))
    elif mutation == "total-length":
        struct.pack_into(">H", frame, 16, draw(st.integers(0, 0xFFFF)))
    elif mutation == "udp-length":
        struct.pack_into(">H", frame, 38, draw(st.integers(0, 0xFFFF)))
    elif mutation == "tcp-offset-byte" and len(frame) > 46:
        frame[46] = draw(st.integers(0, 0xFF))  # on UDP: a payload byte
    elif mutation == "ihl":
        frame[14] = 0x40 | draw(st.integers(0, 15))
    elif mutation == "version":
        frame[14] = draw(st.integers(0, 15)) << 4 | 5
    elif mutation == "more-fragments":
        frame[20] |= 0x20
    elif mutation == "fragment-offset":
        struct.pack_into(">H", frame, 20, draw(st.integers(1, 0x1FFF)))
    elif mutation == "ethertype":
        ethertype = draw(st.sampled_from([0x0806, 0x86DD, 0x8100, 0]))
        struct.pack_into(">H", frame, 12, ethertype)
    elif mutation == "vlan":
        frame[12:12] = b"\x81\x00" + struct.pack(">H", draw(st.integers(0, 0xFFF)))
    elif mutation == "protocol":
        frame[23] = draw(st.sampled_from([PROTO_ICMP, PROTO_TCP, PROTO_UDP, 47]))
    elif mutation == "truncate":
        del frame[draw(st.sampled_from(_BOUNDARIES)) :]
    elif mutation == "zero-udp-checksum":
        frame[40:42] = b"\x00\x00"
    return bytes(frame)


def _tcp_data_offset_6(frame: bytes) -> bytes:
    mutated = bytearray(frame)
    mutated[46] = 0x60 | (mutated[46] & 0x0F)
    return bytes(mutated)


def _trailing_padding(frame: bytes) -> bytes:
    return frame + bytes(6)


def _short_total_length(frame: bytes) -> bytes:
    mutated = bytearray(frame)
    (total_length,) = struct.unpack_from(">H", mutated, 16)
    struct.pack_into(">H", mutated, 16, total_length - 2)
    return bytes(mutated)


#: The three shapes a key-off-the-buffer fast path once got wrong, by
#: name: each maps a canonical TCP frame (with payload) to the shape.
NAMED_SHAPES = {
    "tcp-data-offset-6": _tcp_data_offset_6,
    "trailing-padding": _trailing_padding,
    "short-total-length": _short_total_length,
}
