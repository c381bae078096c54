"""Wire-backed packets: the lazy image must equal the eager parse.

``Packet.from_bytes`` keeps a canonical frame as bytes and parses it
only when a header is touched. That is a parser-equivalence claim
(*Leapfrog*: lazy image ≡ eager parse∘serialize), so it is checked, not
assumed, against a reference kept here: ``_eager_parse`` is the eager
``from_bytes`` this repository had before frames stayed bytes, built
from the public header ``unpack`` methods only.

For arbitrary bytes and for structure-mutated builder frames
(``tests/packets/mutations.py``) — trailing Ethernet padding, wrong
``total_length``, UDP length mismatch, TCP reserved/data-offset bits,
IHL > 5, fragments, non-IPv4 ethertypes, a VLAN tag, truncation at
every header boundary, a zero UDP checksum:

(a) ``from_bytes`` raises ``ParseError`` iff the reference does, with
    the same message;
(b) ``wire_bytes()``, every header field after materialisation,
    ``flow_key()`` and ``clone()`` equal the reference's;
(c) a frame is kept as an image only if the reference round-trips it,
    and every TCP/UDP frame the reference round-trips is kept.

Plus the state discipline: any write — to ``eth``/``ipv4``/``l4``/
``payload``, or through a header reference — drops the image first, so
``wire_bytes()`` can never return pre-write bytes.
"""

import copy
import pickle
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.packets.builder import make_udp_packet
from repro.packets.headers import (
    ETHERTYPE_IPV4,
    PROTO_TCP,
    PROTO_UDP,
    EthernetHeader,
    Ipv4Header,
    Packet,
    ParseError,
    TcpHeader,
    UdpHeader,
    is_canonical,
)
from repro.resil.faults import FaultPlan
from tests.packets.mutations import mutated_frames


def _eager_parse(data: bytes, device: int = 0) -> Packet:
    """The reference: parse every header, here and now."""
    eth = EthernetHeader.unpack(data)
    offset = EthernetHeader.SIZE
    if eth.ethertype != ETHERTYPE_IPV4:
        return Packet(eth=eth, payload=data[offset:], device=device)
    ipv4 = Ipv4Header.unpack(data[offset:])
    offset += Ipv4Header.SIZE
    if ipv4.protocol == PROTO_TCP:
        l4 = TcpHeader.unpack(data[offset:])
        offset += TcpHeader.SIZE
    elif ipv4.protocol == PROTO_UDP:
        l4 = UdpHeader.unpack(data[offset:])
        offset += UdpHeader.SIZE
    else:
        l4 = None
    return Packet(eth=eth, ipv4=ipv4, l4=l4, payload=data[offset:], device=device)


def _verdict(parse, frame, device):
    """(packet, None) or (None, error message)."""
    try:
        return parse(frame, device), None
    except ParseError as error:
        return None, str(error)


_FRAMES = st.one_of(mutated_frames(), st.binary(min_size=0, max_size=80))
_DEVICES = st.integers(0, 3)


class TestLazyImageEqualsEagerParse:
    @given(frame=_FRAMES, device=_DEVICES)
    @settings(max_examples=600, deadline=None)
    def test_same_errors_same_packet(self, frame, device):
        lazy, lazy_error = _verdict(Packet.from_bytes, frame, device)
        eager, eager_error = _verdict(_eager_parse, frame, device)
        assert lazy_error == eager_error  # (a)
        if eager is None:
            return
        was_wire_backed = lazy.image is not None
        eager_key = eager.flow_key()
        # (b), image side first: none of these may touch a header.
        assert lazy.flow_key() == eager_key
        assert lazy.wire_bytes() == eager.wire_bytes()
        twin = lazy.clone()
        assert (lazy.image is not None) == was_wire_backed
        # (b), header side: == materialises and compares every field.
        assert twin == eager
        assert twin.image is None
        assert twin.flow_key() == eager_key
        assert twin.wire_bytes() == eager.wire_bytes()
        assert lazy == eager and lazy.device == device
        # (c)
        round_trips = eager.wire_bytes() == frame
        if was_wire_backed:
            assert round_trips
        if round_trips and eager.l4 is not None:
            assert was_wire_backed

    @given(frame=_FRAMES, device=_DEVICES)
    @settings(max_examples=200, deadline=None)
    def test_mutable_buffers_are_copied_once_at_entry(self, frame, device):
        for buffer in (bytearray(frame), memoryview(bytearray(frame))):
            packet, error = _verdict(Packet.from_bytes, buffer, device)
            assert error == _verdict(_eager_parse, frame, device)[1]
            if packet is None:
                continue
            # Scribbling on the ring slot afterwards changes nothing.
            for i in range(len(buffer)):
                buffer[i] = 0xEE
            assert packet.image is None or type(packet.image) is bytes
            assert packet == _eager_parse(frame, device)
            assert type(packet.payload) is bytes


def _wire_backed(device=0, **kwargs):
    frame = make_udp_packet("10.0.0.5", "8.8.8.8", 4_000, 53, **kwargs).to_bytes()
    packet = Packet.from_bytes(frame, device)
    assert packet.image is frame
    return packet, frame


def _set_payload(packet):
    packet.payload = b"rewritten"


def _set_l4(packet):
    packet.l4 = UdpHeader(src_port=1, dst_port=2)


def _set_ipv4(packet):
    packet.ipv4 = Ipv4Header(protocol=PROTO_UDP, src_ip=1, dst_ip=2)


def _set_eth(packet):
    packet.eth = EthernetHeader(dst=b"\x01" * 6, src=b"\x02" * 6)


def _patch_through_reference(packet):
    packet.ipv4.ttl -= 1


WRITES = (_set_payload, _set_l4, _set_ipv4, _set_eth, _patch_through_reference)


class TestNoStaleImage:
    @pytest.mark.parametrize("write", WRITES, ids=lambda w: w.__name__)
    def test_mutate_after_from_bytes(self, write):
        packet, frame = _wire_backed(payload=b"original")
        expected = _eager_parse(frame)
        write(packet)
        write(expected)
        assert packet.image is None
        assert packet.wire_bytes() == expected.wire_bytes() != frame

    @pytest.mark.parametrize("write", WRITES, ids=lambda w: w.__name__)
    def test_mutate_after_clone(self, write):
        packet, frame = _wire_backed(payload=b"original")
        twin = packet.clone()
        expected = _eager_parse(frame)
        write(twin)
        write(expected)
        assert twin.wire_bytes() == expected.wire_bytes() != frame
        # The original shares the immutable image and never sees it.
        assert packet.image is frame and packet.wire_bytes() is frame

    def test_corrupt_packet_on_a_wire_backed_packet(self):
        packet, frame = _wire_backed()
        corrupted = FaultPlan.corrupt_packet(packet)
        expected = _eager_parse(frame)
        expected.l4.checksum ^= 0x5555
        assert corrupted.wire_bytes() == expected.wire_bytes() != frame
        assert packet.wire_bytes() is frame

    def test_reads_drop_the_image_too(self):
        # A header reference is a licence to write; none may exist
        # beside a live image.
        for read in (
            lambda p: p.eth,
            lambda p: p.ipv4,
            lambda p: p.l4,
            lambda p: p.payload,
            lambda p: p.src_port,
            lambda p: p.is_tcpudp_ipv4(),
            lambda p: p.l4_checksum_valid(),
            lambda p: p.to_bytes(),
            repr,
        ):
            packet, frame = _wire_backed()
            read(packet)
            assert packet.image is None and type(packet) is Packet
            assert packet.wire_bytes() == frame

    def test_device_is_not_a_wire_field(self):
        packet, frame = _wire_backed(device=0)
        packet.device = 1
        assert packet.image is frame
        assert packet.flow_key()[0] == 1
        assert packet.clone().device == 1


class TestOnePacketType:
    def test_wire_backed_is_a_packet_until_touched_then_exactly_one(self):
        packet, frame = _wire_backed(device=2)
        assert isinstance(packet, Packet)
        assert packet == _eager_parse(frame, 2)
        assert type(packet) is Packet

    def test_equality_is_symmetric_across_states(self):
        frame = _wire_backed()[1]
        assert Packet.from_bytes(frame) == Packet.from_bytes(frame)
        assert _eager_parse(frame) == Packet.from_bytes(frame)
        assert Packet.from_bytes(frame) != Packet.from_bytes(frame, device=1)
        assert Packet.from_bytes(frame) != object()

    def test_repr_is_the_materialised_repr(self):
        frame = _wire_backed()[1]
        assert repr(Packet.from_bytes(frame)) == repr(_eager_parse(frame))
        assert "image" not in repr(Packet.from_bytes(frame))

    def test_unhashable_in_both_states(self):
        for packet in (_wire_backed()[0], make_udp_packet("1.1.1.1", "2.2.2.2", 1, 2)):
            with pytest.raises(TypeError):
                hash(packet)

    @pytest.mark.parametrize(
        "duplicate",
        (copy.copy, copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))),
        ids=("copy", "deepcopy", "pickle"),
    )
    def test_copy_and_pickle_keep_the_image(self, duplicate):
        packet, frame = _wire_backed(device=3)
        twin = duplicate(packet)
        assert twin.image == frame and twin.device == 3
        assert twin == _eager_parse(frame, 3)
        assert packet.image is frame


def _is_canonical_by_slices(frame: bytes) -> bool:
    """The canonical-form check as it read before it became one struct
    read: a slice compare of bytes 12..15, then the total length, the
    protocol byte and the UDP length or TCP data-offset byte, each read
    on its own. Kept as the reference the one-read check must equal."""
    size = len(frame)
    if (
        size < 42
        or frame[12:15] != bytes((0x08, 0x00, 0x45))
        or struct.unpack_from(">H", frame, 16)[0] != size - 14
    ):
        return False
    proto = frame[23]
    if proto == PROTO_UDP:
        return struct.unpack_from(">H", frame, 38)[0] == size - 14 - 20
    return proto == PROTO_TCP and size >= 54 and frame[46] == 0x50


@st.composite
def _frames_with_one_byte_set(draw):
    """A mutated frame with one byte among those the check reads (and
    its neighbours) overwritten: every field compare flips somewhere."""
    frame = bytearray(draw(mutated_frames()))
    if frame:
        at = draw(st.integers(0, min(len(frame), 48) - 1))
        frame[at] = draw(st.integers(0, 0xFF))
    return bytes(frame)


class TestOneReadCanonicalCheck:
    """``is_canonical`` reads its fields with one ``unpack_from``; it
    must give the slice-by-slice reference's verdict on every frame."""

    @given(frame=st.one_of(_FRAMES, _frames_with_one_byte_set()))
    @settings(max_examples=1500, deadline=None)
    def test_equals_the_slice_reference(self, frame):
        frame = bytes(frame)
        assert is_canonical(frame) == _is_canonical_by_slices(frame)

    def test_reference_sees_both_verdicts(self):
        udp = make_udp_packet(1, 2, 3, 4, payload=b"x").wire_bytes()
        assert _is_canonical_by_slices(udp) and is_canonical(udp)
        assert not _is_canonical_by_slices(udp + b"\x00")
        assert not is_canonical(udp + b"\x00")
