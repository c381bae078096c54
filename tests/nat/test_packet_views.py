"""The slow path's two packet views give the same fields on every frame.

``ConcreteEnv.receive`` hands the stateless code a :class:`KeyView`,
read off ``Packet.flow_key()``, whenever the packet has a key, and the
parsed-header :class:`PacketView` otherwise. The key view is trusted
only because it equals the parsed view: here, on a corpus of named
frames (canonical UDP and TCP on both devices, padding, IP options,
fragments, ICMP, non-IPv4) and on every structural mutation of
``tests/packets/mutations.py``, every field the loops read, ``flow_id()``
and both MACs must agree. A wire-backed packet read through the key view
stays wire-backed until a MAC is read. A frame the parser rejects (IP
options, truncation) never reaches a view.
"""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.nat.concrete import ConcreteEnv, KeyView, PacketView
from repro.packets.builder import make_tcp_packet, make_udp_packet
from repro.packets.headers import PROTO_ICMP, Packet, ParseError
from tests.packets.mutations import mutated_frames

#: Every field the stateless loops read, MACs aside.
_KEY_FIELDS = (
    "ethertype",
    "protocol",
    "device",
    "src_ip",
    "src_port",
    "dst_ip",
    "dst_port",
)


def _udp(payload=b""):
    return make_udp_packet("10.0.0.5", "8.8.8.8", 4_000, 53, payload=payload).to_bytes()


def _tcp(payload=b""):
    return make_tcp_packet("10.0.0.5", "8.8.8.8", 4_000, 80, payload=payload).to_bytes()


def _with(frame, offset, fmt, value):
    mutated = bytearray(frame)
    struct.pack_into(fmt, mutated, offset, value)
    return bytes(mutated)


def _ip_options(frame):
    """IHL 6: four option bytes after the IPv4 header, lengths kept true."""
    mutated = bytearray(frame[:34] + bytes([1, 1, 1, 0]) + frame[34:])
    mutated[14] = 0x46
    struct.pack_into(">H", mutated, 16, len(mutated) - 14)
    return bytes(mutated)


CORPUS = {
    "udp": _udp(),
    "udp-payload": _udp(b"x" * 64),
    "tcp": _tcp(),
    "tcp-payload": _tcp(b"y" * 200),
    "udp-padded": _udp() + bytes(18),
    "tcp-padded": _tcp() + bytes(6),
    "udp-ip-options": _ip_options(_udp(b"z" * 8)),
    "tcp-ip-options": _ip_options(_tcp()),
    "more-fragments": _with(_udp(b"f" * 16), 20, ">H", 0x2000),
    "fragment-offset": _with(_tcp(), 20, ">H", 0x0010),
    "icmp": _with(_udp(b"p" * 8), 23, ">B", PROTO_ICMP),
    "gre": _with(_udp(b"p" * 8), 23, ">B", 47),
    "arp": _with(_udp(), 12, ">H", 0x0806),
    "ipv6": _with(_udp(), 12, ">H", 0x86DD),
}


def _views(frame, device):
    """(the env's view of a fresh packet, that packet, the reference):
    the reference is the parsed view of the same frame, materialised."""
    packet = Packet.from_bytes(frame, device)
    parsed = Packet.from_bytes(frame, device)
    parsed.eth  # materialise: the reference reads parsed headers only
    return ConcreteEnv(None, packet).receive(), packet, PacketView(parsed)


def _assert_same_fields(frame, device):
    try:
        view, packet, reference = _views(frame, device)
    except ParseError:
        return
    wire_backed = packet.image is not None
    if packet.flow_key() is None:
        assert type(view) is PacketView
        return
    assert type(view) is KeyView
    for name in _KEY_FIELDS:
        assert getattr(view, name) == getattr(reference, name), name
    assert view.flow_id() == reference.flow_id()
    assert view.flow_id() is view.flow_id()
    # Nothing the NAT loop reads parses a wire-backed packet.
    assert (packet.image is not None) == wire_backed
    assert view.src_mac == reference.src_mac
    assert view.dst_mac == reference.dst_mac


@pytest.mark.parametrize("device", [0, 1])
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_named_frames(name, device):
    _assert_same_fields(CORPUS[name], device)


def test_the_corpus_covers_both_views_and_both_packet_states():
    # (wire-backed, keyed): canonical frames stay wire-backed, padded
    # frames are keyed but parsed, fragments are wire-backed without a
    # key, the rest are parsed without one; IP options are refused at
    # entry.
    kinds = {}
    for name, frame in CORPUS.items():
        try:
            packet = Packet.from_bytes(frame)
        except ParseError:
            kinds[name] = None
            continue
        kinds[name] = (packet.image is not None, packet.flow_key() is not None)
    assert kinds["udp"] == kinds["tcp-payload"] == (True, True)
    assert kinds["udp-padded"] == kinds["tcp-padded"] == (False, True)
    assert kinds["more-fragments"] == kinds["fragment-offset"] == (True, False)
    for name in ("icmp", "gre", "arp", "ipv6"):
        assert kinds[name] == (False, False), name
    assert kinds["udp-ip-options"] is kinds["tcp-ip-options"] is None


@settings(max_examples=400, deadline=None)
@given(frame=mutated_frames(), device=st.integers(0, 3))
def test_every_mutated_frame(frame, device):
    _assert_same_fields(frame, device)
