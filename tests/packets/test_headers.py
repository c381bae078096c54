"""Header pack/unpack round-tripping and parse robustness."""

import pytest
from hypothesis import given, strategies as st

from repro.packets.builder import make_tcp_packet, make_udp_packet
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
)

ports = st.integers(0, 0xFFFF)
ips = st.integers(0, 0xFFFFFFFF)


class TestEthernetHeader:
    def test_roundtrip(self):
        header = EthernetHeader(dst=b"\x01" * 6, src=b"\x02" * 6, ethertype=0x0800)
        assert EthernetHeader.unpack(header.pack()) == header

    def test_size(self):
        assert len(EthernetHeader().pack()) == EthernetHeader.SIZE

    def test_truncated(self):
        with pytest.raises(ParseError):
            EthernetHeader.unpack(b"\x00" * 13)


class TestIpv4Header:
    @given(ips, ips, st.integers(0, 255), st.integers(0, 0xFFFF))
    def test_roundtrip(self, src, dst, ttl, ident):
        header = Ipv4Header(
            src_ip=src, dst_ip=dst, ttl=ttl, identification=ident, protocol=PROTO_UDP
        )
        raw = header.pack(fill_checksum=False)
        parsed = Ipv4Header.unpack(raw)
        assert parsed.src_ip == src
        assert parsed.dst_ip == dst
        assert parsed.ttl == ttl
        assert parsed.identification == ident

    def test_checksum_filled_and_valid(self):
        header = Ipv4Header(src_ip=1, dst_ip=2)
        raw = header.pack(fill_checksum=True)
        parsed = Ipv4Header.unpack(raw)
        assert parsed.header_checksum_valid()

    def test_rejects_ipv6(self):
        raw = bytearray(Ipv4Header().pack())
        raw[0] = 0x65
        with pytest.raises(ParseError):
            Ipv4Header.unpack(bytes(raw))

    def test_rejects_options(self):
        raw = bytearray(Ipv4Header().pack())
        raw[0] = 0x46  # IHL = 6
        with pytest.raises(ParseError):
            Ipv4Header.unpack(bytes(raw))

    def test_fragment_fields_roundtrip(self):
        header = Ipv4Header(flags=0b010, fragment_offset=1234)
        parsed = Ipv4Header.unpack(header.pack(fill_checksum=False))
        assert parsed.flags == 0b010
        assert parsed.fragment_offset == 1234


class TestL4Headers:
    @given(ports, ports, st.integers(0, 0xFFFFFFFF))
    def test_tcp_roundtrip(self, sport, dport, seq):
        header = TcpHeader(src_port=sport, dst_port=dport, seq=seq)
        assert TcpHeader.unpack(header.pack()) == header

    @given(ports, ports)
    def test_udp_roundtrip(self, sport, dport):
        header = UdpHeader(src_port=sport, dst_port=dport)
        assert UdpHeader.unpack(header.pack()) == header

    def test_truncated_tcp(self):
        with pytest.raises(ParseError):
            TcpHeader.unpack(b"\x00" * 10)

    def test_truncated_udp(self):
        with pytest.raises(ParseError):
            UdpHeader.unpack(b"\x00" * 7)


class TestPacket:
    @given(ips, ips, ports, ports, st.binary(max_size=64))
    def test_udp_packet_byte_roundtrip(self, src, dst, sport, dport, payload):
        packet = make_udp_packet(src, dst, sport, dport, payload=payload)
        raw = packet.to_bytes()
        parsed = Packet.from_bytes(raw, device=3)
        assert parsed.ipv4.src_ip == src
        assert parsed.ipv4.dst_ip == dst
        assert parsed.l4.src_port == sport
        assert parsed.l4.dst_port == dport
        assert parsed.payload == payload
        assert parsed.device == 3
        assert parsed.to_bytes() == raw

    @given(ips, ips, ports, ports, st.binary(max_size=64))
    def test_tcp_packet_checksums_valid(self, src, dst, sport, dport, payload):
        packet = make_tcp_packet(src, dst, sport, dport, payload=payload)
        parsed = Packet.from_bytes(packet.to_bytes())
        assert parsed.ipv4.header_checksum_valid()
        assert parsed.l4_checksum_valid()

    def test_non_ipv4_stays_opaque(self):
        eth = EthernetHeader(ethertype=0x0806)
        packet = Packet(eth=eth, payload=b"arp-body")
        parsed = Packet.from_bytes(packet.to_bytes())
        assert parsed.ipv4 is None
        assert parsed.payload == b"arp-body"
        assert not parsed.is_tcpudp_ipv4()

    def test_icmp_has_no_l4(self):
        ipv4 = Ipv4Header(protocol=1, src_ip=1, dst_ip=2, total_length=24)
        packet = Packet(eth=EthernetHeader(), ipv4=ipv4, payload=b"ping")
        parsed = Packet.from_bytes(packet.to_bytes())
        assert parsed.ipv4 is not None
        assert parsed.l4 is None
        assert not parsed.is_tcpudp_ipv4()

    def test_clone_is_independent(self):
        packet = make_udp_packet("10.0.0.1", "10.0.0.2", 1, 2)
        copy = packet.clone()
        copy.ipv4.src_ip = 42
        copy.l4.src_port = 99
        assert packet.ipv4.src_ip != 42
        assert packet.l4.src_port == 1

    def test_flow_properties_require_l4(self):
        packet = Packet(eth=EthernetHeader(ethertype=0x0806))
        with pytest.raises(ValueError):
            _ = packet.src_port

    def test_udp_length_field_tracks_payload(self):
        packet = make_udp_packet("10.0.0.1", "10.0.0.2", 1, 2, payload=b"x" * 10)
        parsed = Packet.from_bytes(packet.to_bytes())
        assert parsed.l4.length == UdpHeader.SIZE + 10
        assert parsed.ipv4.total_length == Ipv4Header.SIZE + UdpHeader.SIZE + 10

    def test_builder_defaults_are_ipv4_tcpudp(self):
        udp = make_udp_packet("10.0.0.1", "10.0.0.2", 1, 2)
        tcp = make_tcp_packet("10.0.0.1", "10.0.0.2", 1, 2)
        assert udp.is_tcpudp_ipv4() and tcp.is_tcpudp_ipv4()
        assert udp.eth.ethertype == ETHERTYPE_IPV4
        assert tcp.ipv4.protocol == PROTO_TCP


def _summing_to_zero(make):
    """A packet whose L4 checksum computes to 0x0000: its two payload
    bytes are the checksum the same packet computes with zero bytes
    there, which completes the one's-complement sum to 0xFFFF."""
    probe = make("10.0.0.1", "10.0.0.2", 1, 2, payload=b"\x00\x00")
    computed = probe.l4.checksum
    return make("10.0.0.1", "10.0.0.2", 1, 2, payload=computed.to_bytes(2, "big"))


class TestL4ChecksumValidity:
    """RFC 768 for UDP, the one's-complement double zero for TCP."""

    def test_udp_checksum_disabled_is_valid(self):
        packet = make_udp_packet("10.0.0.1", "10.0.0.2", 1, 2)
        assert packet.l4.checksum not in (0x0000, 0xFFFF)
        packet.l4.checksum = 0
        assert packet.l4_checksum_valid()

    def test_udp_checksum_computed_is_valid(self):
        packet = make_udp_packet("10.0.0.1", "10.0.0.2", 1, 2, payload=b"abc")
        assert packet.l4_checksum_valid()
        assert Packet.from_bytes(packet.to_bytes()).l4_checksum_valid()

    def test_udp_zero_sum_is_sent_and_valid_as_all_ones(self):
        packet = _summing_to_zero(make_udp_packet)
        assert packet.l4.checksum == 0xFFFF
        assert packet.l4_checksum_valid()

    def test_udp_all_ones_is_invalid_unless_the_sum_is_zero(self):
        packet = make_udp_packet("10.0.0.1", "10.0.0.2", 1, 2)
        packet.l4.checksum = 0xFFFF
        assert not packet.l4_checksum_valid()

    def test_udp_wrong_checksum_is_invalid(self):
        packet = make_udp_packet("10.0.0.1", "10.0.0.2", 1, 2)
        packet.l4.checksum ^= 0x0100
        assert not packet.l4_checksum_valid()

    def test_tcp_double_zero_is_equivalent(self):
        packet = _summing_to_zero(make_tcp_packet)
        assert packet.l4.checksum == 0x0000
        assert packet.l4_checksum_valid()
        packet.l4.checksum = 0xFFFF
        assert packet.l4_checksum_valid()

    def test_tcp_zero_checksum_is_not_disabled(self):
        packet = make_tcp_packet("10.0.0.1", "10.0.0.2", 1, 2)
        assert packet.l4.checksum not in (0x0000, 0xFFFF)
        packet.l4.checksum = 0
        assert not packet.l4_checksum_valid()
