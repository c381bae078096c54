"""Header rewriting: incremental checksum patching vs full recompute."""

from hypothesis import given, settings, strategies as st

from repro.nat.rewrite import rewrite
from repro.packets.builder import make_tcp_packet, make_udp_packet

ips = st.integers(1, 0xFFFFFFFE)
ports = st.integers(1, 0xFFFF)


class TestRewriteSource:
    @settings(max_examples=60, deadline=None)
    @given(ips, ports, ips, ports, st.booleans(), st.binary(max_size=32))
    def test_patched_checksums_stay_valid(self, src, sport, new_ip, new_port, tcp, payload):
        maker = make_tcp_packet if tcp else make_udp_packet
        packet = maker(src, 0x08080808, sport, 80, payload=payload)
        rewrite(packet, src=(new_ip, new_port))
        assert packet.ipv4.src_ip == new_ip
        assert packet.l4.src_port == new_port
        assert packet.ipv4.header_checksum_valid()
        assert packet.l4_checksum_valid()

    @settings(max_examples=60, deadline=None)
    @given(ips, ports, ips, ports, st.booleans())
    def test_patched_equals_serialized_recompute(self, src, sport, new_ip, new_port, tcp):
        """The patched packet serializes to the same bytes as a packet
        built from scratch with the rewritten fields."""
        maker = make_tcp_packet if tcp else make_udp_packet
        patched = maker(src, 0x08080808, sport, 80)
        rewrite(patched, src=(new_ip, new_port))
        rebuilt = maker(new_ip, 0x08080808, new_port, 80)
        assert patched.to_bytes() == rebuilt.to_bytes()


class TestRewriteDestination:
    @settings(max_examples=60, deadline=None)
    @given(ips, ports, ips, ports, st.booleans())
    def test_patched_checksums_stay_valid(self, dst, dport, new_ip, new_port, tcp):
        maker = make_tcp_packet if tcp else make_udp_packet
        packet = maker(0x0A000001, dst, 4000, dport)
        rewrite(packet, dst=(new_ip, new_port))
        assert packet.ipv4.dst_ip == new_ip
        assert packet.l4.dst_port == new_port
        assert packet.ipv4.header_checksum_valid()
        assert packet.l4_checksum_valid()

    def test_zero_udp_checksum_stays_disabled(self):
        packet = make_udp_packet(1, 2, 3, 4)
        packet.l4.checksum = 0
        rewrite(packet, dst=(9, 10))
        assert packet.l4.checksum == 0

    def test_requires_flow_packet(self):
        import pytest

        from repro.packets.headers import EthernetHeader, Packet

        with pytest.raises(ValueError):
            rewrite(Packet(eth=EthernetHeader()), src=(1, 2))


class TestDoubleRewrite:
    def test_hairpin_style_double_patch(self):
        """Source and destination patched in one call stay consistent."""
        packet = make_udp_packet(0x0A000001, 0xC0000201, 4000, 1000)
        rewrite(packet, src=(0xC0000201, 7777), dst=(0x0A000002, 5000))
        assert packet.ipv4.header_checksum_valid()
        assert packet.l4_checksum_valid()


class TestZeroUdpChecksumOnTheWire:
    """A UDP checksum that *computes* to 0x0000 is sent as 0xFFFF.

    ``make_udp_packet(10.0.0.1, 8.8.8.8, 58776, 53)`` is one such frame:
    its full recompute folds to 0x0000, and rewriting a ``10.0.0.2:1000``
    frame to that source lands the incremental patch there too. RFC 768
    reserves a transmitted 0 for "no checksum", so all three writers send
    the other zero.
    """

    FRAME = bytes.fromhex(
        "02000000000202000000000108004500001c00000000401160c1"
        "0a00000108080808e59800350008ffff"
    )

    def test_full_recompute(self):
        packet = make_udp_packet(0x0A000001, 0x08080808, 58776, 53)
        assert packet.wire_bytes() == self.FRAME
        assert self.FRAME[40:42] == b"\xff\xff"

    def test_rewrite_patch(self):
        packet = make_udp_packet(0x0A000002, 0x08080808, 1000, 53)
        rewrite(packet, src=(0x0A000001, 58776))
        assert packet.wire_bytes() == self.FRAME

    def test_compiled_closure(self):
        from repro.nat.compiled import compile_action
        from repro.nat.fastpath import CachedAction
        from repro.packets.headers import Packet

        frame = make_udp_packet(0x0A000002, 0x08080808, 1000, 53).wire_bytes()
        action = CachedAction(
            src=(0x0A000001, 58776), dst=None, out_device=1, token=None
        )
        closure = compile_action(Packet.from_bytes(frame).flow_key(), action)
        assert closure(frame) == self.FRAME
