"""Flow identifiers and translation entries."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.nat.flow import Flow, FlowId, flow_id_of_packet
from repro.packets.builder import make_tcp_packet, make_udp_packet
from repro.packets.headers import PROTO_TCP, PROTO_UDP


class TestFlowId:
    def test_extracted_from_packet(self):
        packet = make_udp_packet("10.0.0.1", "8.8.8.8", 1234, 53)
        fid = flow_id_of_packet(packet)
        assert fid == FlowId(0x0A000001, 1234, 0x08080808, 53, PROTO_UDP)

    def test_protocol_distinguishes_flows(self):
        udp = flow_id_of_packet(make_udp_packet("10.0.0.1", "8.8.8.8", 1, 2))
        tcp = flow_id_of_packet(make_tcp_packet("10.0.0.1", "8.8.8.8", 1, 2))
        assert udp != tcp
        assert tcp.protocol == PROTO_TCP

    def test_reversed(self):
        fid = FlowId(1, 2, 3, 4, PROTO_UDP)
        rev = fid.reversed()
        assert rev == FlowId(3, 4, 1, 2, PROTO_UDP)
        assert rev.reversed() == fid

    def test_requires_l4(self):
        from repro.packets.headers import EthernetHeader, Packet

        with pytest.raises(ValueError):
            flow_id_of_packet(Packet(eth=EthernetHeader()))

    def test_hashable(self):
        a = FlowId(1, 2, 3, 4, 6)
        b = FlowId(1, 2, 3, 4, 6)
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


class TestFlow:
    def test_external_id_orientation(self):
        """Reply packets bear remote endpoint as src, NAT as dst."""
        internal = FlowId(
            src_ip=0x0A000001, src_port=4000, dst_ip=0x08080808, dst_port=53,
            protocol=PROTO_UDP,
        )
        flow = Flow(internal_id=internal, external_port=1024)
        ext = flow.external_id(external_ip=0xC0000201)
        assert ext.src_ip == 0x08080808
        assert ext.src_port == 53
        assert ext.dst_ip == 0xC0000201
        assert ext.dst_port == 1024
        assert ext.protocol == PROTO_UDP

    def test_flows_with_same_internal_differ_by_port(self):
        internal = FlowId(1, 2, 3, 4, PROTO_UDP)
        a = Flow(internal, 1000)
        b = Flow(internal, 1001)
        assert a.external_id(9) != b.external_id(9)


_FIELDS = ("src_ip", "src_port", "dst_ip", "dst_port", "protocol")
_ips = st.integers(0, 2**32 - 1)
_ports = st.integers(0, 2**16 - 1)
_flow_ids = st.builds(FlowId, _ips, _ports, _ips, _ports, st.sampled_from([6, 17]))


def _fields(fid):
    return tuple(getattr(fid, name) for name in _FIELDS)


class TestHashesAreTheFieldTuples:
    """A flow ID hashes and compares as the tuple of its fields, and a
    flow as ``(internal_id's fields, external_port)``: the slot every
    libVig map puts a key in, and so every probe sequence, follows from
    the field values alone, whatever class carries them."""

    @settings(max_examples=200, deadline=None)
    @given(_flow_ids, _flow_ids)
    def test_flow_id(self, a, b):
        assert hash(a) == hash(_fields(a))
        assert (a == b) == (_fields(a) == _fields(b))
        assert (a == a.reversed()) == (_fields(a) == _fields(a.reversed()))

    @settings(max_examples=200, deadline=None)
    @given(_flow_ids, _ports, _flow_ids, _ports)
    def test_flow(self, fid_a, port_a, fid_b, port_b):
        a, b = Flow(fid_a, port_a), Flow(fid_b, port_b)
        assert hash(a) == hash((_fields(fid_a), port_a))
        assert (a == b) == ((_fields(fid_a), port_a) == (_fields(fid_b), port_b))
