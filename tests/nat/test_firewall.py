"""The verified firewall: concrete behaviour and its Vigor proof."""

import pytest

from repro.nat.config import NatConfig
from repro.nat.firewall import VigFirewall
from repro.nat.flow import flow_id_of_packet
from repro.packets.builder import make_tcp_packet, make_udp_packet
from repro.packets.headers import EthernetHeader, Packet

CFG = NatConfig(max_flows=8, expiration_time=2_000_000)


def outbound(sport=4000, maker=make_udp_packet):
    return maker("10.0.0.5", "8.8.8.8", sport, 53, device=0)


def inbound_reply(out_packet, maker=make_udp_packet):
    return maker(
        "8.8.8.8", "10.0.0.5", 53, out_packet.l4.src_port, device=1
    )


class TestOutbound:
    def test_forwarded_unchanged(self):
        fw = VigFirewall(CFG)
        original = outbound()
        out = fw.process(original, 1_000)
        assert len(out) == 1
        assert out[0].device == CFG.external_device
        assert out[0].ipv4.src_ip == original.ipv4.src_ip  # no rewriting
        assert out[0].l4.src_port == original.l4.src_port
        assert out[0].l4_checksum_valid()

    def test_session_created(self):
        fw = VigFirewall(CFG)
        packet = outbound()
        fw.process(packet, 1_000)
        assert fw.session_count() == 1
        assert fw.has_session(flow_id_of_packet(packet))

    def test_same_flow_one_session(self):
        fw = VigFirewall(CFG)
        fw.process(outbound(), 1_000)
        fw.process(outbound(), 2_000)
        assert fw.session_count() == 1

    def test_full_table_drops_new_flows(self):
        fw = VigFirewall(CFG)
        for i in range(CFG.max_flows):
            assert fw.process(outbound(sport=4000 + i), 1_000)
        assert fw.process(outbound(sport=9999), 1_001) == []
        assert fw.session_count() == CFG.max_flows


class TestInbound:
    def test_established_reply_allowed(self):
        fw = VigFirewall(CFG)
        out = fw.process(outbound(sport=4321), 1_000)[0]
        back = fw.process(inbound_reply(out), 2_000)
        assert len(back) == 1
        assert back[0].device == CFG.internal_device
        assert back[0].l4.dst_port == 4321
        assert back[0].ipv4.dst_ip == out.ipv4.src_ip  # unchanged

    def test_unsolicited_blocked(self):
        fw = VigFirewall(CFG)
        unsolicited = make_udp_packet("8.8.8.8", "10.0.0.5", 53, 4000, device=1)
        assert fw.process(unsolicited, 1_000) == []
        assert fw.session_count() == 0  # never creates state

    def test_wrong_port_blocked(self):
        fw = VigFirewall(CFG)
        fw.process(outbound(sport=4321), 1_000)
        stray = make_udp_packet("8.8.8.8", "10.0.0.5", 53, 4322, device=1)
        assert fw.process(stray, 2_000) == []

    def test_reply_refreshes_session(self):
        fw = VigFirewall(CFG)
        out = fw.process(outbound(), 0)[0]
        fw.process(inbound_reply(out), 1_500_000)
        # 3s after creation but 1.5s after the reply: still alive.
        assert len(fw.process(outbound(), 3_000_000)) == 1
        assert fw.session_count() == 1


class TestExpiry:
    def test_idle_session_expires(self):
        fw = VigFirewall(CFG)
        out = fw.process(outbound(), 1_000)[0]
        late = 1_000 + CFG.expiration_time + 1
        assert fw.process(inbound_reply(out), late) == []
        assert fw.session_count() == 0

    def test_tcp_and_udp_tracked_separately(self):
        fw = VigFirewall(CFG)
        tcp_out = fw.process(outbound(maker=make_tcp_packet), 1_000)[0]
        assert fw.session_count() == 1
        # Only a TCP session exists: the same 5-tuple over UDP is blocked.
        udp_reply = inbound_reply(tcp_out, maker=make_udp_packet)
        assert fw.process(udp_reply, 1_500) == []
        # The genuine TCP reply is allowed.
        tcp_reply = inbound_reply(tcp_out, maker=make_tcp_packet)
        assert len(fw.process(tcp_reply, 1_600)) == 1


class TestNonFlow:
    def test_arp_dropped(self):
        fw = VigFirewall(CFG)
        arp = Packet(eth=EthernetHeader(ethertype=0x0806), device=0)
        assert fw.process(arp, 1_000) == []

    def test_unknown_device_dropped(self):
        fw = VigFirewall(CFG)
        packet = outbound()
        packet.device = 9
        assert fw.process(packet, 1_000) == []


class TestFirewallVerification:
    """The same pipeline that verified the NAT verifies the firewall."""

    @pytest.fixture(scope="class")
    def report(self):
        from repro.verif.engine import ExhaustiveSymbolicEngine
        from repro.verif.proofs import firewall_proof
        from repro.verif.semantics import FirewallSemantics
        from repro.verif.validator import Validator

        cfg = NatConfig()
        result = ExhaustiveSymbolicEngine().explore(firewall_proof(cfg).body)
        return Validator(FirewallSemantics(cfg)).validate(result, "VigFirewall")

    def test_all_properties_proven(self, report):
        assert report.verified, report.render()

    def test_obligations_discharged(self, report):
        assert report.p1.obligations >= 30
        assert report.p5.obligations >= 20

    def test_mutant_pass_through_firewall_fails(self):
        """A 'firewall' that forwards unsolicited inbound is rejected."""
        from repro.nat.firewall import firewall_loop_iteration
        from repro.verif.engine import ExhaustiveSymbolicEngine
        from repro.verif.nf_env import SymbolicFlowTableEnv
        from repro.verif.semantics import FirewallSemantics
        from repro.verif.validator import Validator

        cfg = NatConfig()

        class LeakyEnv(SymbolicFlowTableEnv):
            def session_get_external(self, packet):
                index = super().session_get_external(packet)
                if index is None:
                    # BUG: treat unknown inbound sessions as found.
                    self.forward(packet, device=cfg.internal_device)
                return index

        def body(ctx):
            env = LeakyEnv(ctx, cfg)
            firewall_loop_iteration(env, cfg)

        result = ExhaustiveSymbolicEngine().explore(body)
        report = Validator(FirewallSemantics(cfg)).validate(result, "leaky")
        assert result.crash_free  # caught by the spec, not by a broken harness
        assert not report.p1.proven
        assert any("forward-justified" in f for f in report.p1.failures)
