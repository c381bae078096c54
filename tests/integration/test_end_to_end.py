"""End-to-end integration: NFs driven through the DPDK runtime, and the
full verify-then-run story of the paper.
"""

from repro.nat.config import NatConfig
from repro.nat.vignat import VigNat
from repro.net.dpdk import DpdkRuntime
from repro.packets.addresses import ip_to_int
from repro.packets.builder import make_tcp_packet, make_udp_packet
from repro.packets.headers import Packet


class DpdkNatApp:
    """A DPDK main-loop wrapper: burst in, NAT, burst out."""

    def __init__(self, nat: VigNat, runtime: DpdkRuntime) -> None:
        self.nat = nat
        self.runtime = runtime

    def iteration(self, now_us: int, burst: int = 32) -> None:
        for port_id in (0, 1):
            for mbuf in self.runtime.rx_burst(port_id, burst):
                outputs = self.nat.process(mbuf.packet, now_us)
                if outputs:
                    out = outputs[0]
                    mbuf.packet = out
                    self.runtime.tx_burst(out.device, [mbuf], now_us)
                else:
                    self.runtime.free(mbuf)  # drop without leaking


class TestDpdkIntegration:
    def setup_method(self):
        self.cfg = NatConfig(max_flows=64)
        self.runtime = DpdkRuntime(port_count=2)
        self.app = DpdkNatApp(VigNat(self.cfg), self.runtime)

    def test_full_conversation_through_wire_format(self):
        """Client -> NAT -> server -> NAT -> client, as raw frames."""
        client_syn = make_tcp_packet("10.0.0.5", "93.184.216.34", 43210, 80, device=0)
        self.runtime.inject(0, Packet.from_bytes(client_syn.to_bytes(), device=0), 0)
        self.app.iteration(now_us=10)
        (out_port, _ts, translated) = self.runtime.collect()[0]
        assert out_port == 1
        wire = translated.to_bytes()
        seen_by_server = Packet.from_bytes(wire, device=1)
        assert seen_by_server.ipv4.src_ip == self.cfg.external_ip
        assert seen_by_server.ipv4.header_checksum_valid()
        assert seen_by_server.l4_checksum_valid()

        server_reply = make_tcp_packet(
            "93.184.216.34",
            self.cfg.external_ip,
            80,
            seen_by_server.l4.src_port,
            device=1,
        )
        self.runtime.inject(1, Packet.from_bytes(server_reply.to_bytes(), device=1), 20)
        self.app.iteration(now_us=30)
        (back_port, _ts, back) = self.runtime.collect()[0]
        assert back_port == 0
        assert back.ipv4.dst_ip == ip_to_int("10.0.0.5")
        assert back.l4.dst_port == 43210
        assert back.l4_checksum_valid()

    def test_no_mbuf_leaks_across_mixed_traffic(self):
        """Drops must free their buffers (the leak Vigor caught)."""
        for i in range(10):
            self.runtime.inject(0, make_udp_packet("10.0.0.1", "8.8.8.8", 1000 + i, 53, device=0), i)
        # Unsolicited external traffic: all dropped by the NAT.
        for i in range(10):
            self.runtime.inject(1, make_udp_packet("8.8.8.8", self.cfg.external_ip, 53, 60_000 + i, device=1), i)
        self.app.iteration(now_us=100)
        assert self.runtime.pool.in_flight == 0

    def test_sustained_traffic_with_expiry(self):
        now = 0
        for round_no in range(5):
            now += self.cfg.expiration_time // 2
            for i in range(32):
                self.runtime.inject(
                    0,
                    make_udp_packet("10.0.0.9", "8.8.8.8", 2000 + i, 53, device=0),
                    now,
                )
            self.app.iteration(now_us=now)
        assert self.app.nat.flow_count() == 32
        assert self.runtime.pool.in_flight == 0


class TestVerifyThenRun:
    """The paper's story: the code that verifies is the code that runs."""

    def test_verified_logic_is_the_deployed_logic(self):
        import inspect

        from repro.nat import DetNat, VigBridge, VigFirewall, VigLimiter
        from repro.nat.concrete import LibvigNf
        from repro.verif import nf_env_cgnat
        from repro.verif.proofs import PROOFS

        deployed = {
            "nat": VigNat,
            "firewall": VigFirewall,
            "bridge": VigBridge,
            "limiter": VigLimiter,
        }
        # Every deployed class runs the one turn, and the turn runs the
        # class's LOOP...
        for cls in deployed.values():
            assert cls.process is LibvigNf.process
            assert cls.process_burst is LibvigNf.process_burst
        for turn in (LibvigNf.process, LibvigNf.process_burst, DetNat.process,
                     DetNat.process_burst):
            assert "LOOP" in turn.__code__.co_names
        # ...and each NF's proof explores that very function object.
        for name, proof in PROOFS.items():
            explored = inspect.getclosurevars(proof().body).nonlocals.get("loop")
            if name == "discard":
                # The §3 worked example: a transcription of Fig. 1 over
                # a ring model, with no deployed loop to be identical to.
                assert explored is None
            else:
                assert explored is deployed[name].LOOP, name
        # The CGNAT's proof builds its body inside verify_cgnat, from
        # the name its module binds.
        assert nf_env_cgnat.det_nat_loop_iteration is DetNat.LOOP
        assert (
            "det_nat_loop_iteration"
            in nf_env_cgnat.verify_cgnat.__code__.co_names
        )

    def test_verify_then_forward(self):
        from repro.eval.verification_stats import collect

        stats = collect()
        assert stats.verified
        nat = VigNat(NatConfig(max_flows=16))
        packet = make_udp_packet("10.0.0.5", "8.8.8.8", 4000, 53, device=0)
        assert nat.process(packet, 1_000)
