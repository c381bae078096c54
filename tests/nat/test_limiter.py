"""The verified rate limiter: concrete behaviour and its proof."""


from repro.nat.limiter import LimiterConfig, VigLimiter, limiter_loop_iteration
from repro.packets.builder import make_udp_packet
from repro.packets.headers import EthernetHeader, Packet

CFG = LimiterConfig(capacity=8, window=1_000_000, max_packets=3)


def ingress(src="10.0.0.5", now_unused=None):
    return make_udp_packet(src, "8.8.8.8", 4000, 53, device=0)


class TestBudgeting:
    def test_within_budget_forwarded(self):
        limiter = VigLimiter(CFG)
        for i in range(CFG.max_packets):
            out = limiter.process(ingress(), 1_000 + i)
            assert len(out) == 1
            assert out[0].device == CFG.egress_device

    def test_over_budget_dropped(self):
        limiter = VigLimiter(CFG)
        for i in range(CFG.max_packets):
            limiter.process(ingress(), 1_000 + i)
        assert limiter.process(ingress(), 2_000) == []
        assert limiter.budget_used(ingress().ipv4.src_ip) == CFG.max_packets

    def test_budgets_are_per_source(self):
        limiter = VigLimiter(CFG)
        for i in range(CFG.max_packets):
            limiter.process(ingress("10.0.0.5"), 1_000 + i)
        # A different source still has a full budget.
        assert limiter.process(ingress("10.0.0.6"), 2_000)
        assert limiter.tracked_sources() == 2

    def test_packet_not_modified(self):
        limiter = VigLimiter(CFG)
        original = ingress()
        out = limiter.process(original, 1_000)[0]
        assert out.ipv4.src_ip == original.ipv4.src_ip
        assert out.l4.src_port == original.l4.src_port


class TestFixedWindow:
    def test_window_expires_from_first_packet(self):
        """The window is fixed: traffic does NOT extend it."""
        limiter = VigLimiter(CFG)
        limiter.process(ingress(), 0)
        limiter.process(ingress(), CFG.window // 2)  # mid-window traffic
        # Just past the window opened at t=0: the budget resets even
        # though the source was active at window/2.
        late = CFG.window + 1
        assert limiter.process(ingress(), late)
        assert limiter.budget_used(ingress().ipv4.src_ip) == 1  # fresh window

    def test_blocked_source_recovers_next_window(self):
        limiter = VigLimiter(CFG)
        for i in range(CFG.max_packets + 2):
            limiter.process(ingress(), 100 + i)
        assert limiter.process(ingress(), 200) == []
        assert limiter.process(ingress(), 100 + CFG.window + 1)


class TestPassThroughAndEdges:
    def test_egress_direction_unlimited(self):
        limiter = VigLimiter(CFG)
        reply = make_udp_packet("8.8.8.8", "10.0.0.5", 53, 4000, device=1)
        for i in range(CFG.max_packets * 3):
            out = limiter.process(reply.clone(), 1_000 + i)
            assert len(out) == 1 and out[0].device == CFG.ingress_device
        assert limiter.tracked_sources() == 0  # no state for egress

    def test_non_ipv4_dropped(self):
        limiter = VigLimiter(CFG)
        arp = Packet(eth=EthernetHeader(ethertype=0x0806), device=0)
        assert limiter.process(arp, 1_000) == []

    def test_table_full_fails_closed(self):
        limiter = VigLimiter(CFG)
        for i in range(CFG.capacity):
            limiter.process(ingress(f"10.0.1.{i}"), 1_000)
        # A new source cannot open a budget: dropped, not waved through.
        assert limiter.process(ingress("10.0.2.9"), 1_001) == []

    def test_unknown_device_dropped(self):
        limiter = VigLimiter(CFG)
        packet = ingress()
        packet.device = 7
        assert limiter.process(packet, 1_000) == []


class TestLimiterVerification:
    def test_pipeline_verifies_limiter(self):
        from repro.verif.engine import ExhaustiveSymbolicEngine
        from repro.verif.nf_env_limiter import LimiterSemantics
        from repro.verif.proofs import limiter_proof
        from repro.verif.validator import Validator

        cfg = LimiterConfig()
        result = ExhaustiveSymbolicEngine().explore(limiter_proof(cfg).body)
        report = Validator(LimiterSemantics(cfg)).validate(result, "VigLimiter")
        assert report.verified, report.render()

    def test_unguarded_increment_fails_p2(self):
        """Dropping the budget guard makes count+1 a provable overflow."""
        from repro.nat.limiter import LimiterConfig as Cfg
        from repro.verif.engine import ExhaustiveSymbolicEngine
        from repro.verif.nf_env_limiter import (
            LimiterSemantics,
            SymbolicLimiterEnv,
        )
        from repro.verif.validator import Validator
        from repro.packets.headers import ETHERTYPE_IPV4

        cfg = Cfg()

        def body(ctx):
            env = SymbolicLimiterEnv(ctx, cfg)
            now = env.current_time()
            packet = env.receive()
            if packet is None:
                return
            if packet.ethertype != ETHERTYPE_IPV4:
                env.drop(packet)
                return
            if packet.device == cfg.ingress_device:
                index = env.budget_get(packet.src_ip)
                if index is not None:
                    count = env.counter_read(index)
                    # BUG: increments without the budget guard; at
                    # count == 2**32 - 1 this wraps.
                    env.counter_bump(index, count + 1)
                    env.forward(packet, device=cfg.egress_device)
                else:
                    env.drop(packet)
            else:
                env.drop(packet)

        result = ExhaustiveSymbolicEngine().explore(body)
        report = Validator(LimiterSemantics(cfg)).validate(result, "unguarded")
        assert not report.p2.proven
        assert any("arith-bounds" in f for f in report.p2.failures)

    def test_rejuvenating_mutant_fails_structurally(self):
        """Extending the window on traffic violates fixed-window spec."""
        from repro.nat.limiter import LimiterConfig as Cfg
        from repro.verif.engine import ExhaustiveSymbolicEngine
        from repro.verif.nf_env_limiter import (
            LimiterSemantics,
            SymbolicLimiterEnv,
        )
        from repro.verif.validator import Validator

        cfg = Cfg()

        class SlidingEnv(SymbolicLimiterEnv):
            def counter_bump(self, index, value):
                super().counter_bump(index, value)
                # BUG: sliding window — refresh the entry's timestamp.
                with self.call(
                    "dchain_rejuvenate_index", {"index": index, "time": 0}
                ):
                    pass

        def body(ctx):
            env = SlidingEnv(ctx, cfg)
            limiter_loop_iteration(env, cfg)

        result = ExhaustiveSymbolicEngine().explore(body)
        report = Validator(LimiterSemantics(cfg)).validate(result, "sliding")
        assert not report.p1.proven
        assert any("fixed-window" in f for f in report.p1.failures)
