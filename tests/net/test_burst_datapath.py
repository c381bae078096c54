"""The burst-mode data path: rx_burst loss, pool accounting, burst loop."""

from collections import Counter

import pytest

from repro.chain import ChainSpec, ChainStage, launch_chain
from repro.nat.config import NatConfig
from repro.nat.noop import NoopForwarder
from repro.nat.vignat import VigNat
from repro.net.app import RuntimeSpec, launch
from repro.net.costmodel import CostModel
from repro.net.dpdk import DpdkRuntime
from repro.net.mbuf import Mbuf, MbufPool
from repro.net.moongen import ConstantRateFlows
from repro.net.nic import Port
from repro.net.testbed import Rfc2544Testbed
from repro.packets.builder import make_udp_packet


def pkt(sport=1000, device=0):
    return make_udp_packet("10.0.0.1", "10.0.0.2", sport, 80, device=device)


class TestRxBurstPoolExhaustion:
    """Regression: rx_burst must not lose packets when the pool runs dry.

    The old code popped the packet from the ring first and only then
    tried to allocate a buffer — on pool exhaustion the packet was gone
    and miscounted as an RX drop, even though it could stay queued.
    """

    def test_packet_stays_queued_when_pool_exhausted(self):
        rt = DpdkRuntime(pool_size=2)
        for i in range(3):
            rt.inject(0, pkt(i), i)
        burst = rt.rx_burst(0, 32)
        assert len(burst) == 2
        # The third packet was NOT popped and lost: it is still on the ring.
        assert rt.port(0).rx_pending() == 1
        assert rt.port(0).counters.rx_nombuf == 1
        assert rt.port(0).counters.rx_dropped == 0

    def test_queued_packet_recoverable_after_free(self):
        rt = DpdkRuntime(pool_size=1)
        rt.inject(0, pkt(1), 0)
        rt.inject(0, pkt(2), 1)
        first = rt.rx_burst(0, 32)
        assert len(first) == 1 and first[0].packet.l4.src_port == 1
        assert rt.rx_burst(0, 32) == []  # pool dry: nothing lost
        rt.free(first[0])
        second = rt.rx_burst(0, 32)
        assert len(second) == 1 and second[0].packet.l4.src_port == 2

    def test_empty_ring_does_not_count_nombuf(self):
        rt = DpdkRuntime(pool_size=1)
        rt.inject(0, pkt(), 0)
        held = rt.rx_burst(0, 32)
        assert len(held) == 1
        assert rt.rx_burst(0, 32) == []  # pool dry but ring also empty
        assert rt.port(0).counters.rx_nombuf == 0


class TestMbufPoolAccounting:
    """Regression: freeing a foreign mbuf must not credit past capacity."""

    def test_foreign_free_into_full_pool_raises(self):
        pool = MbufPool(2)
        foreign = Mbuf(packet=pkt())
        with pytest.raises(RuntimeError, match="over-credit"):
            pool.free(foreign)
        assert pool.in_flight == 0  # accounting intact, not negative

    def test_foreign_free_after_round_trip_raises(self):
        pool = MbufPool(1)
        mbuf = pool.alloc(pkt())
        pool.free(mbuf)
        with pytest.raises(RuntimeError, match="over-credit"):
            pool.free(Mbuf(packet=pkt()))

    def test_foreign_free_with_outstanding_buffers_is_undetectable_but_bounded(self):
        # With a buffer genuinely outstanding the pool cannot tell a
        # foreign mbuf from its own — but in_flight can never go below 0.
        pool = MbufPool(1)
        ours = pool.alloc(pkt())
        pool.free(Mbuf(packet=pkt()))  # wrongly credited, pool now "full"
        with pytest.raises(RuntimeError, match="over-credit"):
            pool.free(ours)

    def test_high_water_mark(self):
        pool = MbufPool(4)
        a = pool.alloc(pkt())
        b = pool.alloc(pkt())
        pool.free(a)
        c = pool.alloc(pkt())
        assert pool.high_water == 2
        pool.free(b)
        pool.free(c)
        assert pool.high_water == 2
        assert pool.in_flight == 0


class TestTxBurstChecksTheWholeBurst:
    """Regression: ``tx_burst`` transmitted a burst frame by frame and
    found a bad buffer only when it reached it — after the good frames
    before it had left and been credited. A bad burst now raises with
    the port and the pool untouched."""

    def setup_method(self):
        self.rt = DpdkRuntime(pool_size=4)
        for i in range(2):
            self.rt.inject(0, pkt(i), i)
        self.good, self.other = self.rt.rx_burst(0, 32)

    def assert_untouched(self):
        assert self.rt.port(1).counters.tx_packets == 0
        assert self.rt.collect() == []
        assert self.rt.pool.in_flight == 2
        # The good buffers are still live: they free normally.
        self.rt.tx_burst(1, [self.good, self.other], 5)
        assert self.rt.port(1).counters.tx_packets == 2
        assert self.rt.pool.in_flight == 0

    def test_an_already_freed_buffer(self):
        freed = self.rt.pool.alloc(pkt(9))
        self.rt.free(freed)
        with pytest.raises(RuntimeError, match="double free of mbuf"):
            self.rt.tx_burst(1, [self.good, freed], 5)
        self.assert_untouched()

    def test_the_same_buffer_twice(self):
        with pytest.raises(RuntimeError, match="double free of mbuf"):
            self.rt.tx_burst(1, [self.good, self.good], 5)
        self.assert_untouched()

    def test_another_pools_buffer(self):
        foreign = MbufPool(4).alloc(pkt(9))
        with pytest.raises(RuntimeError, match="another pool's mbuf"):
            self.rt.tx_burst(1, [self.good, foreign], 5)
        self.assert_untouched()


class ShortNoop(NoopForwarder):
    """Returns one output list too few: the burst's last frame vanishes."""

    def process_burst(self, packets, now):
        return super().process_burst(packets, now)[:-1]


class TestOutputListCount:
    """Regression: an NF returning fewer output lists than packets lost
    the tail frames silently (``zip`` truncates) and leaked their mbufs."""

    def test_main_loop_frees_the_burst_and_names_the_nf(self):
        rt = DpdkRuntime()
        for i in range(4):
            rt.inject(0, pkt(i), i)
        with pytest.raises(ValueError, match="ShortNoop.process_burst returned 3"):
            rt.main_loop_burst(ShortNoop(), 10)
        assert rt.pool.in_flight == 0
        assert rt.collect() == []

    def test_a_chain_stage_frees_the_burst_and_names_the_nf(self):
        stage = ChainStage("short", lambda _cfg: ShortNoop())
        chain = launch_chain(ChainSpec(stages=(stage,)))
        for i in range(4):
            chain.inject(0, pkt(i), i)
        with pytest.raises(ValueError, match="ShortNoop.process_burst returned 3"):
            chain.main_loop_burst(10)
        assert chain.runtime.pool.in_flight == 0
        assert chain.collect() == []


class TestBurstShape:
    """A turn moves each burst through the substrate in one call per
    boundary: no per-frame ring pop, allocation, transmit or free."""

    def test_one_call_per_burst(self, monkeypatch):
        calls = Counter()

        def counted(cls, name):
            original = getattr(cls, name)

            def wrapper(*args, **kwargs):
                calls[name, args[1] if name == "rx_burst" else None] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(cls, name, wrapper)

        for cls, name in [
            (DpdkRuntime, "rx_burst"),
            (DpdkRuntime, "tx_burst"),
            (MbufPool, "alloc"),
            (MbufPool, "free"),
            (Port, "rx_pop"),
            (Port, "transmit"),
        ]:
            counted(cls, name)
        runtime = launch(
            RuntimeSpec(nf_factory=lambda _cfg: NoopForwarder(), execution="inline")
        )
        for i in range(32):
            assert runtime.inject(0, pkt(i), i)
        assert runtime.main_loop_burst(100, 32) == 32
        assert len(runtime.collect()) == 32
        assert calls == {("rx_burst", 0): 1, ("tx_burst", None): 1}


class TestMainLoopBurst:
    def test_roundtrip_through_vignat(self):
        rt = DpdkRuntime(port_count=2)
        nat = VigNat(NatConfig())
        for i in range(10):
            rt.inject(0, pkt(1000 + i), 0)
        processed = rt.main_loop_burst(nat, now_us=1_000, burst_size=4)
        assert processed == 10
        out = rt.collect()
        assert len(out) == 10
        assert all(port == 1 for port, _ts, _p in out)
        assert rt.pool.in_flight == 0  # every buffer freed or transmitted
        # 10 packets in bursts of 4 → ceil(10/4) = 3 bursts.
        assert nat.op_counters()["bursts"] == 3
        assert nat.op_counters()["expiry_scans_amortized"] == 7

    def test_drops_free_buffers_and_are_counted(self):
        rt = DpdkRuntime(port_count=2)
        nat = VigNat(NatConfig())
        # Unsolicited external packets: the NAT drops all of them.
        for i in range(5):
            rt.inject(1, pkt(2000 + i, device=1), 0)
        rt.main_loop_burst(nat, now_us=1_000, burst_size=8)
        assert rt.collect() == []
        assert rt.pool.in_flight == 0
        causes = rt.drop_causes()
        assert causes["nf_drop"] == 5
        assert causes["pool_high_water"] == 5


class TestTestbedBurstMode:
    def _run(self, burst_size, rate_pps=200_000.0, packets=2_000):
        testbed = Rfc2544Testbed(cost_model=CostModel(), burst_size=burst_size)
        nf = VigNat(NatConfig(expiration_time=60_000_000))
        workload = ConstantRateFlows(500, rate_pps, packets, burst=burst_size)
        return testbed.run(nf, workload.events())

    def test_burst_one_matches_legacy_path(self):
        single = self._run(1)
        assert single.avg_burst_fill == 1.0
        assert single.forwarded == 2_000

    def test_bursts_fill_and_cut_per_packet_cost(self):
        single = self._run(1)
        burst = self._run(8)
        assert burst.forwarded == single.forwarded  # nothing lost either way
        assert burst.avg_burst_fill > 4.0
        assert burst.per_packet_busy_ns < single.per_packet_busy_ns

    def test_burst_mode_raises_saturation_throughput(self):
        # Overload both configurations: burst mode serves strictly more.
        single = self._run(1, rate_pps=5_000_000.0, packets=4_000)
        burst = self._run(16, rate_pps=5_000_000.0, packets=4_000)
        assert single.queue_dropped > 0
        assert burst.forwarded > single.forwarded
