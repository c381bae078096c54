"""Burst entry points: same translations as the single-packet path,
amortized expiry, and the monotonic clock clamp (crash-freedom)."""

import pytest

from repro.nat.bridge import BridgeConfig, VigBridge
from repro.nat.config import NatConfig
from repro.nat.fastpath import FastPathNat
from repro.nat.firewall import VigFirewall
from repro.nat.limiter import LimiterConfig, VigLimiter
from repro.nat.netfilter import NetfilterNat
from repro.nat.noop import NoopForwarder
from repro.nat.unverified import UnverifiedNat
from repro.nat.vignat import VigNat
from repro.packets.builder import make_udp_packet

CFG = NatConfig(max_flows=64)


def outbound(sport):
    return make_udp_packet("10.0.0.5", "8.8.8.8", sport, 53, device=0)


def inbound(dport):
    return make_udp_packet("8.8.8.8", CFG.external_ip, 53, dport, device=1)


def mixed_traffic():
    packets = [outbound(4000 + i) for i in range(6)]
    packets.append(make_udp_packet("10.0.0.5", "8.8.8.8", 4000, 53, device=7))
    return packets


def render(outputs):
    return [(p.device, p.to_bytes()) for p in outputs]


NF_FACTORIES = [
    ("noop", lambda: NoopForwarder(0, 1)),
    ("unverified", lambda: UnverifiedNat(NatConfig(max_flows=64))),
    ("verified", lambda: VigNat(NatConfig(max_flows=64))),
    ("netfilter", lambda: NetfilterNat(NatConfig(max_flows=64))),
]


class TestBurstMatchesSinglePacketPath:
    @pytest.mark.parametrize("name,factory", NF_FACTORIES, ids=[n for n, _ in NF_FACTORIES])
    def test_same_outputs_as_process(self, name, factory):
        burst_nf, single_nf = factory(), factory()
        packets = mixed_traffic()
        burst_out = burst_nf.process_burst([p.clone() for p in packets], 1_000)
        single_out = [single_nf.process(p.clone(), 1_000) for p in packets]
        assert len(burst_out) == len(packets)
        for got, want in zip(burst_out, single_out):
            assert render(got) == render(want)

    @pytest.mark.parametrize("name,factory", NF_FACTORIES, ids=[n for n, _ in NF_FACTORIES])
    def test_burst_counters_surface(self, name, factory):
        nf = factory()
        nf.process_burst([outbound(4000), outbound(4001)], 1_000)
        counters = nf.op_counters()
        assert counters["bursts"] == 1
        assert counters["burst_packets"] == 2

    def test_empty_burst(self):
        nat = VigNat(NatConfig(max_flows=64))
        assert nat.process_burst([], 1_000) == []

    def test_reply_translation_in_burst(self):
        nat = VigNat(NatConfig(max_flows=64))
        [out] = nat.process_burst([outbound(4000)], 1_000)[0]
        assert out.device == 1
        [back] = nat.process_burst([inbound(out.l4.src_port)], 2_000)[0]
        assert back.device == 0
        assert back.ipv4.dst_ip == 0x0A000005  # 10.0.0.5
        assert back.l4.dst_port == 4000


class TestAmortizedExpiry:
    def test_vignat_scans_once_per_burst(self):
        nat = VigNat(NatConfig(max_flows=64))
        nat.process_burst([outbound(4000 + i) for i in range(5)], 1_000)
        assert nat.op_counters()["expiry_scans_amortized"] == 4

    def test_vignat_single_packet_path_still_scans_every_packet(self):
        nat = VigNat(NatConfig(max_flows=64, expiration_time=100))
        nat.process(outbound(4000), 1_000)
        nat.process(outbound(4001), 10_000)  # expires the first flow
        assert nat.op_counters()["expired"] == 1
        assert nat.op_counters()["expiry_scans_amortized"] == 0

    def test_expiry_still_runs_between_bursts(self):
        cfg = NatConfig(max_flows=64, expiration_time=100)
        nat = VigNat(cfg)
        nat.process_burst([outbound(4000)], 1_000)
        assert nat.flow_count() == 1
        nat.process_burst([outbound(4001)], 10_000)
        assert nat.op_counters()["expired"] == 1  # first flow aged out

    def test_unverified_and_netfilter_amortize(self):
        for factory in (
            lambda: UnverifiedNat(NatConfig(max_flows=64)),
            lambda: NetfilterNat(NatConfig(max_flows=64)),
        ):
            nf = factory()
            nf.process_burst([outbound(4000 + i) for i in range(4)], 1_000)
            assert nf.op_counters()["expiry_scans_amortized"] == 3


def source(host, sport=4000):
    """One frame per distinct source: a new NAT flow, firewall session,
    limiter budget and (by its MAC) bridge station."""
    packet = make_udp_packet(f"10.0.0.{host}", "8.8.8.8", sport, 53, device=0)
    packet.eth.src = bytes((2, 0, 0, 0, 9, host))
    return packet


def check_regressing_clock_forwards_instead_of_raising(make):
    nf = make()
    assert nf.process(source(1), 100_000)  # chain newest = 100000
    outputs = nf.process(source(2), 50)  # clock ran backwards
    assert len(outputs) == 1  # forwarded, not crashed
    assert nf.op_counters()["clock_clamped"] == 1


def check_regressing_clock_in_burst(make):
    nf = make()
    nf.process_burst([source(1)], 100_000)
    results = nf.process_burst([source(2), source(3)], 99_000)
    assert all(len(out) == 1 for out in results)
    assert nf.op_counters()["clock_clamped"] == 1


def check_rejuvenation_with_stale_clock(make):
    nf = make()
    nf.process(source(1), 100_000)
    nf.process(source(2), 120_000)
    # The older entry again with a stale clock: refresh it, don't crash.
    outputs = nf.process(source(1), 90_000)
    assert len(outputs) == 1


def check_clock_resumes_after_clamp(make):
    nf = make()
    nf.process(source(1), 100_000)
    nf.process(source(2), 50)
    assert nf.process(source(3), 200_000)
    assert nf.op_counters()["clock_clamped"] == 1
    # The clamp held the clock at 100_000; it is now 200_000, so an
    # entry stamped there dies one lifetime later, not before.
    rows = nf.checkpoint_state()[getattr(nf, "inner", nf).ROWS]
    assert [row[1] for row in rows] == [100_000, 100_000, 200_000]


class TestClockRegression:
    """Regression: a backwards timestamp must not crash the verified NAT.

    Before the clamp, a packet timestamped earlier than the chain's
    newest entry made ``DoubleChain``'s time check raise
    ``TimeRegression`` from inside ``process()`` — the verified NAT
    crashing on its data path, against the P2 crash-freedom claim.
    """

    @staticmethod
    def make():
        return VigNat(NatConfig(max_flows=64))

    def test_regressing_clock_forwards_instead_of_raising(self):
        check_regressing_clock_forwards_instead_of_raising(self.make)

    def test_regressing_clock_in_burst(self):
        check_regressing_clock_in_burst(self.make)

    def test_rejuvenation_with_stale_clock(self):
        check_rejuvenation_with_stale_clock(self.make)

    def test_clock_resumes_after_clamp(self):
        check_clock_resumes_after_clamp(self.make)


#: Every other way a chain-keeping NF is deployed: the three NFs that
#: had no clamp of their own, and each hook provider behind the fast
#: path (the bridge publishes no hooks, so it cannot be wrapped).
OTHER_CLOCKED = {
    "firewall": lambda: VigFirewall(NatConfig(max_flows=64)),
    "limiter": lambda: VigLimiter(LimiterConfig(capacity=64)),
    "bridge": lambda: VigBridge(BridgeConfig(capacity=64)),
    "nat-fastpath": lambda: FastPathNat(VigNat(NatConfig(max_flows=64))),
    "firewall-fastpath": lambda: FastPathNat(VigFirewall(NatConfig(max_flows=64))),
    "limiter-fastpath": lambda: FastPathNat(VigLimiter(LimiterConfig(capacity=64))),
}


@pytest.mark.parametrize("make", OTHER_CLOCKED.values(), ids=OTHER_CLOCKED.keys())
class TestClockRegressionEveryLibvigNf:
    """The clamp belongs to the shared turn (``LibvigNf``): before it
    did, each of these raised ``TimeRegression`` out of ``process`` and
    ``process_burst`` on the first backwards timestamp."""

    def test_regressing_clock_forwards_instead_of_raising(self, make):
        check_regressing_clock_forwards_instead_of_raising(make)

    def test_regressing_clock_in_burst(self, make):
        check_regressing_clock_in_burst(make)

    def test_rejuvenation_with_stale_clock(self, make):
        check_rejuvenation_with_stale_clock(make)

    def test_clock_resumes_after_clamp(self, make):
        check_clock_resumes_after_clamp(make)
