"""The microflow fast path: cache behavior, counters, invalidation.

The byte-identity property itself lives in
``test_fastpath_differential.py``; this file covers the cache machinery
— learn/hit/miss accounting, actions that live exactly as long as
their flow (a stranger's birth costs nothing, the flow's own expiry
drops them; ``test_flow_lifetime.py`` holds the churn and slot-reuse
cases), rejuvenation keeping flows alive, the eviction cap,
fall-through for ineligible traffic, and the RFC 768 zero-UDP-checksum
regression on both paths.
"""

import pytest

from repro.nat.config import NatConfig
from repro.nat.fastpath import FastPathNat
from repro.nat.netfilter import NetfilterNat
from repro.nat.noop import NoopForwarder
from repro.nat.unverified import UnverifiedNat
from repro.nat.vignat import VigNat
from repro.net.dpdk import build_nf
from repro.packets.builder import make_tcp_packet, make_udp_packet
from repro.packets.headers import PROTO_ICMP, Packet

CFG = NatConfig(max_flows=64)


def outbound(sport, *, payload=b""):
    return make_udp_packet("10.0.0.5", "8.8.8.8", sport, 53, device=0, payload=payload)


def inbound(dport):
    return make_udp_packet("8.8.8.8", CFG.external_ip, 53, dport, device=1)


def render(outputs):
    return [(p.device, p.wire_bytes()) for p in outputs]


def wire_burst(nf, packets, now):
    """The packets' frames as wire-backed packets through
    ``process_burst`` — what every runtime hands the NF — with each
    output rendered as (wire bytes, device)."""
    fresh = [Packet.from_bytes(p.wire_bytes(), p.device) for p in packets]
    assert all(p.image is not None for p in fresh)
    return [
        [(out.wire_bytes(), out.device) for out in outs]
        for outs in nf.process_burst(fresh, now)
    ]


class TestConstruction:
    def test_wrapper_reports_inner_name(self):
        fast = FastPathNat(VigNat(CFG))
        assert fast.name == "verified-nat"
        assert fast.inner.name == "verified-nat"

    def test_nf_without_hooks_is_rejected(self):
        with pytest.raises(TypeError):
            FastPathNat(NetfilterNat(NatConfig(max_flows=64)))

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            FastPathNat(VigNat(CFG), max_entries=0)


class TestCacheAccounting:
    def test_first_packet_misses_then_hits(self):
        fast = FastPathNat(VigNat(NatConfig(max_flows=64)))
        fast.process(outbound(4000), 1_000)
        counters = fast.op_counters()
        assert counters["fastpath_misses"] == 1
        assert counters["fastpath_hits"] == 0
        assert counters["fastpath_learns"] == 1
        assert fast.cache_size == 1

        # Same flow, still live: a pure cache hit.
        fast.process(outbound(4000), 1_001)
        counters = fast.op_counters()
        assert counters["fastpath_hits"] == 1
        assert counters["fastpath_misses"] == 1
        assert fast.hit_rate() == pytest.approx(0.5)

    def test_hit_output_matches_slow_path(self):
        slow = VigNat(NatConfig(max_flows=64))
        fast = FastPathNat(VigNat(NatConfig(max_flows=64)))
        for t, packet in [(1_000, outbound(4000)), (1_001, outbound(4000)),
                          (1_002, outbound(4000, payload=b"hello"))]:
            assert render(fast.process(packet.clone(), t)) == render(
                slow.process(packet.clone(), t)
            )
        assert fast.op_counters()["fastpath_hits"] == 2

    def test_a_hit_leaves_the_callers_packet_alone(self):
        # A parsed frame whose stored lengths disagree with its structure
        # (serializing it would rewrite both): the hit emits the twin's
        # bytes, and the caller's headers read as they did before.
        slow = VigNat(NatConfig(max_flows=64))
        fast = FastPathNat(VigNat(NatConfig(max_flows=64)))
        packet = outbound(4000, payload=b"stale")
        for nf in (slow, fast):
            nf.process(packet.clone(), 1_000)
        stale = packet.clone()
        stale.ipv4.total_length -= 3
        stale.l4.length += 5
        before = (stale.eth.copy(), stale.ipv4.copy(), stale.l4.copy())
        (got,) = fast.process_burst([stale], 1_001)
        assert fast.op_counters()["fastpath_hits"] == 1
        assert (stale.eth, stale.ipv4, stale.l4) == before
        assert render(got) == render(slow.process(stale.clone(), 1_001))

    def test_drops_are_never_cached(self):
        fast = FastPathNat(VigNat(NatConfig(max_flows=64)))
        # Unsolicited inbound: the slow path drops it; nothing to learn.
        assert fast.process(inbound(9000), 1_000) == []
        assert fast.cache_size == 0
        assert fast.op_counters()["fastpath_learns"] == 0

    def test_eviction_cap(self):
        fast = FastPathNat(VigNat(NatConfig(max_flows=64)), max_entries=4)
        for i in range(8):
            fast.process(outbound(4000 + i), 1_000 + i)
        assert fast.cache_size <= 4
        assert fast.op_counters()["fastpath_evictions"] >= 1


class TestGenerationInvalidation:
    """An action lives exactly as long as its own flow. (The class
    name predates that rule; it stays so the test ids do.)"""

    def test_new_flow_leaves_cached_actions_alone(self):
        fast = FastPathNat(VigNat(NatConfig(max_flows=64)))
        fast.process(outbound(4000), 1_000)
        assert fast.cache_size == 1
        # A different flow's creation…
        fast.process(outbound(4001), 1_001)
        # …costs the first flow nothing: its next packet is a hit.
        fast.process(outbound(4000), 1_002)
        counters = fast.op_counters()
        assert counters["fastpath_invalidations"] == 0
        assert counters["fastpath_learns"] == 2
        assert counters["fastpath_hits"] == 1
        assert fast.cache_size == 2

    def test_expiry_invalidates_cached_actions(self):
        cfg = NatConfig(max_flows=64, expiration_time=10)
        fast = FastPathNat(VigNat(cfg))
        fast.process(outbound(4000), 0)
        fast.process(outbound(4000), 1)
        hits_before = fast.op_counters()["fastpath_hits"]
        assert hits_before == 1
        # Jump past expiry: the flow is gone, the cached action must not fire.
        outputs = fast.process(outbound(4000), 1_000)
        counters = fast.op_counters()
        assert counters["fastpath_invalidations"] == 1
        assert counters["fastpath_hits"] == hits_before
        assert len(outputs) == 1  # slow path re-translates (new flow)

    def test_rejuvenation_keeps_flow_alive_under_fastpath_traffic(self):
        cfg = NatConfig(max_flows=64, expiration_time=10)
        fast = FastPathNat(VigNat(cfg))
        out = fast.process(outbound(4000), 0)[0]
        external_port = out.l4.src_port
        # Sustained fast-path hits, each within the expiry window of the
        # previous; without per-hit rejuvenation the flow would expire
        # at t=11 and the reply below would be dropped.
        for t in range(5, 41, 5):
            fast.process(outbound(4000), t)
        assert fast.op_counters()["fastpath_hits"] >= 7
        replies = fast.process(inbound(external_port), 44)
        assert len(replies) == 1
        assert replies[0].ipv4.dst_ip == 0x0A000005  # 10.0.0.5

    def test_expiry_without_traffic_still_expires(self):
        cfg = NatConfig(max_flows=64, expiration_time=10)
        fast = FastPathNat(VigNat(cfg))
        out = fast.process(outbound(4000), 0)[0]
        external_port = out.l4.src_port
        # No rejuvenating traffic: the flow dies, the reply is dropped.
        assert fast.process(inbound(external_port), 1_000) == []


class TestFallThrough:
    def test_fragments_never_cached(self):
        fast = FastPathNat(VigNat(NatConfig(max_flows=64)))
        frag = outbound(4000)
        frag.ipv4.fragment_offset = 8
        assert frag.flow_key() is None
        fast.process(frag, 1_000)
        fast.process(frag.clone(), 1_001)
        counters = fast.op_counters()
        assert counters["fastpath_misses"] == 2
        assert fast.cache_size == 0

    def test_icmp_never_cached(self):
        fast = FastPathNat(VigNat(NatConfig(max_flows=64)))
        icmp = outbound(4000)
        icmp.ipv4.protocol = PROTO_ICMP
        icmp.l4 = None
        assert icmp.flow_key() is None
        fast.process(icmp, 1_000)
        assert fast.cache_size == 0

    def test_non_ipv4_never_cached(self):
        fast = FastPathNat(VigNat(NatConfig(max_flows=64)))
        arp = outbound(4000)
        arp.eth.ethertype = 0x0806
        assert arp.flow_key() is None


class TestZeroUdpChecksumRegression:
    """RFC 768: checksum 0 means "no checksum" and must stay 0."""

    def _zero_checksum_outbound(self):
        packet = outbound(4000)
        packet.l4.checksum = 0
        return packet

    def test_stays_zero_on_slow_and_fast_path(self):
        fast = FastPathNat(VigNat(NatConfig(max_flows=64)))
        first = fast.process(self._zero_checksum_outbound(), 1_000)[0]
        assert first.l4.checksum == 0  # slow path (the learn miss)
        second = fast.process(self._zero_checksum_outbound(), 1_001)[0]
        assert second.l4.checksum == 0  # fast path (the cache hit)
        assert fast.op_counters()["fastpath_hits"] == 1
        assert first.wire_bytes() == second.wire_bytes()

    def test_raw_path_preserves_zero_checksum(self):
        fast = FastPathNat(VigNat(NatConfig(max_flows=64)))
        packet = self._zero_checksum_outbound()
        ((first,),) = wire_burst(fast, [packet], 1_000)
        ((hit,),) = wire_burst(fast, [packet], 1_001)
        assert fast.op_counters()["fastpath_compiled_hits"] == 1
        assert first == hit
        out = Packet.from_bytes(hit[0], hit[1])
        assert out.l4.checksum == 0

    def test_unverified_nat_zero_checksum_bug_is_reproduced(self):
        """The unverified NAT's inbound path corrupts disabled checksums;
        the fast path must reproduce that bug, not fix it."""
        cfg = NatConfig(max_flows=64)
        slow = UnverifiedNat(cfg)
        fast = FastPathNat(UnverifiedNat(cfg))
        for t in (1_000, 1_001):
            packet = self._zero_checksum_outbound()
            slow_out = slow.process(packet.clone(), t)
            fast_out = fast.process(packet.clone(), t)
            assert render(fast_out) == render(slow_out)
        external_port = fast.process(self._zero_checksum_outbound(), 1_002)[0].l4.src_port
        for t in (1_003, 1_004):
            reply = inbound(external_port)
            reply.l4.checksum = 0
            slow_out = slow.process(reply.clone(), t)
            fast_out = fast.process(reply.clone(), t)
            assert render(fast_out) == render(slow_out)


class TestRawBurstPath:
    """Frames in, frames out: wire-backed packets through ``process_burst``
    against materialised ones."""

    def test_raw_matches_object_path(self):
        object_nf = FastPathNat(VigNat(NatConfig(max_flows=64)))
        raw_nf = FastPathNat(VigNat(NatConfig(max_flows=64)))
        packets = [outbound(4000), outbound(4001), outbound(4000)]
        for t in (1_000, 1_001):
            object_out = object_nf.process_burst([p.clone() for p in packets], t)
            want = [[(p.wire_bytes(), p.device) for p in outs] for outs in object_out]
            assert wire_burst(raw_nf, packets, t) == want
        assert raw_nf.op_counters()["fastpath_compiled_hits"] >= 1


class TestRestoredStateRelearns:
    """A fresh NF restored from a checkpoint (a promoted standby) knows
    every live flow, but its cache starts empty: an action is cached
    only once its closure has reproduced the slow path's bytes on a real
    frame, so each flow direction's first packet takes the slow path and
    learns, as any new flow's does, and every later one hits."""

    @pytest.mark.parametrize("nf_class", [VigNat, UnverifiedNat])
    def test_each_direction_learns_once(self, nf_class):
        cfg = NatConfig(max_flows=64)
        primary = nf_class(cfg)
        ext_of = {}
        for i in range(4):
            (out,) = primary.process(outbound(4_000 + i), 1_000)
            ext_of[4_000 + i] = out.l4.src_port
        standby = nf_class(cfg)
        standby.restore_state(primary.checkpoint_state())
        fast = FastPathNat(standby)
        assert fast.cache_size == 0
        for t in (2_000, 2_001):
            for sport, port in ext_of.items():
                for packet in (outbound(sport), inbound(port)):
                    assert wire_burst(fast, [packet], t) == [
                        [(p.wire_bytes(), p.device) for p in primary.process(packet, t)]
                    ]
        counters = fast.op_counters()
        assert counters["fastpath_misses"] == counters["fastpath_learns"] == 8
        assert counters["fastpath_hits"] == counters["fastpath_compiled_hits"] == 8
        assert counters["fastpath_compile_rejected"] == 0
        assert fast.flow_count() == 4


class TestNoopFastPath:
    """The no-op forwarder has nothing to skip, so it is no provider:
    ``fastpath="compiled"`` runs it as it is."""

    def test_noop_hits_and_forwards(self):
        def noop(_config):
            return NoopForwarder(0, 1)

        fast, slow = build_nf(noop, None, "compiled"), build_nf(noop, None, "off")
        assert type(fast) is NoopForwarder
        packet = make_tcp_packet("10.0.0.1", "198.18.0.1", 99, 80, device=0)
        first = fast.process(packet.clone(), 1_000)
        second = fast.process(packet.clone(), 1_001)
        assert render(first) == render(second) == render(slow.process(packet, 1_000))
        assert first[0].device == 1
        assert fast.op_counters() == {"forwarded": 2, "bursts": 0, "burst_packets": 0}

    def test_wrapping_it_directly_is_refused(self):
        with pytest.raises(TypeError):
            FastPathNat(NoopForwarder(0, 1))
