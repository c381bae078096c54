"""RSS hashing and NAT-aware steering (the sharded data path's front end).

Covers the steering invariants the sharded runtime relies on:
determinism, fragment/ICMP hash consistency (a fragmented datagram or an
ICMP error must land on the same queue as its flow's other non-L4
traffic), and the NAT twist — external-side traffic is steered by
external-port *ownership*, including ICMP errors whose port only exists
inside the RFC 792 embedded quote.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nat.config import NatConfig
from repro.nat.icmp_ext import IcmpAwareNat
from repro.net.app import RuntimeSpec, launch
from repro.net.rss import (
    MORE_FRAGMENTS,
    NatSteering,
    is_fragment,
    rss_hash_packet,
    rss_queue,
)
from repro.net.nic import RssNic
from repro.packets.addresses import ip_to_int
from repro.packets.builder import make_tcp_packet, make_udp_packet
from repro.packets.headers import (
    EthernetHeader,
    Ipv4Header,
    PROTO_ICMP,
    PROTO_UDP,
    Packet,
    UdpHeader,
)
from repro.packets.icmp import ICMP_DEST_UNREACHABLE, IcmpMessage

CFG = NatConfig(max_flows=64, expiration_time=60_000_000, start_port=1000)

HOST = "10.0.0.5"
REMOTE = "8.8.8.8"


def udp(src, dst, sport, dport, device=0) -> Packet:
    return make_udp_packet(src, dst, sport, dport, device=device)


def icmp_packet(src, dst, message: IcmpMessage, device: int) -> Packet:
    payload = message.pack(fill_checksum=True)
    ipv4 = Ipv4Header(
        protocol=PROTO_ICMP,
        src_ip=ip_to_int(src) if isinstance(src, str) else src,
        dst_ip=ip_to_int(dst) if isinstance(dst, str) else dst,
        total_length=20 + len(payload),
    )
    return Packet(eth=EthernetHeader(), ipv4=ipv4, payload=payload, device=device)


def error_about(translated) -> IcmpMessage:
    """ICMP Port Unreachable quoting the translated outbound packet."""
    inner_ip = Ipv4Header(
        protocol=PROTO_UDP,
        src_ip=translated.ipv4.src_ip,
        dst_ip=translated.ipv4.dst_ip,
        total_length=28,
    )
    body = inner_ip.pack(fill_checksum=True)
    body += translated.l4.src_port.to_bytes(2, "big")
    body += translated.l4.dst_port.to_bytes(2, "big")
    body += b"\x00\x1c\x00\x00"  # UDP length/checksum stub
    return IcmpMessage(icmp_type=ICMP_DEST_UNREACHABLE, code=3, body=body)


class TestRssHash:
    def test_deterministic_per_flow(self):
        a = udp(HOST, REMOTE, 4000, 53)
        b = udp(HOST, REMOTE, 4000, 53)
        assert rss_hash_packet(a) == rss_hash_packet(b)

    def test_distinct_flows_spread_over_queues(self):
        queues = {
            rss_queue(udp(f"10.0.{i // 256}.{i % 256}", REMOTE, 4000 + i, 53), 4)
            for i in range(256)
        }
        assert queues == {0, 1, 2, 3}

    def test_first_fragment_hashes_like_continuation(self):
        # First fragment: MF set, ports present. Continuation: offset > 0,
        # no L4 header. Both must hash alike — to the dst-IP-only hash —
        # or a fragmented datagram is split across workers.
        first = udp(HOST, REMOTE, 4000, 53)
        first.ipv4.flags = MORE_FRAGMENTS
        continuation = Packet(
            eth=EthernetHeader(),
            ipv4=Ipv4Header(
                protocol=PROTO_UDP,
                src_ip=ip_to_int(HOST),
                dst_ip=ip_to_int(REMOTE),
                fragment_offset=185,
            ),
            payload=b"\x00" * 32,
        )
        assert is_fragment(first) and is_fragment(continuation)
        assert rss_hash_packet(first) == rss_hash_packet(continuation)

    def test_fragment_hash_ignores_ports_and_src(self):
        frag_a = udp(HOST, REMOTE, 4000, 53)
        frag_a.ipv4.flags = MORE_FRAGMENTS
        frag_b = udp("10.0.0.77", REMOTE, 9999, 123)
        frag_b.ipv4.flags = MORE_FRAGMENTS
        assert rss_hash_packet(frag_a) == rss_hash_packet(frag_b)

    def test_icmp_hashes_like_fragments_to_same_destination(self):
        message = IcmpMessage(icmp_type=8, code=0, body=b"ping")
        echo = icmp_packet(HOST, REMOTE, message, device=0)
        frag = udp(HOST, REMOTE, 4000, 53)
        frag.ipv4.flags = MORE_FRAGMENTS
        assert rss_hash_packet(echo) == rss_hash_packet(frag)

    def test_unfragmented_uses_the_full_tuple(self):
        base = udp(HOST, REMOTE, 4000, 53)
        other_port = udp(HOST, REMOTE, 4001, 53)
        assert rss_hash_packet(base) != rss_hash_packet(other_port)

    def test_non_ip_frame_lands_on_queue_zero(self):
        arp = Packet(eth=EthernetHeader(ethertype=0x0806))
        assert rss_hash_packet(arp) == 0
        assert rss_queue(arp, 8) == 0

    def test_queue_count_must_be_positive(self):
        with pytest.raises(ValueError):
            rss_queue(udp(HOST, REMOTE, 1, 2), 0)


class TestRssNic:
    def test_counts_per_queue(self):
        nic = RssNic(4)
        for i in range(100):
            nic.select(udp(f"10.1.0.{i}", REMOTE, 4000 + i, 53))
        assert sum(nic.queue_packets) == 100

    def test_bad_steer_function_rejected(self):
        nic = RssNic(2, steer=lambda packet: 7)
        with pytest.raises(ValueError):
            nic.select(udp(HOST, REMOTE, 1, 2))

    def test_queue_count_validated(self):
        with pytest.raises(ValueError):
            RssNic(0)


class TestNatSteering:
    def test_requires_shards(self):
        with pytest.raises(ValueError):
            NatSteering(())

    def test_rejects_mismatched_layouts(self):
        a, b = CFG.partition(2)
        import dataclasses

        skewed = dataclasses.replace(b, external_ip=ip_to_int("198.51.100.9"))
        with pytest.raises(ValueError):
            NatSteering((a, skewed))

    def test_rejects_overlapping_port_ranges(self):
        a, _ = CFG.partition(2)
        with pytest.raises(ValueError):
            NatSteering((a, a))

    def test_owner_of_port_covers_the_partition(self):
        shards = CFG.partition(4)
        steering = NatSteering(shards)
        for worker, shard in enumerate(shards):
            for port in shard.port_range():
                assert steering.owner_of_port(port) == worker
        assert steering.owner_of_port(CFG.start_port - 1) is None
        assert steering.owner_of_port(CFG.end_port + 1) is None

    def test_external_reply_steered_by_port_ownership(self):
        shards = CFG.partition(4)
        steering = NatSteering(shards)
        for worker, shard in enumerate(shards):
            reply = udp(REMOTE, CFG.external_ip, 53, shard.start_port, device=1)
            assert steering.worker_for(reply) == worker

    def test_internal_traffic_never_port_steered(self):
        # A packet on the internal device whose dst port happens to fall
        # in the external range must use the hash, not port ownership.
        steering = NatSteering(CFG.partition(4))
        packet = udp(HOST, REMOTE, 4000, CFG.start_port, device=0)
        assert steering.worker_for(packet) == rss_queue(packet, 4)

    def test_external_fragment_falls_back_to_hash(self):
        steering = NatSteering(CFG.partition(4))
        frag = udp(REMOTE, CFG.external_ip, 53, CFG.start_port, device=1)
        frag.ipv4.flags = MORE_FRAGMENTS
        assert steering.worker_for(frag) == rss_queue(frag, 4)

    def test_unowned_external_port_falls_back_to_hash(self):
        steering = NatSteering(CFG.partition(4))
        stray = udp(REMOTE, CFG.external_ip, 53, CFG.end_port + 100, device=1)
        assert steering.worker_for(stray) == rss_queue(stray, 4)


class TestSteeringReadsTheImage:
    """A wire-backed packet is steered off its image: same worker as
    its materialised twin, and still wire-backed afterwards."""

    def _cases(self):
        shards = CFG.partition(4)
        yield udp(HOST, REMOTE, 4000, 53, device=0)
        yield udp(HOST, REMOTE, 4000, CFG.start_port, device=0)
        yield udp(REMOTE, CFG.external_ip, 53, CFG.end_port + 100, device=1)
        for shard in shards:
            yield udp(REMOTE, CFG.external_ip, 53, shard.start_port, device=1)
        for sport in range(5000, 5032):
            yield udp(HOST, REMOTE, sport, 53, device=0)

    def test_wire_backed_steers_like_its_materialised_twin(self):
        steering = NatSteering(CFG.partition(4))
        for twin in self._cases():
            packet = Packet.from_bytes(twin.wire_bytes(), twin.device)
            assert packet.image is not None
            assert steering.worker_for(packet) == steering.worker_for(twin)
            assert rss_hash_packet(packet) == rss_hash_packet(twin)
            assert packet.image is not None

    def test_wire_backed_fragment_takes_the_header_path(self):
        steering = NatSteering(CFG.partition(4))
        frag = udp(REMOTE, CFG.external_ip, 53, CFG.start_port, device=1)
        frag.ipv4.flags = MORE_FRAGMENTS
        packet = Packet.from_bytes(frag.wire_bytes(), 1)
        assert packet.image is not None and packet.flow_key() is None
        assert steering.worker_for(packet) == rss_queue(frag, 4)


class TestIcmpErrorSteering:
    """Regression: ICMP errors about a translated flow must reach the
    flow's worker. The error's only link to the flow is the external
    port inside the RFC 792 quote — the outer header has no ports at
    all, so a plain (even symmetric) RSS hash steers it arbitrarily."""

    def _open_flow_on_each_worker(self, runtime):
        """Send one UDP flow per worker; return [(worker, translated)]."""
        opened = []
        seen = set()
        sport = 4000
        while len(seen) < runtime.workers:
            packet = udp(HOST, REMOTE, sport, 53, device=0)
            worker = runtime.worker_for(packet)
            sport += 1
            if worker in seen:
                continue
            seen.add(worker)
            assert runtime.inject(0, packet, timestamp=1_000)
            runtime.main_loop_burst(now_us=1_000)
            (_, _, translated) = runtime.collect()[-1]
            opened.append((worker, translated))
        return opened

    def test_error_steered_to_owning_worker(self):
        runtime = launch(
            RuntimeSpec(nf_factory=IcmpAwareNat, config=CFG, workers=4)
        )
        for worker, translated in self._open_flow_on_each_worker(runtime):
            error = icmp_packet(
                REMOTE, CFG.external_ip, error_about(translated), device=1
            )
            assert runtime.steering.owner_of_port(translated.l4.src_port) == worker
            assert runtime.worker_for(error) == worker

    def test_error_delivered_end_to_end(self):
        runtime = launch(
            RuntimeSpec(nf_factory=IcmpAwareNat, config=CFG, workers=4)
        )
        for worker, translated in self._open_flow_on_each_worker(runtime):
            error = icmp_packet(
                REMOTE, CFG.external_ip, error_about(translated), device=1
            )
            assert runtime.inject(1, error, timestamp=2_000)
            runtime.main_loop_burst(now_us=2_000)
            (_port, _ts, delivered) = runtime.collect()[-1]
            assert delivered.device == CFG.internal_device
            assert delivered.ipv4.dst_ip == ip_to_int(HOST)

    def test_error_with_foreign_quote_falls_back_to_hash(self):
        # A quote whose source is not our external IP is not about one of
        # our translations — no port to recover, hash fallback applies.
        steering = NatSteering(CFG.partition(4))
        foreign = udp("192.0.2.99", REMOTE, CFG.start_port, 53)
        error = icmp_packet(
            REMOTE, CFG.external_ip, error_about(foreign), device=1
        )
        assert steering.worker_for(error) == rss_queue(error, 4)

    def test_truncated_icmp_payload_does_not_crash(self):
        steering = NatSteering(CFG.partition(4))
        broken = icmp_packet(REMOTE, CFG.external_ip, IcmpMessage(
            icmp_type=ICMP_DEST_UNREACHABLE, code=3, body=b"\x45"
        ), device=1)
        assert 0 <= steering.worker_for(broken) < 4


def general_rule(steering: NatSteering, packet: Packet) -> int:
    """The multi-branch steering rule as the module docstring states it:
    an external-side packet naming an owned external port — the
    destination port, or the source port an ICMP error quotes — goes to
    that port's owner; everything else to its RSS queue."""
    key = packet.flow_key()
    if key is not None:
        port = key[5] if key[0] == CFG.external_device else None
    else:
        port = steering._external_port_of(packet)
    owner = steering.owner_of_port(port) if port is not None else None
    if owner is not None:
        return owner
    return rss_queue(packet, steering.worker_count)


_ports = st.one_of(
    st.integers(CFG.start_port - 8, CFG.end_port + 8), st.integers(0, 65535)
)
_ips = st.one_of(st.just(CFG.external_ip), st.integers(0, 2**32 - 1))


@st.composite
def _l4_frames(draw):
    make = draw(st.sampled_from([make_udp_packet, make_tcp_packet]))
    return make(
        draw(_ips),
        draw(_ips),
        draw(_ports),
        draw(_ports),
        device=draw(st.sampled_from([0, 1])),
    )


@st.composite
def _fragments(draw):
    packet = draw(_l4_frames())
    if draw(st.booleans()):
        packet.ipv4.flags = MORE_FRAGMENTS
    else:
        packet.ipv4.fragment_offset = draw(st.integers(1, 8191))
    return packet


@st.composite
def _icmp_errors(draw):
    quoted = make_udp_packet(draw(_ips), REMOTE, draw(_ports), 53)
    return icmp_packet(
        REMOTE,
        CFG.external_ip,
        error_about(quoted),
        device=draw(st.sampled_from([0, 1])),
    )


@st.composite
def _non_ipv4(draw):
    return Packet(
        eth=EthernetHeader(ethertype=draw(st.sampled_from([0x0806, 0x86DD]))),
        payload=draw(st.binary(max_size=64)),
        device=draw(st.sampled_from([0, 1])),
    )


@st.composite
def _frames(draw):
    packet = draw(st.one_of(_l4_frames(), _fragments(), _icmp_errors(), _non_ipv4()))
    if draw(st.booleans()):  # the wire-backed twin, as a runtime sees it
        packet = Packet.from_bytes(packet.to_bytes(), packet.device)
    return packet


class TestOneQueueSteering:
    """One shard is one queue: ``worker_for`` answers 0 without reading
    the packet, which is exactly what the general rule gives."""

    @settings(max_examples=300, deadline=None)
    @given(frames=st.lists(_frames(), min_size=1, max_size=8))
    def test_one_shard_agrees_with_the_general_rule(self, frames):
        one = NatSteering(CFG.partition(1))
        nic = RssNic(1, steer=one.worker_for)
        wide = [NatSteering(CFG.partition(n)) for n in (2, 3)]
        for packet in frames:
            image = packet.image
            assert nic.select(packet) == 0
            assert packet.image is image  # steering read nothing
            assert general_rule(one, packet) == 0
            # The reference is the rule ``worker_for`` runs on many shards.
            for steering in wide:
                assert general_rule(steering, packet) == steering.worker_for(packet)
        assert nic.queue_packets == [len(frames)]
