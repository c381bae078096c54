"""Stateless CGNAT: the bijection, sharding, and the packet path.

The hypothesis properties here are the executable twin of the concolic
proof in ``repro.verif.nf_env_cgnat``: bijectivity of the subscriber/
port map over arbitrary domain shapes, shard-disjointness under
``partition``, and the differential that DetNat's return-path routing
agrees with the RSS steering's external-port ownership.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.nat.cgnat import CgnatConfig, DetNat
from repro.nat.config import NatConfig
from repro.net.rss import NatSteering
from repro.packets.builder import make_udp_packet


def small_config(subscribers=8, ports_each=16, start_port=2_000):
    return CgnatConfig(
        start_port=start_port,
        max_flows=subscribers * ports_each,
        subscriber_count=subscribers,
    )


def domain_shapes():
    """Arbitrary valid (subscribers, ports-per-subscriber, start) shapes."""
    return st.tuples(
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=1, max_value=32_000),
    ).filter(lambda t: t[2] + t[0] * t[1] - 1 <= 0xFFFF)


class TestBijection:
    @settings(max_examples=200, deadline=None)
    @given(shape=domain_shapes(), data=st.data())
    def test_forward_return_round_trip(self, shape, data):
        subscribers, ports_each, start = shape
        cfg = CgnatConfig(
            start_port=start,
            max_flows=subscribers * ports_each,
            subscriber_count=subscribers,
        )
        s = data.draw(st.integers(0, subscribers - 1))
        o = data.draw(st.integers(0, ports_each - 1))
        src_ip = cfg.internal_base + s
        src_port = cfg.internal_port_base + o
        ext = cfg.map_forward(src_ip, src_port)
        assert ext is not None
        assert cfg.domain_start_port <= ext <= cfg.domain_end_port
        assert cfg.map_return(ext) == (src_ip, src_port)

    @settings(max_examples=200, deadline=None)
    @given(shape=domain_shapes(), data=st.data())
    def test_distinct_endpoints_get_distinct_ports(self, shape, data):
        subscribers, ports_each, start = shape
        cfg = CgnatConfig(
            start_port=start,
            max_flows=subscribers * ports_each,
            subscriber_count=subscribers,
        )
        endpoint = st.tuples(
            st.integers(0, subscribers - 1), st.integers(0, ports_each - 1)
        )
        a = data.draw(endpoint)
        b = data.draw(endpoint)
        port_of = lambda e: cfg.map_forward(  # noqa: E731
            cfg.internal_base + e[0], cfg.internal_port_base + e[1]
        )
        if a == b:
            assert port_of(a) == port_of(b)
        else:
            assert port_of(a) != port_of(b)

    def test_exhaustive_bijection_on_a_small_domain(self):
        # Totality both ways: every internal endpoint hits exactly one
        # domain port and every domain port names exactly one endpoint.
        cfg = small_config(subscribers=4, ports_each=8)
        forward = {
            cfg.map_forward(cfg.internal_base + s, cfg.internal_port_base + o)
            for s in range(4)
            for o in range(8)
        }
        assert forward == set(range(cfg.domain_start_port, cfg.domain_end_port + 1))
        for port in range(cfg.domain_start_port, cfg.domain_end_port + 1):
            src_ip, src_port = cfg.map_return(port)
            assert cfg.map_forward(src_ip, src_port) == port

    def test_out_of_domain_maps_to_none(self):
        cfg = small_config()
        assert cfg.map_forward(cfg.internal_base - 1, cfg.internal_port_base) is None
        assert (
            cfg.map_forward(
                cfg.internal_base + cfg.subscriber_count, cfg.internal_port_base
            )
            is None
        )
        assert cfg.map_forward(cfg.internal_base, cfg.internal_port_base - 1) is None
        assert (
            cfg.map_forward(
                cfg.internal_base,
                cfg.internal_port_base + cfg.ports_per_subscriber,
            )
            is None
        )
        assert cfg.map_return(cfg.domain_start_port - 1) is None
        assert cfg.map_return(cfg.domain_end_port + 1) is None


class TestSharding:
    @settings(max_examples=100, deadline=None)
    @given(
        shape=domain_shapes().filter(lambda t: t[0] * t[1] >= 4),
        workers=st.integers(min_value=1, max_value=8),
    )
    def test_shards_are_disjoint_and_share_the_domain(self, shape, workers):
        subscribers, ports_each, start = shape
        cfg = CgnatConfig(
            start_port=start,
            max_flows=subscribers * ports_each,
            subscriber_count=subscribers,
        )
        if workers > cfg.max_flows:
            return
        shards = cfg.partition(workers)
        covered = []
        for shard in shards:
            # partition() preserves the subclass and the mapping fields:
            # every worker computes the same global bijection.
            assert isinstance(shard, CgnatConfig)
            assert shard.domain_start_port == cfg.domain_start_port
            assert shard.domain_size == cfg.domain_size
            assert shard.internal_base == cfg.internal_base
            assert shard.subscriber_count == cfg.subscriber_count
            covered.extend(shard.port_range())
        # Disjoint and exhaustive over the parent's (= domain's) range.
        assert covered == list(cfg.port_range())

    def test_return_routing_agrees_with_rss_ownership(self):
        """The satellite-4 differential: for every domain port, the
        worker RSS steers the reply to inverts it to the same endpoint
        whose forward mapping produced it — port ownership and the
        bijection never disagree."""
        cfg = small_config(subscribers=8, ports_each=16)
        shards = cfg.partition(4)
        steering = NatSteering(shards)
        for port in range(cfg.domain_start_port, cfg.domain_end_port + 1):
            worker = steering.owner_of_port(port)
            assert worker is not None
            owner = shards[worker]
            endpoint = owner.map_return(port)
            assert endpoint is not None
            assert owner.map_forward(*endpoint) == port
            # Statelessness: every other worker computes the same inverse.
            assert all(s.map_return(port) == endpoint for s in shards)

    def test_reply_packet_through_owner_worker_reaches_originator(self):
        cfg = small_config(subscribers=4, ports_each=8)
        shards = cfg.partition(2)
        steering = NatSteering(shards)
        workers = [DetNat(shard) for shard in shards]
        for s in range(cfg.subscriber_count):
            for o in range(cfg.ports_per_subscriber):
                src_ip = cfg.internal_base + s
                src_port = cfg.internal_port_base + o
                out = make_udp_packet(
                    src_ip, "8.8.8.8", src_port, 53, device=cfg.internal_device
                )
                # Forward through any worker (the map is global) ...
                (translated,) = workers[0].process(out, 0)
                ext_port = translated.l4.src_port
                # ... and reply through the worker RSS says owns the port.
                owner = steering.owner_of_port(ext_port)
                assert owner is not None
                reply = make_udp_packet(
                    "8.8.8.8",
                    cfg.external_ip,
                    53,
                    ext_port,
                    device=cfg.external_device,
                )
                (delivered,) = workers[owner].process(reply, 0)
                assert delivered.device == cfg.internal_device
                assert delivered.ipv4.dst_ip == src_ip
                assert delivered.l4.dst_port == src_port


class TestDetNatPacketPath:
    def test_forward_translation(self):
        cfg = small_config()
        nat = DetNat(cfg)
        packet = make_udp_packet(
            cfg.internal_base + 3,
            "8.8.8.8",
            cfg.internal_port_base + 5,
            53,
            device=cfg.internal_device,
        )
        (out,) = nat.process(packet, 0)
        assert out.device == cfg.external_device
        assert out.ipv4.src_ip == cfg.external_ip
        assert out.l4.src_port == cfg.block_start(3) + 5
        # Destination untouched.
        assert out.ipv4.dst_ip == packet.ipv4.dst_ip
        assert out.l4.dst_port == 53

    def test_out_of_pool_source_dropped_and_counted(self):
        cfg = small_config()
        nat = DetNat(cfg)
        stranger = make_udp_packet(
            "10.0.0.1", "8.8.8.8", 5_000, 53, device=cfg.internal_device
        )
        assert nat.process(stranger, 0) == []
        over_window = make_udp_packet(
            cfg.internal_base,
            "8.8.8.8",
            cfg.internal_port_base + cfg.ports_per_subscriber,
            53,
            device=cfg.internal_device,
        )
        assert nat.process(over_window, 0) == []
        counters = nat.op_counters()
        assert counters["dropped"] == 2
        assert counters["dropped_out_of_domain"] == 2

    def test_unknown_external_port_dropped(self):
        cfg = small_config()
        nat = DetNat(cfg)
        reply = make_udp_packet(
            "8.8.8.8",
            cfg.external_ip,
            53,
            cfg.domain_end_port + 1,
            device=cfg.external_device,
        )
        assert nat.process(reply, 0) == []
        assert nat.op_counters()["dropped_out_of_domain"] == 1

    def test_statelessness_surface(self):
        nat = DetNat(small_config())
        assert nat.flow_count() == 0
        assert nat.checkpoint_state() == {}
        nat.restore_state({})  # a standby restore is config-only
        with pytest.raises(ValueError):
            nat.restore_state({"flows": [1]})

    def test_requires_cgnat_config(self):
        with pytest.raises(TypeError, match="CgnatConfig"):
            DetNat(NatConfig(max_flows=64, start_port=1_000))

    def test_burst_matches_per_packet(self):
        cfg = small_config()
        packets = [
            make_udp_packet(
                cfg.internal_base + s,
                "8.8.8.8",
                cfg.internal_port_base + s,
                53,
                device=cfg.internal_device,
            )
            for s in range(4)
        ]
        def rendered(results):
            return [[p.wire_bytes() for p in outs] for outs in results]

        one_by_one = [DetNat(cfg).process(p, 0) for p in packets]
        bursted = DetNat(cfg).process_burst(packets, 0)
        assert rendered(bursted) == rendered(one_by_one)

    def test_domain_validation(self):
        with pytest.raises(ValueError, match="divide"):
            CgnatConfig(start_port=1_000, max_flows=10, subscriber_count=3)
        with pytest.raises(ValueError, match="escapes the mapping domain"):
            CgnatConfig(
                start_port=1_000,
                max_flows=64,
                subscriber_count=4,
                domain_start_port=2_000,
                domain_size=64,
            )
