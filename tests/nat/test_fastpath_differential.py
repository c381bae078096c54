"""Differential harness: the microflow cache must be invisible on the wire.

Every test runs the same traffic twice — once through the plain slow
path, once with :class:`~repro.nat.fastpath.FastPathNat` in front — and
asserts the emitted frames are **byte-identical** (same bytes, same
port, same timestamp, same order). Hypothesis drives mixed workloads:
both directions, repeated flows (cache hits), disabled UDP checksums,
TCP and UDP, fragments, and time gaps that cross the expiry threshold.

Coverage spans all three data paths the cache plugs into: the per-packet
and burst NF entry points (materialised packets, wire-backed packets
and raw buffers, apart and interleaved on one cache), the DPDK-style
runtime main loop, and the RSS-sharded multi-worker runtime
(``fastpath="compiled"``). One property looks inside instead: after
every step the cache holds actions of live flows only — the state
invariant that lets a hit fire without any validity check.
"""

from hypothesis import given, settings, strategies as st

from repro.nat.config import NatConfig
from repro.nat.fastpath import FastPathNat
from repro.nat.noop import NoopForwarder
from repro.nat.unverified import UnverifiedNat
from repro.nat.vignat import VigNat
from repro.net.app import RuntimeSpec, launch
from repro.net.dpdk import DpdkRuntime
from repro.packets.builder import make_tcp_packet, make_udp_packet
from repro.packets.headers import Packet
from tests.nat.cache_invariant import assert_cache_within_live_flows

CFG_KW = dict(max_flows=8, expiration_time=2_000_000, start_port=1000)

INTERNAL_IPS = ["10.0.0.1", "10.0.0.2", "10.0.0.3"]
REMOTE_IP = "8.8.8.8"


def _steps():
    return st.lists(
        st.tuples(
            st.sampled_from(["in", "out"]),
            st.integers(0, 5),  # flow selector
            st.sampled_from(["udp", "udp0", "tcp"]),  # udp0 = checksum disabled
            st.integers(0, 2_500_000),  # time increment (µs), can cross expiry
        ),
        min_size=1,
        max_size=40,
    )


def _packet(direction, selector, kind, config):
    if direction == "out":
        src = INTERNAL_IPS[selector % len(INTERNAL_IPS)]
        sport = 1024 + selector
        if kind == "tcp":
            return make_tcp_packet(src, REMOTE_IP, sport, 80, device=0)
        packet = make_udp_packet(src, REMOTE_IP, sport, 53, device=0)
    else:
        dport = config.start_port + selector  # probes the allocation range
        if kind == "tcp":
            return make_tcp_packet(REMOTE_IP, config.external_ip, 80, dport, device=1)
        packet = make_udp_packet(REMOTE_IP, config.external_ip, 53, dport, device=1)
    if kind == "udp0":
        packet.l4.checksum = 0
    return packet


def _render(outputs):
    return [(p.device, p.wire_bytes()) for p in outputs]


class TestNfEntryPoints:
    @settings(max_examples=80, deadline=None)
    @given(steps=_steps())
    def test_vignat_process_identical(self, steps):
        slow = VigNat(NatConfig(**CFG_KW))
        fast = FastPathNat(VigNat(NatConfig(**CFG_KW)))
        now = 0
        for direction, selector, kind, dt in steps:
            now += dt
            packet = _packet(direction, selector, kind, slow.config)
            assert _render(fast.process(packet.clone(), now)) == _render(
                slow.process(packet.clone(), now)
            )
        assert slow.flow_count() == fast.flow_count()

    @settings(max_examples=60, deadline=None)
    @given(steps=_steps(), burst=st.sampled_from((1, 4, 32)))
    def test_vignat_burst_identical(self, steps, burst):
        slow = VigNat(NatConfig(**CFG_KW))
        fast = FastPathNat(VigNat(NatConfig(**CFG_KW)))
        now = 0
        packets, times = [], []
        for direction, selector, kind, dt in steps:
            now += dt
            packets.append(_packet(direction, selector, kind, slow.config))
            times.append(now)
        for i in range(0, len(packets), burst):
            chunk = packets[i : i + burst]
            at = times[i]
            slow_out = slow.process_burst([p.clone() for p in chunk], at)
            fast_out = fast.process_burst([p.clone() for p in chunk], at)
            assert [_render(o) for o in fast_out] == [_render(o) for o in slow_out]

    @settings(max_examples=40, deadline=None)
    @given(steps=_steps())
    def test_unverified_process_identical(self, steps):
        """Bugs included: the hand-rolled inbound checksum patch must
        survive memoization byte-for-byte."""
        slow = UnverifiedNat(NatConfig(**CFG_KW))
        fast = FastPathNat(UnverifiedNat(NatConfig(**CFG_KW)))
        now = 0
        for direction, selector, kind, dt in steps:
            now += dt
            packet = _packet(direction, selector, kind, slow.config)
            assert _render(fast.process(packet.clone(), now)) == _render(
                slow.process(packet.clone(), now)
            )

    @settings(max_examples=40, deadline=None)
    @given(steps=_steps())
    def test_vignat_raw_burst_identical(self, steps):
        """The raw byte path — compiled closures on hits, parse and
        slow path on everything else — against the object slow path."""
        slow = VigNat(NatConfig(**CFG_KW))
        fast = FastPathNat(VigNat(NatConfig(**CFG_KW)))
        now = 0
        for direction, selector, kind, dt in steps:
            now += dt
            packet = _packet(direction, selector, kind, slow.config)
            slow_out = slow.process(packet.clone(), now)
            raw_out = fast.process_raw_burst(
                [(bytearray(packet.wire_bytes()), packet.device)], now
            )[0]
            assert raw_out == [(p.wire_bytes(), p.device) for p in slow_out]

    @settings(max_examples=30, deadline=None)
    @given(steps=_steps(), burst=st.sampled_from((1, 4, 32)))
    def test_vignat_raw_burst_compiled_batches_identical(self, steps, burst):
        """Whole bursts through the compiled batch path: same-flow runs
        are partitioned and batch-applied, yet the wire output must
        match the per-packet object slow path exactly."""
        slow = VigNat(NatConfig(**CFG_KW))
        fast = FastPathNat(VigNat(NatConfig(**CFG_KW)))
        now = 0
        packets, times = [], []
        for direction, selector, kind, dt in steps:
            now += dt
            packets.append(_packet(direction, selector, kind, slow.config))
            times.append(now)
        for i in range(0, len(packets), burst):
            chunk = packets[i : i + burst]
            at = times[i]
            slow_out = slow.process_burst([p.clone() for p in chunk], at)
            raw_out = fast.process_raw_burst(
                [(bytearray(p.wire_bytes()), p.device) for p in chunk], at
            )
            assert [list(outs) for outs in raw_out] == [
                [(p.wire_bytes(), p.device) for p in outs] for outs in slow_out
            ]

    @settings(max_examples=40, deadline=None)
    @given(
        steps=_steps(),
        entries=st.lists(
            st.sampled_from(("object", "wire", "raw")), min_size=40, max_size=40
        ),
    )
    def test_vignat_mixed_entry_points_identical(self, steps, entries):
        """Materialised packets, wire-backed packets and raw buffers
        interleaved over one cache: an action learned by any of them
        serves the others (object replay or closure, whichever the
        packet's state calls for), and the wire never shows which path
        a packet took."""
        slow = VigNat(NatConfig(**CFG_KW))
        fast = FastPathNat(VigNat(NatConfig(**CFG_KW)))
        now = 0
        for (direction, selector, kind, dt), entry in zip(steps, entries):
            now += dt
            packet = _packet(direction, selector, kind, slow.config)
            want = [
                (p.wire_bytes(), p.device)
                for p in slow.process(packet.clone(), now)
            ]
            if entry == "raw":
                got = fast.process_raw_burst(
                    [(bytearray(packet.wire_bytes()), packet.device)], now
                )[0]
            else:
                offered = packet.clone()
                if entry == "wire":
                    offered = Packet.from_bytes(packet.wire_bytes(), packet.device)
                    assert offered.image is not None
                (outs,) = fast.process_burst([offered], now)
                got = [(p.wire_bytes(), p.device) for p in outs]
            assert got == want
        assert fast.compiled_size <= fast.cache_size

    @settings(max_examples=60, deadline=None)
    @given(
        steps=_steps(),
        nf_class=st.sampled_from((VigNat, UnverifiedNat)),
        wire_backed=st.lists(st.booleans(), min_size=40, max_size=40),
    )
    def test_cache_holds_live_flows_only_after_every_step(
        self, steps, nf_class, wire_backed
    ):
        """``cache ⊆ live flows`` between any two packets: whatever
        mix of births, expiries (the time steps cross the threshold),
        slot reuse (8 slots, 6 flows a side) and replies to dead ports
        the strategy produces, every cached key's flow is live and the
        action's token is that flow's — on both NATs, for materialised
        and wire-backed packets alike."""
        slow = nf_class(NatConfig(**CFG_KW))
        fast = FastPathNat(nf_class(NatConfig(**CFG_KW)))
        probes = {}
        now = 0
        for (direction, selector, kind, dt), wire in zip(steps, wire_backed):
            now += dt
            packet = _packet(direction, selector, kind, slow.config)
            offered = packet.clone()
            if wire:
                offered = Packet.from_bytes(packet.wire_bytes(), packet.device)
            assert _render(fast.process(offered, now)) == _render(
                slow.process(packet.clone(), now)
            )
            assert_cache_within_live_flows(fast, probes)
        assert fast.flow_count() == slow.flow_count()
        counters = fast.op_counters()
        ended = counters["expired"] + counters.get("evicted", 0)
        assert counters["fastpath_invalidations"] <= 2 * ended


class TestRuntimeMainLoop:
    def _drive(self, nf, steps):
        runtime = DpdkRuntime(port_count=2)
        config = NatConfig(**CFG_KW)
        now = 0
        collected = []
        for direction, selector, kind, dt in steps:
            now += dt
            packet = _packet(direction, selector, kind, config)
            port = 0 if packet.device == 0 else 1
            assert runtime.inject(port, packet, timestamp=now)
            runtime.main_loop_burst(nf, now_us=now)
            collected.extend(
                (port_id, ts, p.wire_bytes()) for port_id, ts, p in runtime.collect()
            )
        return collected

    @settings(max_examples=40, deadline=None)
    @given(steps=_steps())
    def test_main_loop_identical(self, steps):
        slow_frames = self._drive(VigNat(NatConfig(**CFG_KW)), steps)
        fast_frames = self._drive(FastPathNat(VigNat(NatConfig(**CFG_KW))), steps)
        assert fast_frames == slow_frames

    def test_noop_main_loop_identical(self):
        steps = [("out", i % 4, "udp", 1_000) for i in range(16)]
        slow_frames = self._drive(NoopForwarder(0, 1), steps)
        fast_frames = self._drive(FastPathNat(NoopForwarder(0, 1)), steps)
        assert fast_frames == slow_frames


class TestShardedRuntime:
    @settings(max_examples=25, deadline=None)
    @given(steps=_steps(), workers=st.sampled_from((1, 2, 4)))
    def test_sharded_identical(self, steps, workers):
        def drive(fastpath):
            runtime = launch(
                RuntimeSpec(
                    nf_factory=VigNat,
                    config=NatConfig(**CFG_KW),
                    workers=workers,
                    execution="threaded-deterministic",
                    fastpath=fastpath,
                )
            )
            now = 0
            collected = []
            for direction, selector, kind, dt in steps:
                now += dt
                packet = _packet(direction, selector, kind, runtime.config)
                port = 0 if packet.device == 0 else 1
                runtime.inject(port, packet, timestamp=now)
                runtime.main_loop_burst(now_us=now)
                collected.extend(
                    (port_id, ts, p.wire_bytes())
                    for port_id, ts, p in runtime.collect()
                )
            return collected, runtime

        slow_frames, _ = drive(fastpath="off")
        fast_frames, fast_runtime = drive(fastpath="compiled")
        assert fast_frames == slow_frames
        # The wrapper is in place and the counters surface per worker.
        aggregated = fast_runtime.op_counters()
        assert "fastpath_hits" in aggregated
        assert aggregated["fastpath_hits"] + aggregated["fastpath_misses"] > 0
