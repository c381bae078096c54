"""Differential harness: the microflow cache must be invisible on the wire.

Every test runs the same traffic twice — once through the plain slow
path, once with :class:`~repro.nat.fastpath.FastPathNat` in front — and
asserts the emitted frames are **byte-identical** (same bytes, same
port, same timestamp, same order). Hypothesis drives mixed workloads:
both directions, repeated flows (cache hits), disabled UDP checksums,
TCP and UDP, fragments, and time gaps that cross the expiry threshold.

Coverage spans all three data paths the cache plugs into: the per-packet
and burst NF entry points (materialised and wire-backed packets, apart
and interleaved on one cache), the DPDK-style
runtime main loop, and the RSS-sharded multi-worker runtime
(``fastpath="compiled"``). One property looks inside instead: after
every step the cache holds actions of live flows only — the state
invariant that lets a hit fire without any validity check.
"""

from hypothesis import example, given, settings, strategies as st

from repro.nat.config import NatConfig
from repro.nat.fastpath import FastPathNat
from repro.nat.firewall import VigFirewall
from repro.nat.limiter import LimiterConfig, VigLimiter
from repro.nat.noop import NoopForwarder
from repro.nat.unverified import UnverifiedNat
from repro.nat.vignat import VigNat
from repro.net.app import RuntimeSpec, launch
from repro.net.dpdk import DpdkRuntime, build_nf
from repro.packets.builder import make_tcp_packet, make_udp_packet
from repro.packets.headers import Packet, ParseError
from tests.nat.cache_invariant import assert_cache_within_live_flows, flow_state
from tests.packets.mutations import NAMED_SHAPES, mutated_frames

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


def _wire_backed(packet):
    """The packet's frame as every runtime hands it to the NF."""
    offered = Packet.from_bytes(packet.wire_bytes(), packet.device)
    assert offered.image is not None
    return offered


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
        """Frames in, one at a time, as wire-backed packets — compiled
        closures on hits, the slow path on everything else — against
        the object slow path."""
        slow = VigNat(NatConfig(**CFG_KW))
        fast = FastPathNat(VigNat(NatConfig(**CFG_KW)))
        now = 0
        for direction, selector, kind, dt in steps:
            now += dt
            packet = _packet(direction, selector, kind, slow.config)
            slow_out = slow.process(packet.clone(), now)
            (fast_out,) = fast.process_burst([_wire_backed(packet)], now)
            assert _render(fast_out) == _render(slow_out)

    @settings(max_examples=30, deadline=None)
    @given(steps=_steps(), burst=st.sampled_from((1, 4, 32)))
    def test_vignat_raw_burst_compiled_batches_identical(self, steps, burst):
        """Whole bursts of wire-backed packets, same-flow runs included
        (six flows a side, bursts of up to 32): the wire output must
        match the object slow path exactly."""
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
            fast_out = fast.process_burst([_wire_backed(p) for p in chunk], at)
            assert [_render(o) for o in fast_out] == [_render(o) for o in slow_out]

    @settings(max_examples=40, deadline=None)
    @given(
        steps=_steps(),
        entries=st.lists(
            st.sampled_from(("object", "wire")), min_size=40, max_size=40
        ),
    )
    def test_vignat_mixed_entry_points_identical(self, steps, entries):
        """Materialised and wire-backed packets interleaved over one
        cache: an action learned by either serves the other (its closure
        on the image, or on the materialised packet's serialization),
        and the wire never shows which path a packet took."""
        slow = VigNat(NatConfig(**CFG_KW))
        fast = FastPathNat(VigNat(NatConfig(**CFG_KW)))
        now = 0
        for (direction, selector, kind, dt), entry in zip(steps, entries):
            now += dt
            packet = _packet(direction, selector, kind, slow.config)
            want = _render(slow.process(packet.clone(), now))
            offered = _wire_backed(packet) if entry == "wire" else packet.clone()
            (outs,) = fast.process_burst([offered], now)
            assert _render(outs) == want

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
            offered = _wire_backed(packet) if wire else packet.clone()
            assert _render(fast.process(offered, now)) == _render(
                slow.process(packet.clone(), now)
            )
            assert_cache_within_live_flows(fast, probes)
        assert fast.flow_count() == slow.flow_count()
        counters = fast.op_counters()
        ended = counters["expired"] + counters.get("evicted", 0)
        assert counters["fastpath_invalidations"] <= 2 * ended


# -- mutated frames of a flow whose closure has been earned --------------------
WARM_EXPIRY_US = 1_000
WARM_MUTATIONS = (
    "none",
    "padding",
    "total-length",
    "udp-length",
    "tcp-offset-byte",
    "zero-udp-checksum",
    "more-fragments",
    "truncate",
)
WARM_NFS = {
    "vignat": lambda: VigNat(NatConfig(max_flows=8, expiration_time=WARM_EXPIRY_US)),
    "unverified": lambda: UnverifiedNat(
        NatConfig(max_flows=8, expiration_time=WARM_EXPIRY_US)
    ),
    "firewall": lambda: VigFirewall(
        NatConfig(max_flows=8, expiration_time=WARM_EXPIRY_US)
    ),
    # A budget small enough that the run spends it: some of the frames
    # below are the one that passes last, or the first that drops.
    "limiter": lambda: VigLimiter(
        LimiterConfig(capacity=8, window=WARM_EXPIRY_US, max_packets=6)
    ),
}


def _warm_flow_packet(proto, payload=b"warm"):
    """A packet of the one (per protocol) flow the test warms."""
    if proto == "tcp":
        return make_tcp_packet(
            INTERNAL_IPS[0], REMOTE_IP, 1024, 80, payload=payload, device=0
        )
    return make_udp_packet(
        INTERNAL_IPS[0], REMOTE_IP, 1024, 53, payload=payload, device=0
    )


def _warm_flow_cases():
    """(proto, [(mutated frame of the warm flow's 5-tuple, µs since the
    previous frame)]): the gaps straddle the expiry time, so the flow
    dies mid-run unless the frames that should rejuvenate it do."""

    def frames_of(proto):
        packets = st.builds(
            _warm_flow_packet, st.just(proto), st.binary(min_size=0, max_size=40)
        )
        step = st.tuples(
            mutated_frames(packets, WARM_MUTATIONS),
            st.integers(0, WARM_EXPIRY_US + 200),
        )
        return st.tuples(st.just(proto), st.lists(step, min_size=1, max_size=12))

    return st.sampled_from(("udp", "tcp")).flatmap(frames_of)


#: The three named shapes, one after the other, on the warm TCP flow.
_NAMED_SHAPES_CASE = (
    "tcp",
    [
        (shape(_warm_flow_packet("tcp").wire_bytes()), 1)
        for shape in NAMED_SHAPES.values()
    ],
)


def _offer(nf, frame, now):
    """One wire frame the way every runtime offers it: refused by
    ``Packet.from_bytes`` or handed, wire-backed or not, to
    ``process_burst``."""
    try:
        packet = Packet.from_bytes(frame, 0)
    except ParseError as error:
        return "refused", str(error)
    (outs,) = nf.process_burst([packet], now)
    return "emitted", _render(outs)


class TestMutatedFramesOnAWarmFlow:
    """The one way in has no unchecked door: once a flow has earned its
    closure, a frame of that flow's 5-tuple that is *not* in canonical
    form — the closure's precondition — is refused exactly as an
    unwrapped twin refuses it, or is parsed and comes out byte-identical
    (its closure on the serialization, when that is canonical, else the
    slow path); either way the twin's flow table stays in step."""

    @settings(max_examples=60, deadline=None)
    @given(nf=st.sampled_from(sorted(WARM_NFS)), case=_warm_flow_cases())
    @example(nf="vignat", case=_NAMED_SHAPES_CASE)
    @example(nf="firewall", case=_NAMED_SHAPES_CASE)
    @example(nf="limiter", case=_NAMED_SHAPES_CASE)
    def test_refused_alike_or_emitted_byte_identical(self, nf, case):
        proto, steps = case
        fast, twin = FastPathNat(WARM_NFS[nf]()), WARM_NFS[nf]()
        canonical = _warm_flow_packet(proto).wire_bytes()
        for now in (0, 1, 2):
            assert _offer(fast, canonical, now) == _offer(twin, canonical, now)
        counters = fast.op_counters()
        assert counters["fastpath_hits"] == 2
        assert counters["fastpath_compiles"] == 1
        for frame, gap in steps:
            now += gap
            assert _offer(fast, frame, now) == _offer(twin, frame, now)
            assert flow_state(fast) == flow_state(twin)
        # Past the expiry time both sides have forgotten the flow (or
        # neither has): the next frame allocates alike.
        now += WARM_EXPIRY_US + 1
        assert _offer(fast, canonical, now) == _offer(twin, canonical, now)
        assert flow_state(fast) == flow_state(twin)
        assert fast.op_counters()["fastpath_compile_rejected"] == 0


# -- the stateful filters: pass-unchanged verdicts, memoised ------------------
FILTER_EXPIRY_US = 2_000_000
FILTER_BUDGET = 3
FILTERS = {
    # Four slots, six flows: the table fills and refuses beside cached
    # live sessions.
    "firewall": lambda: VigFirewall(
        NatConfig(max_flows=4, expiration_time=FILTER_EXPIRY_US)
    ),
    # Two slots, three sources, three packets a window each.
    "limiter": lambda: VigLimiter(
        LimiterConfig(capacity=2, window=FILTER_EXPIRY_US, max_packets=FILTER_BUDGET)
    ),
}


def _filter_packet(direction, selector, kind):
    """Flow ``selector`` leaving the inside, or the remote end's answer
    to it — solicited only while the firewall tracks the flow."""
    host = INTERNAL_IPS[selector % len(INTERNAL_IPS)]
    make, rport = (make_tcp_packet, 80) if kind == "tcp" else (make_udp_packet, 53)
    if direction == "out":
        packet = make(host, REMOTE_IP, 1024 + selector, rport, device=0)
    else:
        packet = make(REMOTE_IP, host, rport, 1024 + selector, device=1)
    if kind == "udp0":
        packet.l4.checksum = 0
    return packet


def _filter_steps():
    """Bursts of ``_steps()``-shaped traffic, with a checkpoint → restore
    into fresh instances (no ``warm``) between some of them."""
    step = st.tuples(
        st.sampled_from(["out", "out", "in"]),
        st.integers(0, 5),
        st.sampled_from(["udp", "udp0", "tcp"]),
    )
    burst = st.tuples(
        st.integers(0, 2_500_000),  # µs since the last burst: can cross expiry
        st.booleans(),  # restore both sides from a checkpoint first
        st.lists(step, min_size=1, max_size=8),
    )
    return st.lists(burst, min_size=1, max_size=12)


def _burst_of(*steps, gap=1, restore=False):
    steps = [step if len(step) == 3 else (*step, "udp") for step in steps]
    return (gap, restore, steps)


class TestStatefulFilters:
    """``VigFirewall`` and ``VigLimiter`` behind the cache: wrapped ≡
    unwrapped byte for byte and state for state after every burst, and
    ``cache ⊆ live sessions / open budgets`` throughout — the limiter's
    hit *spends a packet*, so its budget arithmetic is part of both."""

    @settings(max_examples=120, deadline=None)
    @given(
        nf=st.sampled_from(sorted(FILTERS)),
        bursts=_filter_steps(),
        wire=st.booleans(),
    )
    # Budget spent mid-burst, on the hit path: frame FILTER_BUDGET
    # passes, the next drops, and the source's sibling 5-tuple with it.
    @example(
        nf="limiter",
        bursts=[_burst_of(*[("out", 0)] * (FILTER_BUDGET + 1), ("out", 3))],
        wire=True,
    )
    # ...and on the miss path: every frame a new 5-tuple of one source.
    @example(
        nf="limiter",
        bursts=[
            _burst_of(("out", 0), ("out", 3), ("out", 0, "tcp"), ("out", 3, "tcp"))
        ],
        wire=False,
    )
    # Window expiry, then the same source re-admitted under the index
    # it held before (libVig's free list is LIFO).
    @example(
        nf="limiter",
        bursts=[
            _burst_of(("out", 0), ("out", 0)),
            _burst_of(("out", 0), ("out", 0), ("out", 0), gap=FILTER_EXPIRY_US),
        ],
        wire=True,
    )
    # Firewall session expiry with index reuse: flow 1 inherits flow 0's
    # slot, and flow 0's old reply is unsolicited from then on.
    @example(
        nf="firewall",
        bursts=[
            _burst_of(("out", 0), ("in", 0), ("out", 0), ("in", 0)),
            _burst_of(("out", 1), ("in", 0), ("in", 1), gap=FILTER_EXPIRY_US),
        ],
        wire=True,
    )
    # A full table refuses a new flow beside four cached live ones.
    @example(
        nf="firewall",
        bursts=[
            _burst_of(*[("out", n) for n in range(4)] * 2),
            _burst_of(("out", 4), ("out", 0), ("out", 4), ("in", 4), ("in", 3)),
        ],
        wire=True,
    )
    # An unsolicited external probe stays a slow-path drop, every time.
    @example(
        nf="firewall",
        bursts=[_burst_of(("in", 2), ("in", 2), ("out", 0), ("in", 2))],
        wire=True,
    )
    # Checkpoint → restore → no warm: the first packet relearns.
    @example(
        nf="firewall",
        bursts=[
            _burst_of(("out", 0), ("out", 0), ("in", 0)),
            _burst_of(("out", 0), ("in", 0), ("out", 0), restore=True),
        ],
        wire=True,
    )
    @example(
        nf="limiter",
        bursts=[
            _burst_of(("out", 0), ("out", 0)),
            _burst_of(("out", 0), ("out", 0), restore=True),
        ],
        wire=True,
    )
    def test_identical_and_cache_within_live_state(self, nf, bursts, wire):
        fast, twin = FastPathNat(FILTERS[nf]()), FILTERS[nf]()
        probes = {}
        now = 0
        for gap, restore, steps in bursts:
            now += gap
            if restore:
                state = fast.checkpoint_state()
                assert flow_state(fast) == flow_state(twin)
                fast, twin = FastPathNat(FILTERS[nf]()), FILTERS[nf]()
                fast.restore_state(state)
                twin.restore_state(state)
                assert fast.cache_size == 0
            packets = [_filter_packet(*step) for step in steps]
            offered = [_wire_backed(p) if wire else p.clone() for p in packets]
            got = fast.process_burst(offered, now)
            want = twin.process_burst([p.clone() for p in packets], now)
            assert [_render(o) for o in got] == [_render(o) for o in want]
            assert flow_state(fast) == flow_state(twin)
            assert_cache_within_live_flows(fast, probes)
        assert fast.op_counters()["fastpath_compile_rejected"] == 0


# -- every wrapped NF, every entry state, an action learned either way ---------
#: Each NF that publishes fast-path hooks, small enough that the steps
#: fill its table and cross its expiry.
WRAPPED_NFS = {
    "vignat": lambda: VigNat(NatConfig(**CFG_KW)),
    "unverified": lambda: UnverifiedNat(NatConfig(**CFG_KW)),
    "firewall": lambda: VigFirewall(NatConfig(**CFG_KW)),
    "limiter": lambda: VigLimiter(
        LimiterConfig(capacity=4, window=FILTER_EXPIRY_US, max_packets=6)
    ),
}

#: How a frame reaches the NF: wire-backed, or materialised — built from
#: headers, or parsed from a frame the parser normalises (trailing
#: Ethernet padding; a stale IPv4 total length or UDP length), so its
#: serialization differs from the bytes it arrived as.
ENTRY_SHAPES = ("wire", "object", "padded", "stale-length")


def _nf_packet(nf, direction, selector, kind):
    """Traffic of ``nf``'s flow ``selector``: the NATs' ``_packet`` (an
    inbound frame probes the allocation range), else ``_filter_packet``."""
    if nf in ("vignat", "unverified"):
        return _packet(direction, selector, kind, NatConfig(**CFG_KW))
    return _filter_packet(direction, selector, kind)


def _entry(packet, shape):
    """``packet`` offered in ``shape`` (see :data:`ENTRY_SHAPES`)."""
    if shape == "wire":
        return _wire_backed(packet)
    if shape == "object":
        return packet.clone()
    frame = bytearray(packet.wire_bytes())
    if shape == "padded":
        frame += bytes(6)
    else:
        frame[16:18] = (len(frame) - 16).to_bytes(2, "big")  # 2 bytes short
        if frame[23] == 17:
            frame[38:40] = (len(frame) - 30).to_bytes(2, "big")  # 4 bytes long
    offered = Packet.from_bytes(bytes(frame), packet.device)
    assert offered.image is None
    return offered


def _shaped_steps():
    return st.lists(
        st.tuples(
            st.sampled_from(["in", "out"]),
            st.integers(0, 5),
            st.sampled_from(["udp", "udp0", "tcp"]),  # one flow, checksum on/off
            st.integers(0, 2_500_000),
            st.sampled_from(ENTRY_SHAPES),
        ),
        min_size=1,
        max_size=40,
    )


def _learn_then_hit(learn, hit, kind="udp"):
    """Both directions of flow 0: learned by a ``learn``-shaped frame,
    then hit by ``hit``-shaped ones, the last of them checksum-free."""
    return [
        ("out", 0, kind, 1, learn),
        ("out", 0, kind, 1, hit),
        ("in", 0, kind, 1, learn),
        ("in", 0, kind, 1, hit),
        ("out", 0, "udp0", 1, hit),
        ("in", 0, "udp0", 1, hit),
    ]


class TestEveryEntryStateAndEveryLearn:
    """One property for all four providers: whatever state a frame is in
    when it arrives — wire-backed, built from headers, or parsed from a
    frame whose padding or length fields the parse normalises — and
    whichever state the frame that taught the cache its flow was in, the
    wrapped NF and its unwrapped twin emit the same (device, wire bytes),
    end in the same flow state, and the cache holds live flows only.
    Zero-checksum UDP frames run mid-flow in both directions."""

    @settings(max_examples=150, deadline=None)
    @given(nf=st.sampled_from(sorted(WRAPPED_NFS)), steps=_shaped_steps())
    @example(nf="vignat", steps=_learn_then_hit("wire", "object"))
    @example(nf="vignat", steps=_learn_then_hit("object", "wire"))
    @example(nf="vignat", steps=_learn_then_hit("padded", "stale-length"))
    @example(nf="unverified", steps=_learn_then_hit("wire", "padded"))
    @example(nf="unverified", steps=_learn_then_hit("object", "wire"))
    @example(nf="unverified", steps=_learn_then_hit("stale-length", "object"))
    @example(nf="firewall", steps=_learn_then_hit("wire", "stale-length", "tcp"))
    @example(nf="firewall", steps=_learn_then_hit("padded", "wire"))
    @example(nf="limiter", steps=_learn_then_hit("object", "padded"))
    @example(nf="limiter", steps=_learn_then_hit("wire", "object", "tcp"))
    def test_wrapped_is_its_twin_after_every_step(self, nf, steps):
        fast, twin = FastPathNat(WRAPPED_NFS[nf]()), WRAPPED_NFS[nf]()
        probes = {}
        now = 0
        for direction, selector, kind, dt, shape in steps:
            now += dt
            packet = _nf_packet(nf, direction, selector, kind)
            offered = _entry(packet, shape)
            twins = offered.clone()
            (got,) = fast.process_burst([offered], now)
            (want,) = twin.process_burst([twins], now)
            assert _render(got) == _render(want)
            assert flow_state(fast) == flow_state(twin)
            assert_cache_within_live_flows(fast, probes)
        assert fast.op_counters()["fastpath_compile_rejected"] == 0


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
        fast = build_nf(lambda _config: NoopForwarder(0, 1), None, "compiled")
        assert type(fast) is NoopForwarder  # nothing to skip: runs unwrapped
        assert self._drive(fast, steps) == slow_frames
        assert fast.op_counters()["forwarded"] == len(steps) == len(slow_frames)


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
