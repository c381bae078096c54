"""Compiled per-flow closures: byte-identity, rejection, invalidation.

The compiled fast path (:mod:`repro.nat.compiled`) must be *invisible*:
a closure's output is byte-for-byte what the slow path would have
emitted, for every packet shape the flow can carry — payload lengths,
TTLs, and UDP's "checksum disabled" sentinel included. This file
proves that property four ways: a hypothesis sweep over randomized
traffic, the image-side key against the header-side key, an injected
miscompilation that the self-verification must reject (the learn's, on
the slow path's own bytes, or a first hit's, on an object replay), and
the compile rule itself — a wire-backed learn attaches a verified
closure, any other action earns one on its first wire-backed hit, the
flow's own expiry, a FIFO eviction or a restore each leave none
reachable, and a rival flow's birth leaves it exactly where it was.
"""

from hypothesis import given, settings, strategies as st

from repro.nat.compiled import compile_action
from repro.nat.config import NatConfig
from repro.nat.fastpath import CachedAction, FastPathNat, apply_endpoint_action
from repro.nat.limiter import VigLimiter
from repro.nat.unverified import UnverifiedNat
from repro.nat.vignat import VigNat
from repro.packets.builder import make_tcp_packet, make_udp_packet
from repro.packets.headers import (
    ETHERTYPE_ARP,
    PROTO_ICMP,
    Packet,
    ParseError,
    UdpHeader,
)


def _object(nf, packet, now):
    """One materialised packet through the burst path, rendered alike."""
    (outs,) = nf.process_burst([packet.clone()], now)
    return [(out.wire_bytes(), out.device) for out in outs]


def _wire(nf, packet, now):
    """The same frame as a wire-backed packet through the burst path —
    what every runtime behind ``launch()`` hands the NF."""
    wire_backed = Packet.from_bytes(packet.wire_bytes(), packet.device)
    assert wire_backed.image is not None
    (outs,) = nf.process_burst([wire_backed], now)
    return [(out.wire_bytes(), out.device) for out in outs]


def _slow(nf, packet, now):
    """The same frame through the object slow path, rendered alike."""
    return [
        (out.wire_bytes(), out.device)
        for out in nf.process(packet.clone(), now)
    ]


def _flow_packets(proto, sport, payloads_ttls, zero_checksum):
    """Packets of one flow varying every non-key field the wire allows."""
    packets = []
    for payload, ttl in payloads_ttls:
        if proto == "udp":
            packet = make_udp_packet(
                "10.0.0.5", "8.8.8.8", sport, 53,
                payload=payload, ttl=ttl, device=0,
            )
            if zero_checksum:
                packet.l4.checksum = 0
        else:
            packet = make_tcp_packet(
                "10.0.0.5", "198.18.0.9", sport, 443,
                payload=payload, ttl=ttl, device=0,
            )
        packets.append(packet)
    return packets


class TestCompiledByteIdentity:
    """Closure output == slow-path output, over randomized traffic."""

    @given(
        proto=st.sampled_from(["udp", "tcp"]),
        sport=st.integers(1_024, 65_000),
        payloads_ttls=st.lists(
            st.tuples(st.binary(min_size=0, max_size=64), st.integers(1, 255)),
            min_size=2,
            max_size=6,
        ),
        zero_checksum=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_compiled_matches_slow_path(
        self, proto, sport, payloads_ttls, zero_checksum
    ):
        fast = FastPathNat(VigNat(NatConfig(max_flows=64)))
        slow = VigNat(NatConfig(max_flows=64))
        for t, packet in enumerate(
            _flow_packets(proto, sport, payloads_ttls, zero_checksum),
            start=1_000,
        ):
            assert _wire(fast, packet, t) == _slow(slow, packet, t)
        counters = fast.op_counters()
        assert counters["fastpath_compiles"] == 1
        assert counters["fastpath_compile_rejected"] == 0
        # The learn miss compiled the closure; every packet after it
        # ran it.
        assert counters["fastpath_compiled_hits"] == len(payloads_ttls) - 1

    @given(
        proto=st.sampled_from(["udp", "tcp"]),
        sport=st.integers(1_024, 65_000),
        payloads_ttls=st.lists(
            st.tuples(st.binary(min_size=0, max_size=64), st.integers(1, 255)),
            min_size=3,
            max_size=8,
        ),
        zero_checksum=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_every_wire_backed_hit_matches_the_object_replay(
        self, proto, sport, payloads_ttls, zero_checksum
    ):
        # Not only the frame the learn verified the closure on: every
        # later packet of the flow, whatever its payload, TTL or checksum.
        closures = FastPathNat(VigNat(NatConfig(max_flows=64)))
        replays = FastPathNat(VigNat(NatConfig(max_flows=64)))
        for t, packet in enumerate(
            _flow_packets(proto, sport, payloads_ttls, zero_checksum),
            start=1_000,
        ):
            assert _wire(closures, packet, t) == _object(replays, packet, t)
        hits = len(payloads_ttls) - 1
        assert closures.op_counters()["fastpath_compiled_hits"] == hits
        assert closures.op_counters()["fastpath_compiles"] == 1
        assert replays.op_counters()["fastpath_hits"] == hits
        assert replays.op_counters()["fastpath_compiled_hits"] == 0

    def test_zero_udp_checksum_stays_zero_through_closure(self):
        fast = FastPathNat(VigNat(NatConfig(max_flows=64)))
        packet = make_udp_packet("10.0.0.5", "8.8.8.8", 4_000, 53, device=0)
        packet.l4.checksum = 0
        _wire(fast, packet, 1_000)  # learn: compile
        ((wire, _),) = _wire(fast, packet, 1_001)  # compiled hit
        assert fast.op_counters()["fastpath_compiled_hits"] == 1
        assert Packet.from_bytes(wire, 1).l4.checksum == 0

    def test_reply_direction_compiles_too(self):
        fast = FastPathNat(VigNat(NatConfig(max_flows=64)))
        slow = VigNat(NatConfig(max_flows=64))
        out = make_udp_packet("10.0.0.5", "8.8.8.8", 4_000, 53, device=0)
        assert _wire(fast, out, 1_000) == _slow(slow, out, 1_000)
        ((wire, _),) = _wire(fast, out, 1_001)
        ext_port = Packet.from_bytes(wire, 1).l4.src_port
        reply = make_udp_packet(
            "8.8.8.8", NatConfig(max_flows=64).external_ip, 53, ext_port,
            device=1,
        )
        for t in (1_002, 1_003):
            assert _wire(fast, reply, t) == _slow(slow, reply, t)
        assert fast.op_counters()["fastpath_compiles"] == 2


def _ips():
    return st.integers(1, 0xFFFFFFFE)


def _ports():
    return st.integers(1, 0xFFFF)


@st.composite
def _frames(draw, zero_udp_checksum=st.just(False)):
    """A builder-made TCP or UDP packet with random endpoints."""
    make = draw(st.sampled_from([make_udp_packet, make_tcp_packet]))
    packet = make(
        draw(_ips()),
        draw(_ips()),
        draw(_ports()),
        draw(_ports()),
        payload=draw(st.binary(min_size=0, max_size=48)),
        device=draw(st.integers(0, 3)),
    )
    if make is make_udp_packet and draw(zero_udp_checksum):
        packet.l4.checksum = 0
    return packet


def _parsed_key(frame, device):
    """The parser's verdict on ``frame``: the key its headers give, or None."""
    try:
        packet = Packet.from_bytes(bytes(frame), device)
    except ParseError:
        return None
    packet.eth  # touch a header: from here on the key comes off headers
    assert packet.image is None
    return packet.flow_key()


class TestRawFlowKeyEquivalence:
    """``Packet.flow_key`` gives one answer, from the image or the headers."""

    @given(packet=_frames())
    @settings(max_examples=120, deadline=None)
    def test_matches_parsed_key(self, packet):
        frame = packet.wire_bytes()
        wire_backed = Packet.from_bytes(frame, packet.device)
        assert wire_backed.image is frame
        key = wire_backed.flow_key()
        assert key is not None
        assert key == _parsed_key(frame, packet.device) == packet.flow_key()

    @given(
        packet=_frames(),
        mangle=st.sampled_from(
            ["more-fragments", "fragment-offset", "icmp", "non-ipv4", "short"]
        ),
        cut=st.integers(0, 41),
    )
    @settings(max_examples=120, deadline=None)
    def test_ineligible_frames_return_none(self, packet, mangle, cut):
        if mangle == "more-fragments":
            packet.ipv4.flags |= 0x1
        elif mangle == "fragment-offset":
            packet.ipv4.fragment_offset = 8
        elif mangle == "icmp":
            packet.ipv4.protocol = PROTO_ICMP
        elif mangle == "non-ipv4":
            packet.eth.ethertype = ETHERTYPE_ARP
        frame = packet.wire_bytes()
        if mangle == "short":
            frame = frame[:cut]
        try:
            image_side = Packet.from_bytes(frame, packet.device).flow_key()
        except ParseError:
            image_side = None
        assert image_side is None
        assert _parsed_key(frame, packet.device) is None


class TestClosureMatchesRewriteHelpers:
    """A closure is the shared rewrite helpers, specialized to bytes.

    Any endpoint rewrite — source, destination or both, to any target —
    compiled for a frame's key must emit exactly what
    ``rewrite_source``/``rewrite_destination`` emit on the parsed
    packet, stored checksums included.
    """

    @given(
        packet=_frames(zero_udp_checksum=st.booleans()),
        src=st.none() | st.tuples(_ips(), _ports()),
        dst=st.none() | st.tuples(_ips(), _ports()),
    )
    @settings(max_examples=200, deadline=None)
    def test_closure_matches_endpoint_rewrite(self, packet, src, dst):
        action = CachedAction(src=src, dst=dst, out_device=1, token=None)
        frame = packet.wire_bytes()
        udp_checksum_off = packet.l4.checksum == 0 and isinstance(
            packet.l4, UdpHeader
        )
        closure = compile_action(
            Packet.from_bytes(frame, packet.device).flow_key(), action
        )
        wire = closure(bytearray(frame))
        assert wire == apply_endpoint_action(packet, action).wire_bytes()
        out = Packet.from_bytes(wire, 1)
        assert out.ipv4.header_checksum_valid()
        if udp_checksum_off:
            # RFC 768: a disabled UDP checksum survives any rewrite as 0.
            assert out.l4.checksum == 0
        else:
            assert out.l4_checksum_valid()


class TestLearnTimeVerificationRejectsMiscompiles:
    """An injected compiler bug must never reach the data path: a
    wire-backed learn byte-compares the closure it compiled against
    what the slow path emitted for that very frame."""

    def test_wrong_bytes_rejected(self, monkeypatch):
        fast = FastPathNat(VigNat(NatConfig(max_flows=64)))
        slow = VigNat(NatConfig(max_flows=64))

        def miscompile(key, action):
            real = compile_action(key, action)
            return lambda buf: b"\x00" * len(real(buf))

        monkeypatch.setattr("repro.nat.fastpath.compile_action", miscompile)
        packet = make_udp_packet("10.0.0.5", "8.8.8.8", 4_000, 53, device=0)
        for t in (1_000, 1_001, 1_002):
            assert _wire(fast, packet, t) == _slow(slow, packet, t)
        counters = fast.op_counters()
        # Rejected once, at the learn, and never compiled again.
        assert counters["fastpath_compile_rejected"] == 1
        assert counters["fastpath_compiles"] == 0
        assert fast.compiled_size == 0
        # The flow keeps hitting — on the object replay, whose bytes the
        # loop above compared — and no closure ever ran.
        assert counters["fastpath_misses"] == 1
        assert counters["fastpath_hits"] == 2
        assert counters["fastpath_compiled_hits"] == 0
        for t, drive in ((1_003, _wire), (1_004, _object)):
            assert drive(fast, packet, t) == _slow(slow, packet, t)
        counters = fast.op_counters()
        assert counters["fastpath_hits"] == 4
        assert counters["fastpath_compile_rejected"] == 1
        assert counters["fastpath_compiled_hits"] == 0


class TestClosuresAreEarnedOnTheRawPath:
    """The compile rule: a learn from a wire-backed frame compiles the
    flow's closure and verifies it on that frame against the slow path's
    own bytes; an action from anywhere else (a materialised learn,
    ``warm()``) earns one on the flow's first wire-backed hit, verified
    against that frame's object replay. ("Raw" is what the hooks call a
    closure-capable NF, ``supports_raw``; there is one way in,
    ``process_burst``.)"""

    def _assert_compiled_hits(self, fast, slow, packet, t, drive, compiles=0):
        """Three hits of ``packet``'s flow, all compiled, ``compiles`` of
        them (the first at most) compiling the closure."""
        before = fast.op_counters()
        for step in range(3):
            assert drive(fast, packet, t + step) == _slow(slow, packet, t + step)
        after = fast.op_counters()
        assert after["fastpath_misses"] == before["fastpath_misses"]
        assert after["fastpath_compiles"] - before["fastpath_compiles"] == compiles
        assert after["fastpath_hits"] - before["fastpath_hits"] == 3
        assert (
            after["fastpath_compiled_hits"] - before["fastpath_compiled_hits"]
            == 3
        )

    def _pair(self, **config):
        cfg = NatConfig(max_flows=64, **config)
        return FastPathNat(VigNat(cfg)), VigNat(cfg)

    def test_only_a_wire_backed_learn_compiles(self):
        fast, slow = self._pair()
        for i, drive in enumerate((_wire, _object)):
            packet = make_udp_packet(
                "10.0.0.5", "8.8.8.8", 4_000 + i, 53, device=0
            )
            assert drive(fast, packet, 1_000) == _slow(slow, packet, 1_000)
        counters = fast.op_counters()
        assert counters["fastpath_learns"] == 2
        assert counters["fastpath_compiles"] == 1
        assert fast.compiled_size == 1

    def test_object_path_learn_then_raw(self):
        # object -> wire: materialised packets hit on the object replay
        # and earn nothing; the flow's first wire-backed packet does.
        fast, slow = self._pair()
        packet = make_udp_packet("10.0.0.5", "8.8.8.8", 4_000, 53, device=0)
        for t in (1_000, 1_001):
            assert _object(fast, packet, t) == _slow(slow, packet, t)
        counters = fast.op_counters()
        assert counters["fastpath_learns"] == 1
        assert counters["fastpath_hits"] == 1
        assert counters["fastpath_compiles"] == 0
        assert fast.compiled_size == 0
        self._assert_compiled_hits(fast, slow, packet, 1_002, _wire, compiles=1)

    def test_wire_backed_burst_earns_and_runs_closures(self):
        # The path behind launch(): process_burst over wire-backed packets.
        fast, slow = self._pair()
        packet = make_tcp_packet("10.0.0.5", "198.18.0.9", 4_000, 443, device=0)
        assert _wire(fast, packet, 1_000) == _slow(slow, packet, 1_000)
        assert fast.op_counters()["fastpath_compiles"] == 1
        self._assert_compiled_hits(fast, slow, packet, 1_001, _wire)

    def test_raw_learn_then_object_path(self):
        # wire -> object: the learned closure stays put while materialised
        # packets of the flow take the slow path once (it checks the
        # object replay), then the replay.
        fast, slow = self._pair()
        packet = make_udp_packet("10.0.0.5", "8.8.8.8", 4_000, 53, device=0)
        for t in (1_000, 1_001):
            assert _wire(fast, packet, t) == _slow(slow, packet, t)
        assert fast.compiled_size == 1
        for t in (1_002, 1_003):
            assert _object(fast, packet, t) == _slow(slow, packet, t)
        # ...and leaves the closure where wire-backed packets find it.
        for t in (1_004, 1_005):
            assert _wire(fast, packet, t) == _slow(slow, packet, t)
        counters = fast.op_counters()
        assert counters["fastpath_misses"] == 2
        assert counters["fastpath_hits"] == 4
        assert counters["fastpath_compiles"] == 1
        assert counters["fastpath_compiled_hits"] == 3
        assert counters["fastpath_learn_rejected"] == 0

    def test_warm_installs_plain_actions(self):
        # The promoted-standby path: warm() has no frame to verify a
        # closure against, so it installs none; the first wire-backed
        # hit of a warmed flow earns it.
        cfg = NatConfig(max_flows=64)
        primary = VigNat(cfg)
        slow = VigNat(cfg)
        for i in range(4):
            packet = make_udp_packet(
                "10.0.0.5", "8.8.8.8", 4_000 + i, 53, device=0
            )
            primary.process(packet.clone(), 1_000)
            slow.process(packet.clone(), 1_000)
        standby = VigNat(cfg)
        standby.restore_state(primary.checkpoint_state())
        fast = FastPathNat(standby)
        assert fast.warm() == 8  # both directions of all four flows
        assert fast.compiled_size == 0
        assert fast.op_counters()["fastpath_compiles"] == 0
        packet = make_udp_packet("10.0.0.5", "8.8.8.8", 4_001, 53, device=0)
        self._assert_compiled_hits(fast, slow, packet, 2_000, _wire, compiles=1)

    def test_restore_state_drops_closures_and_they_are_earned_again(self):
        # A limiter that has seen only its pass-through direction holds
        # no open budget, so it restores into a live instance (VigNat
        # wants a fresh one) and the same wrapper sees both sides.
        fast, slow = FastPathNat(VigLimiter()), VigLimiter()
        packet = make_udp_packet("8.8.8.8", "10.0.0.5", 53, 4_000, device=1)
        for t in (1_000, 1_001):
            assert _wire(fast, packet, t) == _slow(slow, packet, t)
        assert fast.compiled_size == 1
        fast.restore_state(fast.checkpoint_state())
        assert fast.cache_size == 0
        # Re-learn (one miss) compiles a fresh closure.
        assert _wire(fast, packet, 1_002) == _slow(slow, packet, 1_002)
        assert fast.compiled_size == 1
        self._assert_compiled_hits(fast, slow, packet, 1_003, _wire)
        assert fast.op_counters()["fastpath_compiles"] == 2

    def test_only_its_own_expiry_costs_a_closure(self):
        # A rival flow's birth costs the learned closure nothing: the
        # next packet is a compiled hit, not a re-learn...
        fast, slow = self._pair(expiration_time=100)
        packet = make_udp_packet("10.0.0.5", "8.8.8.8", 4_000, 53, device=0)
        for t in (1_000, 1_001):
            assert _wire(fast, packet, t) == _slow(slow, packet, t)
        rival = make_udp_packet("10.0.0.6", "8.8.8.8", 5_000, 53, device=0)
        assert _wire(fast, rival, 1_002) == _slow(slow, rival, 1_002)
        assert _wire(fast, packet, 1_003) == _slow(slow, packet, 1_003)
        counters = fast.op_counters()
        assert counters["fastpath_invalidations"] == 0
        assert counters["fastpath_misses"] == 2  # one learn per flow
        assert counters["fastpath_compiles"] == 2
        assert counters["fastpath_compiled_hits"] == 2
        assert fast.compiled_size == 2
        # ...while the flow's own expiry drops action and closure, so
        # its next incarnation's learn compiles a fresh one.
        assert _wire(fast, packet, 2_000) == _slow(slow, packet, 2_000)
        counters = fast.op_counters()
        assert counters["fastpath_invalidations"] == 2  # both flows expired
        assert counters["fastpath_compiles"] == 3
        assert fast.compiled_size == 1
        self._assert_compiled_hits(fast, slow, packet, 2_001, _wire)

    def test_rejected_compile_is_not_retried(self, monkeypatch):
        fast, slow = self._pair()
        monkeypatch.setattr(
            "repro.nat.fastpath.compile_action",
            lambda key, action: lambda image: image[:-1] + b"\xff",
        )
        packet = make_udp_packet(
            "10.0.0.5", "8.8.8.8", 4_000, 53, payload=b"\x00" * 8, device=0
        )
        for t in range(1_000, 1_005):
            assert _wire(fast, packet, t) == _slow(slow, packet, t)
        counters = fast.op_counters()
        assert counters["fastpath_misses"] == 1
        assert counters["fastpath_hits"] == 4
        assert counters["fastpath_compile_rejected"] == 1
        assert counters["fastpath_compiles"] == 0
        assert counters["fastpath_compiled_hits"] == 0
        assert fast.compiled_size == 0

    def test_non_canonical_frame_of_a_compiled_flow_takes_the_object_replay(self):
        # Trailing Ethernet padding: the parser takes it for payload and
        # serializing rewrites both length fields to cover it; a byte
        # splice would not. Such a frame is never wire-backed, so it
        # never reaches the closure its flow has learned: the first takes
        # the slow path, which checks the object replay, the next that.
        fast, slow = self._pair()
        packet = make_udp_packet("10.0.0.5", "8.8.8.8", 4_000, 53, device=0)
        for t in (1_000, 1_001):
            assert _wire(fast, packet, t) == _slow(slow, packet, t)
        assert fast.compiled_size == 1
        padded = Packet.from_bytes(packet.wire_bytes() + bytes(4), 0)
        assert padded.image is None
        for t in (1_002, 1_003):
            (outs,) = fast.process_burst([padded.clone()], t)
            assert [(o.wire_bytes(), o.device) for o in outs] == _slow(
                slow, padded, t
            )
        counters = fast.op_counters()
        assert counters["fastpath_misses"] == 2
        assert counters["fastpath_hits"] == 2
        assert counters["fastpath_compiled_hits"] == 1

    def test_supports_raw_false_never_compiles(self):
        cfg = NatConfig(max_flows=64)
        fast, slow = FastPathNat(UnverifiedNat(cfg)), UnverifiedNat(cfg)
        packet = make_udp_packet("10.0.0.5", "8.8.8.8", 4_000, 53, device=0)
        for t in range(1_000, 1_004):
            assert _wire(fast, packet, t) == _slow(slow, packet, t)
        counters = fast.op_counters()
        assert counters["fastpath_hits"] == 3
        assert counters["fastpath_compiles"] == 0
        assert counters["fastpath_compile_rejected"] == 0
        assert counters["fastpath_compiled_hits"] == 0


class _ApplySpy:
    """Counts calls to a provider's ``apply`` hook, delegating to it."""

    def __init__(self, monkeypatch, hooks):
        self.calls = 0
        real = hooks.apply

        def apply(packet, action):
            self.calls += 1
            return real(packet, action)

        monkeypatch.setattr(hooks, "apply", apply)


class TestTheLearnChecksTheClosure:
    """A learn from a wire-backed frame admits its action on the closure
    alone — compiled, run on the frame, compared with the slow path's
    bytes — and leaves the object replay unchecked (``replay_ok`` None)
    until a materialised packet of the flow checks it. Everything else
    keeps the object-replay check."""

    def _action(self, fast, packet):
        return fast.action_for(Packet.from_bytes(packet.wire_bytes(), 0).flow_key())

    def test_the_learn_replays_nothing(self, monkeypatch):
        cfg = NatConfig(max_flows=64)
        fast, slow = FastPathNat(VigNat(cfg)), VigNat(cfg)
        spy = _ApplySpy(monkeypatch, fast._hooks)
        packet = make_udp_packet("10.0.0.5", "8.8.8.8", 4_000, 53, device=0)
        assert _wire(fast, packet, 1_000) == _slow(slow, packet, 1_000)  # learn
        assert _wire(fast, packet, 1_001) == _slow(slow, packet, 1_001)  # hit
        assert spy.calls == 0
        action = self._action(fast, packet)
        assert action.closure
        assert action.replay_ok is None
        counters = fast.op_counters()
        assert counters["fastpath_compiles"] == 1
        assert counters["fastpath_compiled_hits"] == 1

    def test_the_first_materialised_packet_checks_the_replay(self, monkeypatch):
        cfg = NatConfig(max_flows=64)
        fast, slow = FastPathNat(VigNat(cfg)), VigNat(cfg)
        packet = make_udp_packet("10.0.0.5", "8.8.8.8", 4_000, 53, device=0)
        _wire(fast, packet, 1_000)
        slow.process(packet.clone(), 1_000)
        spy = _ApplySpy(monkeypatch, fast._hooks)
        assert _object(fast, packet, 1_001) == _slow(slow, packet, 1_001)
        assert spy.calls == 1  # the check, on the slow path's output
        assert self._action(fast, packet).replay_ok is True
        assert _object(fast, packet, 1_002) == _slow(slow, packet, 1_002)
        assert spy.calls == 2  # the replay serving the hit
        counters = fast.op_counters()
        assert counters["fastpath_misses"] == 2
        assert counters["fastpath_hits"] == 1
        assert counters["fastpath_learn_rejected"] == 0

    def test_other_learns_check_the_replay_up_front(self, monkeypatch):
        cfg = NatConfig(max_flows=64)
        packet = make_udp_packet("10.0.0.5", "8.8.8.8", 4_000, 53, device=0)
        # A materialised learn has no image to run a closure on: it
        # replays, and the first wire-backed hit earns the closure.
        fast = FastPathNat(VigNat(cfg))
        spy = _ApplySpy(monkeypatch, fast._hooks)
        _object(fast, packet, 1_000)
        assert spy.calls == 1
        action = self._action(fast, packet)
        assert action.closure is None and action.replay_ok is True
        _wire(fast, packet, 1_001)
        assert spy.calls == 2
        assert fast.op_counters()["fastpath_compiles"] == 1
        # An NF that never compiles replays at every learn.
        unverified = FastPathNat(UnverifiedNat(cfg))
        _wire(unverified, packet, 1_000)
        action = self._action(unverified, packet)
        assert action.closure is None and action.replay_ok is True
        # warm() learns from no frame at all; its actions are trusted.
        primary = VigNat(cfg)
        primary.process(packet.clone(), 1_000)
        standby = VigNat(cfg)
        standby.restore_state(primary.checkpoint_state())
        warmed = FastPathNat(standby)
        assert warmed.warm() == 2
        assert all(
            action.closure is None and action.replay_ok is True
            for action in warmed._cache.values()
        )

    def test_a_miscompile_falls_back_to_the_replay_check(self, monkeypatch):
        cfg = NatConfig(max_flows=64)
        fast, slow = FastPathNat(VigNat(cfg)), VigNat(cfg)
        compiled = []

        def miscompile(key, action):
            real = compile_action(key, action)
            compiled.append(key)
            return lambda image: real(image)[:-1] + b"\xff"

        monkeypatch.setattr("repro.nat.fastpath.compile_action", miscompile)
        spy = _ApplySpy(monkeypatch, fast._hooks)
        packet = make_udp_packet(
            "10.0.0.5", "8.8.8.8", 4_000, 53, payload=b"\x00" * 8, device=0
        )
        assert _wire(fast, packet, 1_000) == _slow(slow, packet, 1_000)  # learn
        # Rejected at the learn, which then replayed to admit the action.
        assert spy.calls == 1
        action = self._action(fast, packet)
        assert action.closure is False
        assert action.replay_ok is True
        for t in (1_001, 1_002, 1_003):
            assert _wire(fast, packet, t) == _slow(slow, packet, t)
        counters = fast.op_counters()
        assert len(compiled) == 1
        assert counters["fastpath_learns"] == 1
        assert counters["fastpath_compile_rejected"] == 1
        assert counters["fastpath_compiles"] == 0
        assert counters["fastpath_compiled_hits"] == 0
        assert counters["fastpath_hits"] == 3


class TestStaleClosureInvalidation:
    """Expiry, eviction and restore each leave no closure reachable:
    the closure lives on its action, so whatever drops the action drops
    it too — and nothing but the end of its own flow drops the action."""

    def test_expiry_drops_closure_before_it_can_fire(self):
        cfg = NatConfig(max_flows=64, expiration_time=10)
        fast = FastPathNat(VigNat(cfg))
        slow = VigNat(NatConfig(max_flows=64, expiration_time=10))
        packet = make_udp_packet("10.0.0.5", "8.8.8.8", 4_000, 53, device=0)
        for t in (0, 1):
            assert _wire(fast, packet, t) == _slow(slow, packet, t)
        hits_before = fast.op_counters()["fastpath_compiled_hits"]
        assert hits_before == 1
        # Far past expiry the flow is freed. A competing flow then takes
        # the freed external port, so a stale closure would emit the
        # *wrong* translation — the slow-path differential catches it.
        rival = make_udp_packet("10.0.0.6", "8.8.8.8", 5_000, 53, device=0)
        assert _wire(fast, rival, 1_000) == _slow(slow, rival, 1_000)
        assert _wire(fast, packet, 1_001) == _slow(slow, packet, 1_001)
        counters = fast.op_counters()
        assert counters["fastpath_invalidations"] >= 1
        # The stale closure never fired: no compiled hit between the
        # expiry and the re-learn.
        assert counters["fastpath_compiled_hits"] == hits_before

    def test_eviction_drops_closure_with_cache_entry(self):
        fast = FastPathNat(VigNat(NatConfig(max_flows=64)), max_entries=2)
        for i in range(6):
            packet = make_udp_packet(
                "10.0.0.5", "8.8.8.8", 4_000 + i, 53, device=0
            )
            _wire(fast, packet, 1_000 + i)  # learn: compile
            _wire(fast, packet, 1_000 + i)  # compiled hit
        counters = fast.op_counters()
        assert counters["fastpath_evictions"] >= 1
        assert fast.cache_size <= 2
        # An evicted flow keeps no closure behind.
        assert fast.compiled_size <= fast.cache_size
        assert counters["fastpath_compiles"] == 6

    def test_a_rival_flow_strands_no_closure(self):
        cfg = dict(max_flows=64, expiration_time=100)
        fast = FastPathNat(VigNat(NatConfig(**cfg)))
        slow = VigNat(NatConfig(**cfg))
        packet = make_udp_packet("10.0.0.5", "8.8.8.8", 4_000, 53, device=0)
        for t in (1_000, 1_001):
            assert _wire(fast, packet, t) == _slow(slow, packet, t)
        assert fast.op_counters()["fastpath_compiled_hits"] == 1
        # A new flow is born: the first flow's action and the closure
        # on it stay exactly where they were.
        rival = make_udp_packet("10.0.0.6", "8.8.8.8", 5_000, 53, device=0)
        assert _wire(fast, rival, 1_002) == _slow(slow, rival, 1_002)
        assert _wire(fast, packet, 1_003) == _slow(slow, packet, 1_003)
        counters = fast.op_counters()
        assert counters["fastpath_invalidations"] == 0
        assert counters["fastpath_compiled_hits"] == 2  # the same closure
        assert counters["fastpath_compiles"] == 2  # and the rival's own
        assert fast.compiled_size == 2
        # The rival, kept alive alone, outlives the first flow: the
        # expiry scan that frees the first flow takes its action and
        # closure along, and nothing of the rival's.
        for t in (1_080, 1_160):
            assert _wire(fast, rival, t) == _slow(slow, rival, t)
        counters = fast.op_counters()
        assert counters["fastpath_invalidations"] == 1
        assert fast.cache_size == 1
        assert fast.compiled_size == 1
        assert counters["fastpath_compiles"] == 2

    def test_restore_clears_every_closure(self):
        # A limiter holding only pass-through actions restores into a
        # live instance, so the wrapper's own clearing is what stands
        # between a pre-restore closure and the post-restore data path.
        fast = FastPathNat(VigLimiter())
        for i in range(4):
            packet = make_udp_packet(
                "8.8.8.8", "10.0.0.5", 53, 4_000 + i, device=1
            )
            _wire(fast, packet, 1_000)  # learn: compile
            _wire(fast, packet, 1_000)  # compiled hit
        assert fast.compiled_size == 4
        fast.restore_state(fast.checkpoint_state())
        assert fast.cache_size == 0
        assert fast.compiled_size == 0

    def test_restore_and_warm_tell_the_downstream_observer(self):
        # A cache built over this one (a chain's fused entries) must not
        # outlive an action that a restore clears or a warm replaces.
        fast, told = FastPathNat(VigLimiter()), []
        fast.on_flow_freed(told.extend)
        packet = make_udp_packet("8.8.8.8", "10.0.0.5", 53, 4_000, device=1)
        _wire(fast, packet, 1_000)
        cached = list(fast._cache)
        assert len(cached) == 1
        fast.restore_state(fast.checkpoint_state())
        assert told == cached
        told.clear()
        fast._cache[cached[0]] = object()  # a stale action under a warmed key
        fast._hooks.warm_entries = lambda: iter([(cached[0], object())])
        assert fast.warm() == 1
        assert told == cached
