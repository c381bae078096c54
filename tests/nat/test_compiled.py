"""Compiled per-flow closures: byte-identity, rejection, invalidation.

The compiled fast path (:mod:`repro.nat.compiled`) must be *invisible*:
a closure's output is byte-for-byte what the slow path would have
emitted, for every packet shape the flow can carry — payload lengths,
TTLs, and UDP's "checksum disabled" sentinel included. This file
proves that property five ways: a hypothesis sweep over randomized
traffic, the image-side key against the header-side key, every 16-bit
UDP checksum word through each closure shape against the object
rewrite it compiles, an injected miscompilation that the learn's
self-verification must reject, and the compile rule itself — every
learn, from a wire-backed or a materialised packet, attaches a closure
verified against the slow path's own bytes, every hit runs it, the
flow's own expiry, a FIFO eviction or a restore each leave none
reachable, and a rival flow's birth leaves it exactly where it was.
"""

import random
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.nat.compiled import compile_action
from repro.nat.concrete import LibvigNf
from repro.nat.config import NatConfig
from repro.nat.fastpath import CachedAction, FastPathNat
from repro.nat.limiter import VigLimiter
from repro.nat.rewrite import rewrite
from repro.nat.unverified import UnverifiedNat
from repro.nat.vignat import VigNat
from repro.net.app import INLINE, RuntimeSpec, launch
from repro.packets.builder import make_tcp_packet, make_udp_packet
from repro.packets.checksum import checksum_update_u32
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
    def test_every_wire_backed_hit_matches_the_materialised_hit(
        self, proto, sport, payloads_ttls, zero_checksum
    ):
        # Not only the frame the learn verified the closure on: every
        # later packet of the flow, whatever its payload, TTL or checksum,
        # and whether it arrives as its image or as headers.
        wired = FastPathNat(VigNat(NatConfig(max_flows=64)))
        materialised = FastPathNat(VigNat(NatConfig(max_flows=64)))
        for t, packet in enumerate(
            _flow_packets(proto, sport, payloads_ttls, zero_checksum),
            start=1_000,
        ):
            assert _wire(wired, packet, t) == _object(materialised, packet, t)
        hits = len(payloads_ttls) - 1
        for fast in (wired, materialised):
            counters = fast.op_counters()
            assert counters["fastpath_compiles"] == 1
            assert counters["fastpath_hits"] == hits
            assert counters["fastpath_compiled_hits"] == hits

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


def _rewritten(packet, action):
    """The object rewrite ``action`` stands for: a clone through the
    shared helpers, out of ``action.out_device``."""
    out = packet.clone()
    rewrite(out, action.src, action.dst)
    out.device = action.out_device
    return out


def _sentinel_frame():
    """A UDP frame whose checksum (57512) the address half of a rewrite
    to ``_SENTINEL_DST`` lands on 0x0000 before the port half patches it."""
    return make_udp_packet(1, 1, 1, 5425, payload=b"\n", device=0)


_SENTINEL_DST = (6479943, 1)


class TestClosureMatchesRewriteHelpers:
    """A closure is the shared rewrite helper, specialized to bytes.

    Any endpoint rewrite — source, destination or both, to any target —
    compiled for a frame's key must emit exactly what ``rewrite`` emits
    on the parsed packet, stored checksums included.
    """

    @given(
        packet=_frames(zero_udp_checksum=st.booleans()),
        src=st.none() | st.tuples(_ips(), _ports()),
        dst=st.none() | st.tuples(_ips(), _ports()),
    )
    @example(packet=_sentinel_frame(), src=None, dst=_SENTINEL_DST)
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
        assert wire == _rewritten(packet, action).wire_bytes()
        out = Packet.from_bytes(wire, 1)
        assert out.ipv4.header_checksum_valid()
        if udp_checksum_off:
            # RFC 768: a disabled UDP checksum survives any rewrite as 0.
            assert out.l4.checksum == 0
        else:
            assert out.l4_checksum_valid()


class TestCompileRangeChecks:
    """An endpoint out of range is refused by the checksum helpers'
    range checks, in endpoint order: source address, source port,
    destination address, destination port."""

    KEY = (0, 17, 0x0A000005, 4_000, 0x08080808, 53)

    @pytest.mark.parametrize(
        "src, dst, message",
        [
            ((2**32, 1_024), None, "32-bit"),
            ((-1, 2**16), None, "32-bit"),
            ((0xC0000201, 2**16), None, "16-bit"),
            ((0xC0000201, 1_024), (2**32, 2**16), "32-bit"),
            (None, (0x0A000001, -1), "16-bit"),
            ((0xC0000201, -1), (2**32, 53), "16-bit"),
        ],
    )
    def test_out_of_range_endpoint_raises(self, src, dst, message):
        action = CachedAction(src=src, dst=dst, out_device=1, token=None)
        with pytest.raises(ValueError, match=message):
            compile_action(self.KEY, action)


#: (old endpoint, new endpoint) pairs, as (ip, port): a rewrite to the
#: same endpoint (every 16-bit delta ~x + x = 0xFFFF), one whose raw
#: deltas are all 0 (0xFFFF words to 0), one that swaps the address's
#: halves (a real change whose deltas still sum to a multiple of
#: 0xFFFF), and a NAT's inbound translation (a residue of neither).
_EDGE_REWRITES = {
    "same-endpoint": ((0xC6336401, 1_000), (0xC6336401, 1_000)),
    "zero-delta": ((0xFFFFFFFF, 0xFFFF), (0, 0)),
    "swapped-halves": ((0x0A000005, 4_000), (0x00050A00, 4_000)),
    "translation": ((0xC6336401, 1_000), (0x0A000001, 1_024)),
}


class TestClosureShapesOnEveryChecksumWord:
    """Each closure shape against the object rewrite it compiles, on
    every one of the 2**16 UDP checksum words a frame can carry, for
    rewrites whose deltas sit on one's-complement edges.

    Two shapes exist: the RFC one (the arriving checksum tested once,
    so a disabled checksum stays 0 and an enabled one takes every
    patch and never leaves as 0x0000) and the one ``UnverifiedNat`` compiles for its inbound
    actions, whose
    hand-rolled ``_patch_destination`` patches a 0 like any other word.
    """

    @staticmethod
    def _first_difference(old, compile, action, rewrite, rfc768=False):
        """The first checksum word on which ``compile(key, action)``'s
        closure and the object ``rewrite(packet)`` emit different bytes,
        or None after all 2**16. One packet is reset and rewritten per
        word: only the checksum word varies between frames. With
        ``rfc768`` an enabled (nonzero) arriving word that leaves as
        0x0000 is a difference too."""
        packet = make_udp_packet(
            old[0], old[0], old[1], old[1], payload=b"edge", device=1
        )
        frame = packet.wire_bytes()
        closure = compile(Packet.from_bytes(frame, 1).flow_key(), action)
        head, tail = frame[:40], frame[42:]
        pack = struct.Struct(">H").pack
        ipv4, udp = packet.ipv4, packet.l4
        ip_checksum = ipv4.checksum
        for word in range(0x10000):
            ipv4.src_ip = ipv4.dst_ip = old[0]
            udp.src_port = udp.dst_port = old[1]
            ipv4.checksum = ip_checksum
            udp.checksum = word
            rewrite(packet)
            out = closure(head + pack(word) + tail)
            if out != packet.wire_bytes():
                return word
            if rfc768 and word and out[40:42] == b"\x00\x00":
                return word
        return None

    @pytest.mark.parametrize("edge", sorted(_EDGE_REWRITES))
    def test_the_rfc_shape_is_the_shared_helpers(self, edge):
        old, new = _EDGE_REWRITES[edge]
        action = CachedAction(src=new, dst=new, out_device=1, token=None)

        def helpers(packet):
            rewrite(packet, src=new, dst=new)

        assert (
            self._first_difference(old, compile_action, action, helpers, rfc768=True)
            is None
        )

    @pytest.mark.parametrize("edge", sorted(_EDGE_REWRITES))
    def test_unverified_nats_inbound_closure_is_its_patch(self, edge):
        old, new = _EDGE_REWRITES[edge]
        action = CachedAction(src=None, dst=new, out_device=0, token=None)
        assert (
            self._first_difference(
                old,
                UnverifiedNat(NatConfig()).compile,
                action,
                lambda packet: UnverifiedNat._patch_destination(packet, *new),
            )
            is None
        )

    def test_the_zero_checked_shape_is_not_unverified_nats_patch(self):
        # The mutation sibling: compiled with the zero-check on, the
        # inbound closure keeps a disabled checksum at 0 where the
        # hand-rolled patch does not, and the sweep above finds it.
        old, new = _EDGE_REWRITES["translation"]
        action = CachedAction(src=None, dst=new, out_device=0, token=None)
        assert (
            self._first_difference(
                old,
                lambda key, action: compile_action(key, action, udp_zero_check=True),
                action,
                lambda packet: UnverifiedNat._patch_destination(packet, *new),
            )
            is not None
        )


def _outbound_hitting_zero(nat_ip, seed=7):
    """A seeded search for an outbound UDP frame whose checksum the
    address patch to ``nat_ip`` lands on 0x0000 (about one in 2**16)."""
    rng = random.Random(seed)
    while True:
        packet = make_udp_packet(
            0x0A000000 | rng.getrandbits(24),
            0x08080808,
            rng.randrange(1, 1 << 16),
            53,
            device=0,
        )
        if checksum_update_u32(packet.l4.checksum, packet.ipv4.src_ip, nat_ip) == 0:
            return packet


class TestTheUdpSentinelIsReadOnce:
    """RFC 768's "no checksum" is a property of the arriving packet: an
    enabled UDP checksum whose address patch passes through 0x0000 still
    takes its port patch, and leaves as a full recompute sets it."""

    def test_rewrite_and_closure_give_the_full_recompute(self):
        packet = _sentinel_frame()
        frame = packet.wire_bytes()
        action = CachedAction(src=None, dst=_SENTINEL_DST, out_device=1, token=None)
        closure = compile_action(Packet.from_bytes(frame, 0).flow_key(), action)
        rewrite(packet, dst=_SENTINEL_DST)
        recomputed = make_udp_packet(1, _SENTINEL_DST[0], 1, 1, payload=b"\n")
        assert packet.l4.checksum == recomputed.l4.checksum == 5424
        assert Packet.from_bytes(closure(bytearray(frame)), 1).l4.checksum == 5424

    def test_vignat_emits_the_full_recompute_slow_and_compiled(self):
        config = NatConfig()
        packet = _outbound_hitting_zero(config.external_ip)
        runtime = launch(
            RuntimeSpec(
                nf_factory=VigNat,
                config=config,
                execution=INLINE,
                fastpath="compiled",
            )
        )
        for now in (1, 2):  # the learn on the slow path, then a hit
            runtime.inject(0, packet.clone(), now)
            runtime.main_loop_burst(now, runtime.spec.burst_size)
        (_, _, slow), (_, _, hit) = runtime.collect()
        recomputed = make_udp_packet(
            config.external_ip, 0x08080808, slow.l4.src_port, 53, device=1
        )
        assert recomputed.l4.checksum != 0
        assert slow.wire_bytes() == hit.wire_bytes() == recomputed.wire_bytes()
        counters = runtime.op_counters()
        assert counters["fastpath_misses"] == counters["fastpath_compiles"] == 1
        assert counters["fastpath_compiled_hits"] == 1


class TestLearnTimeVerificationRejectsMiscompiles:
    """An injected compiler bug must never reach the data path: a learn
    byte-compares the closure it compiled against what the slow path
    emitted for that very frame, and caches nothing when they differ."""

    def test_wrong_bytes_rejected(self, monkeypatch):
        fast = FastPathNat(VigNat(NatConfig(max_flows=64)))
        slow = VigNat(NatConfig(max_flows=64))

        def miscompile(key, action):
            real = compile_action(key, action)
            return lambda buf: b"\x00" * len(real(buf))

        monkeypatch.setattr(LibvigNf, "compile", staticmethod(miscompile))
        packet = make_udp_packet("10.0.0.5", "8.8.8.8", 4_000, 53, device=0)
        for t, drive in ((1_000, _wire), (1_001, _wire), (1_002, _object)):
            assert drive(fast, packet, t) == _slow(slow, packet, t)
        counters = fast.op_counters()
        # Every packet, either way in, took the slow path and tried to
        # learn; no closure ever ran, and no action was ever cached.
        assert counters["fastpath_compile_rejected"] == 3
        assert counters["fastpath_misses"] == 3
        assert counters["fastpath_compiles"] == counters["fastpath_learns"] == 0
        assert counters["fastpath_hits"] == counters["fastpath_compiled_hits"] == 0
        assert fast.cache_size == 0


class TestClosuresAreEarnedOnTheRawPath:
    """The compile rule: a learn compiles the flow's closure and verifies
    it on the learning packet's frame — a wire-backed packet's image, or
    a materialised packet's serialization when that is canonical —
    against the slow path's own bytes, and every hit runs it, whichever
    state its packet arrives in. ("Raw" is a frame's bytes; there is one
    way in, ``process_burst``.)"""

    def _assert_compiled_hits(self, fast, slow, packet, t, drive):
        """Three hits of ``packet``'s flow, all compiled, none compiling."""
        before = fast.op_counters()
        for step in range(3):
            assert drive(fast, packet, t + step) == _slow(slow, packet, t + step)
        after = fast.op_counters()
        assert after["fastpath_misses"] == before["fastpath_misses"]
        assert after["fastpath_compiles"] == before["fastpath_compiles"]
        assert after["fastpath_hits"] - before["fastpath_hits"] == 3
        assert (
            after["fastpath_compiled_hits"] - before["fastpath_compiled_hits"]
            == 3
        )

    def _pair(self, **config):
        cfg = NatConfig(max_flows=64, **config)
        return FastPathNat(VigNat(cfg)), VigNat(cfg)

    def test_every_learn_compiles(self):
        fast, slow = self._pair()
        for i, drive in enumerate((_wire, _object)):
            packet = make_udp_packet(
                "10.0.0.5", "8.8.8.8", 4_000 + i, 53, device=0
            )
            assert drive(fast, packet, 1_000) == _slow(slow, packet, 1_000)
        counters = fast.op_counters()
        assert counters["fastpath_learns"] == counters["fastpath_compiles"] == 2
        assert all(action.closure for action in fast._cache.values())

    def test_object_path_learn_then_raw(self):
        # object -> wire: the materialised learn compiled the closure on
        # its serialization; materialised and wire-backed hits run it.
        fast, slow = self._pair()
        packet = make_udp_packet("10.0.0.5", "8.8.8.8", 4_000, 53, device=0)
        for t in (1_000, 1_001):
            assert _object(fast, packet, t) == _slow(slow, packet, t)
        counters = fast.op_counters()
        assert counters["fastpath_learns"] == counters["fastpath_compiles"] == 1
        assert counters["fastpath_hits"] == counters["fastpath_compiled_hits"] == 1
        self._assert_compiled_hits(fast, slow, packet, 1_002, _wire)

    def test_wire_backed_burst_earns_and_runs_closures(self):
        # The path behind launch(): process_burst over wire-backed packets.
        fast, slow = self._pair()
        packet = make_tcp_packet("10.0.0.5", "198.18.0.9", 4_000, 443, device=0)
        assert _wire(fast, packet, 1_000) == _slow(slow, packet, 1_000)
        assert fast.op_counters()["fastpath_compiles"] == 1
        self._assert_compiled_hits(fast, slow, packet, 1_001, _wire)

    def test_raw_learn_then_object_path(self):
        # wire -> object: materialised packets of the flow hit the closure
        # the wire-backed learn verified, through their serialization...
        fast, slow = self._pair()
        packet = make_udp_packet("10.0.0.5", "8.8.8.8", 4_000, 53, device=0)
        for t in (1_000, 1_001):
            assert _wire(fast, packet, t) == _slow(slow, packet, t)
        self._assert_compiled_hits(fast, slow, packet, 1_002, _object)
        # ...and leave it where wire-backed packets find it.
        self._assert_compiled_hits(fast, slow, packet, 1_005, _wire)
        counters = fast.op_counters()
        assert counters["fastpath_misses"] == counters["fastpath_compiles"] == 1
        assert counters["fastpath_hits"] == counters["fastpath_compiled_hits"] == 7

    def test_restore_state_drops_closures_and_they_are_earned_again(self):
        # A limiter that has seen only its pass-through direction holds
        # no open budget, so it restores into a live instance (VigNat
        # wants a fresh one) and the same wrapper sees both sides.
        fast, slow = FastPathNat(VigLimiter()), VigLimiter()
        packet = make_udp_packet("8.8.8.8", "10.0.0.5", 53, 4_000, device=1)
        for t in (1_000, 1_001):
            assert _wire(fast, packet, t) == _slow(slow, packet, t)
        assert fast.cache_size == 1
        fast.restore_state(fast.checkpoint_state())
        assert fast.cache_size == 0
        # Re-learn (one miss) compiles a fresh closure.
        assert _wire(fast, packet, 1_002) == _slow(slow, packet, 1_002)
        assert fast.cache_size == 1
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
        assert fast.cache_size == 2
        # ...while the flow's own expiry drops action and closure, so
        # its next incarnation's learn compiles a fresh one.
        assert _wire(fast, packet, 2_000) == _slow(slow, packet, 2_000)
        counters = fast.op_counters()
        assert counters["fastpath_invalidations"] == 2  # both flows expired
        assert counters["fastpath_compiles"] == 3
        assert fast.cache_size == 1
        self._assert_compiled_hits(fast, slow, packet, 2_001, _wire)

    def test_non_canonical_frame_of_a_compiled_flow_hits_through_its_serialization(
        self,
    ):
        # Trailing Ethernet padding: the parser takes it for payload, so
        # such a frame is never wire-backed. Its serialization rewrites
        # both length fields to cover it — canonical form, which the
        # closure runs on, emitting what the slow path emits for the
        # parsed frame.
        fast, slow = self._pair()
        packet = make_udp_packet("10.0.0.5", "8.8.8.8", 4_000, 53, device=0)
        assert _wire(fast, packet, 1_000) == _slow(slow, packet, 1_000)
        padded = Packet.from_bytes(packet.wire_bytes() + bytes(4), 0)
        assert padded.image is None
        for t in (1_001, 1_002):
            (outs,) = fast.process_burst([padded.clone()], t)
            assert [(o.wire_bytes(), o.device) for o in outs] == _slow(
                slow, padded, t
            )
        counters = fast.op_counters()
        assert counters["fastpath_misses"] == 1
        assert counters["fastpath_hits"] == counters["fastpath_compiled_hits"] == 2

    def test_a_packet_that_serializes_off_canonical_form_takes_the_slow_path(self):
        # A hand-built packet whose protocol field says TCP over a UDP
        # header: its key is the TCP flow's, but its 42-byte
        # serialization is no canonical TCP frame, so the closure that
        # flow learned never sees it.
        fast, slow = self._pair()
        tcp = make_tcp_packet("10.0.0.5", "8.8.8.8", 4_000, 53, device=0)
        assert _wire(fast, tcp, 1_000) == _slow(slow, tcp, 1_000)
        odd = make_udp_packet("10.0.0.5", "8.8.8.8", 4_000, 53, device=0)
        odd.ipv4.protocol = 6
        assert fast.action_for(odd.flow_key()) is not None
        for t in (1_001, 1_002):
            assert _object(fast, odd, t) == _slow(slow, odd, t)
        counters = fast.op_counters()
        assert counters["fastpath_misses"] == 3
        assert counters["fastpath_hits"] == 0

    def test_unverified_nat_compiles_its_own_shape(self):
        # Both directions compile: outbound the shared helpers' shape,
        # inbound the hand-rolled patch's, whose zero-UDP-checksum bug
        # the closure reproduces byte for byte.
        cfg = NatConfig(max_flows=64)
        fast, slow = FastPathNat(UnverifiedNat(cfg)), UnverifiedNat(cfg)
        packet = make_udp_packet("10.0.0.5", "8.8.8.8", 4_000, 53, device=0)
        for t in (1_000, 1_001):
            ((wire, _),) = _wire(fast, packet, t)
            assert [(wire, 1)] == _slow(slow, packet, t)
        reply = make_udp_packet(
            "8.8.8.8", cfg.external_ip, 53, Packet.from_bytes(wire, 1).l4.src_port,
            device=1,
        )
        reply.l4.checksum = 0
        for t, drive in ((1_002, _wire), (1_003, _wire), (1_004, _object)):
            ((back, _),) = drive(fast, reply, t)
            assert [(back, 0)] == _slow(slow, reply, t)
            assert Packet.from_bytes(back, 0).l4.checksum != 0  # the bug
        counters = fast.op_counters()
        assert counters["fastpath_compiles"] == 2
        assert counters["fastpath_hits"] == counters["fastpath_compiled_hits"] == 3
        assert counters["fastpath_compile_rejected"] == 0


    def test_unverified_nat_patches_an_unchanged_endpoint_too(self):
        # An inside host that sends from the NAT's own external endpoint
        # (the port the allocator hands out next): the translation leaves
        # both directions' endpoints as they were, but the NAT's rewrite
        # patches them anyway, which turns a checksum of 0xFFFF into 0 —
        # except outbound UDP, whose shared helper sends a computed 0 as
        # 0xFFFF (RFC 768). The closures must do the same.
        cfg = NatConfig(max_flows=64)
        for make in (make_udp_packet, make_tcp_packet):
            fast, slow = FastPathNat(UnverifiedNat(cfg)), UnverifiedNat(cfg)
            out = make(cfg.external_ip, "8.8.8.8", cfg.start_port, 53, device=0)
            back = make("8.8.8.8", cfg.external_ip, 53, cfg.start_port, device=1)
            for t, packet in enumerate((out, out, back, back), start=1_000):
                packet.l4.checksum = 0xFFFF
                ((emitted, _),) = _slow(slow, packet, t)
                assert _wire(fast, packet, t) == [(emitted, 1 - packet.device)]
                rfc768 = make is make_udp_packet and packet is out
                assert Packet.from_bytes(emitted, 0).l4.checksum == (
                    0xFFFF if rfc768 else 0
                )
            counters = fast.op_counters()
            assert counters["fastpath_compiled_hits"] == counters["fastpath_hits"] == 2
            assert counters["fastpath_compile_rejected"] == 0


class TestTheLearnChecksTheClosure:
    """A learn admits its action on the closure alone — compiled once,
    run on the learning packet's frame, compared with the slow path's
    bytes, which then leave as the output — and a hit compiles
    nothing."""

    def _action(self, fast, packet):
        return fast.action_for(Packet.from_bytes(packet.wire_bytes(), 0).flow_key())

    def test_the_learn_replays_nothing(self):
        cfg = NatConfig(max_flows=64)
        fast, slow = FastPathNat(VigNat(cfg)), VigNat(cfg)
        packet = make_udp_packet("10.0.0.5", "8.8.8.8", 4_000, 53, device=0)
        wire_backed = Packet.from_bytes(packet.wire_bytes(), 0)
        ((out,),) = fast.process_burst([wire_backed], 1_000)  # learn
        assert out.image is not None
        assert [(out.wire_bytes(), out.device)] == _slow(slow, packet, 1_000)
        closure = self._action(fast, packet).closure
        assert closure(packet.wire_bytes()) == out.image
        assert _wire(fast, packet, 1_001) == _slow(slow, packet, 1_001)  # hit
        assert self._action(fast, packet).closure is closure
        counters = fast.op_counters()
        assert counters["fastpath_compiles"] == 1
        assert counters["fastpath_compiled_hits"] == 1

    def test_the_first_materialised_packet_checks_the_closure_on_its_serialization(
        self, monkeypatch
    ):
        cfg = NatConfig(max_flows=64)
        fast, slow = FastPathNat(VigNat(cfg)), VigNat(cfg)
        ran_on = []

        def compile_and_record(key, action):
            closure = compile_action(key, action)

            def recorded(image):
                ran_on.append(image)
                return closure(image)

            return recorded

        monkeypatch.setattr(LibvigNf, "compile", staticmethod(compile_and_record))
        packet = make_udp_packet("10.0.0.5", "8.8.8.8", 4_000, 53, device=0)
        assert _object(fast, packet, 1_000) == _slow(slow, packet, 1_000)  # learn
        assert ran_on == [packet.wire_bytes()]
        assert _object(fast, packet, 1_001) == _slow(slow, packet, 1_001)  # hit
        assert ran_on == [packet.wire_bytes()] * 2
        counters = fast.op_counters()
        assert counters["fastpath_misses"] == counters["fastpath_compiles"] == 1
        assert counters["fastpath_hits"] == counters["fastpath_compiled_hits"] == 1


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
        # An evicted flow keeps no closure behind: its next packet learns.
        assert counters["fastpath_compiles"] == 6
        packet = make_udp_packet("10.0.0.5", "8.8.8.8", 4_000, 53, device=0)
        _wire(fast, packet, 1_010)
        assert fast.op_counters()["fastpath_compiles"] == 7

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
        assert fast.cache_size == 2
        # The rival, kept alive alone, outlives the first flow: the
        # expiry scan that frees the first flow takes its action and
        # closure along, and nothing of the rival's.
        for t in (1_080, 1_160):
            assert _wire(fast, rival, t) == _slow(slow, rival, t)
        counters = fast.op_counters()
        assert counters["fastpath_invalidations"] == 1
        assert fast.cache_size == 1
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
        assert fast.cache_size == 4
        fast.restore_state(fast.checkpoint_state())
        assert fast.cache_size == 0

    def test_restore_tells_the_downstream_observer(self):
        # A cache built over this one (a chain's fused entries) must not
        # outlive an action that a restore clears.
        fast, told = FastPathNat(VigLimiter()), []
        fast.on_flow_freed(told.extend)
        packet = make_udp_packet("8.8.8.8", "10.0.0.5", 53, 4_000, device=1)
        _wire(fast, packet, 1_000)
        cached = list(fast._cache)
        assert len(cached) == 1
        fast.restore_state(fast.checkpoint_state())
        assert told == cached
