"""An action lives exactly as long as its flow.

The microflow cache has one invalidation: the wrapped NF's flow-free
routine reports a dying flow's two keys before it releases the flow's
slot, and the cache drops those actions there and then. Two things
follow that this file holds it to.

**The gauges are honest.** Under churn the cache holds at most two
actions per *live* flow — not everything ever learned — each flow is
learned once per direction, and the hit ratio reaches the traffic's own
ceiling (``nat-churn``'s shape: every frame but a flow's first hits).

**The hazard the global generation existed for cannot happen.** Flow A
expires and its index and external port go to flow B (libVig's free
list is LIFO, so the very next create reuses them). A's old actions
must be gone by then: a reply to the shared external port reaches B's
host, a late packet of A's 5-tuple takes the slow path and gets
whatever it allocates now, and neither flow's hits keep the other
alive. Every step is compared byte-for-byte with an unwrapped twin.

The firewall and the limiter publish the same hooks and are held to the
same rule on their own state: a session's two actions die with the
session (index reuse included), and a budget's actions die when the
window closes *or the budget is spent* — a hit spends a packet, so the
frame that takes the last of the budget passes and the next one drops,
on the hit path exactly as on the slow path.
"""

import random
from collections import deque

import pytest

from repro.nat.config import NatConfig
from repro.nat.fastpath import FastPathNat
from repro.nat.firewall import VigFirewall
from repro.nat.flow import flow_id_of_packet
from repro.nat.limiter import LimiterConfig, VigLimiter
from repro.nat.unverified import UnverifiedNat
from repro.nat.vignat import VigNat
from repro.packets.builder import make_tcp_packet, make_udp_packet
from repro.packets.headers import Packet
from tests.nat.cache_invariant import assert_cache_within_live_flows, flow_state

REMOTE = "198.18.0.9"


# -- one packet through each entry point, rendered alike ---------------------
def _process(nf, packet, now):
    return [(o.wire_bytes(), o.device) for o in nf.process(packet.clone(), now)]


def _burst(nf, packet, now):
    """As every runtime behind ``launch()`` hands it over: wire-backed."""
    (outs,) = nf.process_burst(
        [Packet.from_bytes(packet.wire_bytes(), packet.device)], now
    )
    return [(o.wire_bytes(), o.device) for o in outs]


def _process_wire(nf, packet, now):
    """The per-packet entry point, handed a wire-backed packet."""
    outs = nf.process(Packet.from_bytes(packet.wire_bytes(), packet.device), now)
    return [(o.wire_bytes(), o.device) for o in outs]


DRIVES = {"process": _process, "process_burst": _burst, "process_wire": _process_wire}

GRID = [
    pytest.param(VigNat, "process", id="vignat-process"),
    pytest.param(VigNat, "process_burst", id="vignat-burst"),
    pytest.param(VigNat, "process_wire", id="vignat-wire"),
    pytest.param(UnverifiedNat, "process", id="unverified-process"),
    pytest.param(UnverifiedNat, "process_burst", id="unverified-burst"),
]


class _Pair:
    """A wrapped NF and its unwrapped twin, stepped in lockstep."""

    def __init__(self, nf_class, drive, config=None, **nat_config):
        self.config = config or NatConfig(start_port=1000, **nat_config)
        self.fast = FastPathNat(nf_class(self.config))
        self.slow = nf_class(self.config)
        self._drive = DRIVES[drive]

    def step(self, packet, now):
        """Both NFs see ``packet``; the wire must not tell them apart.
        Returns the parsed outputs."""
        got = self._drive(self.fast, packet, now)
        assert got == _process(self.slow, packet, now)
        assert_cache_within_live_flows(self.fast)
        return [Packet.from_bytes(wire, device) for wire, device in got]

    def reply_to(self, external_port):
        return make_udp_packet(
            REMOTE, self.config.external_ip, 53, external_port, device=1
        )

    def counters(self):
        return self.fast.op_counters()

    def assert_same_flow_state(self):
        """Same flows, same ages, same allocator: no hit touched a flow
        the slow path would not have, and none was left untouched."""
        assert flow_state(self.fast) == flow_state(self.slow)


def _host_packet(host, sport):
    return make_udp_packet(f"10.0.0.{host}", REMOTE, sport, 53, device=0)


@pytest.mark.parametrize("nf_class,drive", GRID)
def test_expired_flows_slot_and_port_reused_by_a_rival(nf_class, drive):
    pair = _Pair(nf_class, drive, max_flows=4, expiration_time=100)
    flow_a = _host_packet(5, 4_000)
    flow_b = _host_packet(6, 5_000)  # same remote endpoint as A

    # A is established and hot in both directions.
    (out,) = pair.step(flow_a, 0)
    port = out.l4.src_port
    pair.step(flow_a, 1)
    for t in (2, 3):
        (back,) = pair.step(pair.reply_to(port), t)
        assert (back.ipv4.dst_ip, back.l4.dst_port) == (0x0A000005, 4_000)
    assert pair.counters()["fastpath_hits"] == 2
    assert pair.fast.cache_size == 2

    # A expires; B is the very next create and inherits A's slot: same
    # external port, hence the *same reply key* A's reply action had.
    (out,) = pair.step(flow_b, 500)
    assert out.l4.src_port == port
    assert pair.counters()["fastpath_invalidations"] == 2
    assert pair.fast.cache_size == 1

    # (i) a reply to that port reaches B's host, not A's.
    (back,) = pair.step(pair.reply_to(port), 501)
    assert (back.ipv4.dst_ip, back.l4.dst_port) == (0x0A000006, 5_000)

    # (ii) a late packet of A's 5-tuple is a miss, and the slow path
    # gives it whatever it allocates now — not the port B holds.
    misses = pair.counters()["fastpath_misses"]
    (out,) = pair.step(flow_a, 502)
    assert pair.counters()["fastpath_misses"] == misses + 1
    port_a = out.l4.src_port
    assert port_a != port

    # (iii) neither keeps the other alive. B alone is kept hot...
    hits = pair.counters()["fastpath_hits"]
    for t in (560, 600):
        pair.step(flow_b, t)
    assert pair.counters()["fastpath_hits"] == hits + 2
    # ...so A's second incarnation dies on schedule while B lives on;
    assert pair.step(pair.reply_to(port_a), 640) == []
    (back,) = pair.step(pair.reply_to(port), 641)
    assert (back.ipv4.dst_ip, back.l4.dst_port) == (0x0A000006, 5_000)
    # ...then A (a third incarnation) alone is kept hot, and B dies.
    (out,) = pair.step(flow_a, 642)
    port_a = out.l4.src_port
    for t in (700, 740):
        pair.step(flow_a, t)
    assert pair.step(pair.reply_to(port), 760) == []
    (back,) = pair.step(pair.reply_to(port_a), 761)
    assert (back.ipv4.dst_ip, back.l4.dst_port) == (0x0A000005, 4_000)

    pair.assert_same_flow_state()
    counters = pair.counters()
    # Every hit ran a closure, whatever state its packet arrived in.
    assert counters["fastpath_compiled_hits"] == counters["fastpath_hits"] > 0
    assert counters["fastpath_compile_rejected"] == 0


@pytest.mark.parametrize("drive", ["process", "process_burst"])
def test_unverified_eviction_when_full_takes_the_victims_actions(drive):
    """The unverified NAT's other way to end a flow: a newcomer to a
    full table evicts the oldest *live* flow (and leaks its port)."""
    pair = _Pair(UnverifiedNat, drive, max_flows=2, expiration_time=10_000)
    flow_a, flow_c, flow_b = (_host_packet(h, 4_000 + h) for h in (5, 7, 6))

    ports = {}
    for t, (name, flow) in enumerate((("a", flow_a), ("c", flow_c))):
        (out,) = pair.step(flow, 10 * t)
        ports[name] = out.l4.src_port
        pair.step(flow, 10 * t + 1)
        for dt in (2, 3):
            pair.step(pair.reply_to(ports[name]), 10 * t + dt)
    assert pair.fast.cache_size == 4
    assert pair.counters()["fastpath_hits"] == 4

    # The table is full: B's arrival evicts A, the oldest, mid-burst.
    (out,) = pair.step(flow_b, 100)
    assert pair.counters()["evicted"] == 1
    assert pair.counters()["fastpath_invalidations"] == 2
    assert out.l4.src_port not in ports.values()  # A's port leaked, not reused

    # (i) A's old port is dead; B's and C's translations stand.
    assert pair.step(pair.reply_to(ports["a"]), 101) == []
    (back,) = pair.step(pair.reply_to(ports["c"]), 102)
    assert (back.ipv4.dst_ip, back.l4.dst_port) == (0x0A000007, 4_007)
    # (ii) a late packet of A's is a miss: a fresh flow, a fresh port,
    # and the table's now-oldest flow (B) pays for it.
    misses = pair.counters()["fastpath_misses"]
    (out,) = pair.step(flow_a, 103)
    assert pair.counters()["fastpath_misses"] == misses + 1
    assert out.l4.src_port not in ports.values()
    assert pair.counters()["evicted"] == 2
    assert pair.fast.cache_size <= 2 * pair.fast.flow_count()
    # (iii) hits moved the LRU exactly as the slow path would have.
    pair.assert_same_flow_state()


# -- the firewall: a session's two actions die with the session --------------
FILTER_DRIVES = ["process", "process_burst", "process_wire"]


def _reply_of(packet):
    """The frame the remote end sends back (the firewall rewrites nothing)."""
    return make_udp_packet(
        packet.ipv4.dst_ip,
        packet.ipv4.src_ip,
        packet.l4.dst_port,
        packet.l4.src_port,
        device=1,
    )


@pytest.mark.parametrize("drive", FILTER_DRIVES)
def test_firewall_expired_sessions_index_reused_by_a_rival(drive):
    pair = _Pair(VigFirewall, drive, max_flows=2, expiration_time=100)
    flow_a, flow_b, flow_c = (_host_packet(h, 4_000 + h) for h in (5, 6, 7))

    # A is established and hot in both directions.
    for t in (0, 1):
        assert len(pair.step(flow_a, t)) == 1
    for t in (2, 3):
        assert len(pair.step(_reply_of(flow_a), t)) == 1
    assert pair.counters()["fastpath_hits"] == 2
    assert pair.fast.cache_size == 2
    sessions = pair.fast.inner._sessions
    assert sessions.get_by_a(flow_id_of_packet(flow_a)) == 0

    # An unsolicited external probe is a drop, never cached: every one
    # of them meets the slow path.
    misses = pair.counters()["fastpath_misses"]
    for t in (4, 5):
        assert pair.step(_reply_of(flow_b), t) == []
    assert pair.counters()["fastpath_misses"] == misses + 2
    assert pair.fast.cache_size == 2

    # A expires; B is the very next create and inherits A's index.
    assert len(pair.step(flow_b, 500)) == 1
    assert sessions.get_by_a(flow_id_of_packet(flow_b)) == 0
    assert pair.counters()["fastpath_invalidations"] == 2
    assert pair.fast.cache_size == 1
    # (i) A's old reply action is gone: its reply is unsolicited now.
    assert pair.step(_reply_of(flow_a), 501) == []
    # (ii) B's own reply passes, under the index A used to hold.
    assert len(pair.step(_reply_of(flow_b), 502)) == 1
    # (iii) the table fills; a new flow beside cached live ones is
    # refused by the slow path every time, and costs them nothing.
    assert len(pair.step(flow_c, 503)) == 1
    hits = pair.counters()["fastpath_hits"]
    for t in (504, 505):
        assert pair.step(flow_a, t) == []  # table full: never evicts
        assert len(pair.step(flow_b, t)) == 1
        assert len(pair.step(flow_c, t)) == 1
    assert pair.counters()["fastpath_hits"] == hits + 4
    # (iv) hits alone keep B alive while C, left idle, dies on schedule.
    for t in (560, 600, 650):
        assert len(pair.step(flow_b, t)) == 1
    assert pair.step(_reply_of(flow_c), 651) == []
    assert len(pair.step(_reply_of(flow_b), 652)) == 1

    pair.assert_same_flow_state()
    counters = pair.counters()
    assert counters["fastpath_compiled_hits"] == counters["fastpath_hits"] > 0
    assert counters["fastpath_compile_rejected"] == 0


# -- the limiter: a hit spends a packet; spent or closed budgets own nothing --
def _limiter_pair(drive, **config):
    return _Pair(VigLimiter, drive, config=LimiterConfig(**config))


@pytest.mark.parametrize("drive", FILTER_DRIVES)
def test_limiter_budget_spent_on_the_hit_path_drops_the_next_frame(drive):
    budget = 5
    pair = _limiter_pair(drive, capacity=4, window=1_000, max_packets=budget)
    flow = _host_packet(5, 4_000)
    sibling = _host_packet(5, 4_001)  # same source, another 5-tuple
    back = _reply_of(flow)

    # Frame 1 opens the budget and is learned from; frame 3 is the
    # sibling's first (a miss that spends, too); the rest are hits.
    for n in range(1, budget + 1):
        assert len(pair.step(flow if n != 3 else sibling, n)) == 1, n
    assert pair.counters()["fastpath_hits"] == budget - 2
    assert pair.fast.inner.budget_used(0x0A000005) == budget
    # The frame that took the last of the budget took the source's
    # actions with it — both 5-tuples' — so frame budget+1 is a miss
    # and the slow path drops it.
    assert pair.fast.cache_size == 0
    misses = pair.counters()["fastpath_misses"]
    assert pair.step(flow, budget + 1) == []
    assert pair.step(sibling, budget + 2) == []
    assert pair.counters()["fastpath_misses"] == misses + 2
    # The other direction is pass-through, budget or no budget.
    for t in (10, 11, 12):
        assert len(pair.step(back, t)) == 1
    assert pair.counters()["fastpath_hits"] == budget - 2 + 2

    # The window closes on schedule — hits never refreshed it — and the
    # same source is re-admitted under the index it held before.
    assert len(pair.step(flow, 1_001)) == 1
    assert pair.fast.inner.budget_used(0x0A000005) == 1
    assert pair.fast.inner._table.get(0x0A000005) == 0
    for t in (1_002, 1_003):
        assert len(pair.step(flow, t)) == 1
    assert pair.fast.inner.budget_used(0x0A000005) == 3
    pair.assert_same_flow_state()
    assert pair.counters()["fastpath_compile_rejected"] == 0


@pytest.mark.parametrize("wire", [False, True], ids=["objects", "wire-backed"])
@pytest.mark.parametrize("path", ["hit-path", "miss-path"])
def test_limiter_budget_spent_mid_burst(path, wire):
    """One burst carries a source across its budget: frame
    ``max_packets`` passes and frame ``max_packets + 1`` drops, whether
    the frames are hits (one 5-tuple, over and over) or misses (a new
    5-tuple each time: every frame meets the slow path)."""
    budget = 6
    config = LimiterConfig(capacity=4, window=1_000, max_packets=budget)
    fast, slow = FastPathNat(VigLimiter(config)), VigLimiter(config)
    frames = [
        _host_packet(5, 4_000 + (n if path == "miss-path" else 0))
        for n in range(budget + 2)
    ]
    offered = [
        Packet.from_bytes(p.wire_bytes(), p.device) if wire else p.clone()
        for p in frames
    ]
    got = fast.process_burst(offered, 5)
    want = slow.process_burst([p.clone() for p in frames], 5)
    assert [[(o.wire_bytes(), o.device) for o in outs] for outs in got] == [
        [(o.wire_bytes(), o.device) for o in outs] for outs in want
    ]
    assert [len(outs) for outs in got] == [1] * budget + [0, 0]
    assert fast.inner.budget_used(0x0A000005) == budget
    # Every frame but the first hit, or none did; either way the frame
    # that spent the budget left the source no action to hit with.
    hits = budget - 1 if path == "hit-path" else 0
    assert fast.op_counters()["fastpath_hits"] == hits
    assert fast.cache_size == 0
    assert_cache_within_live_flows(fast)
    assert flow_state(fast) == flow_state(slow)


# -- churn: the gauges count live flows' actions, nothing else ---------------
CHURN_BURST = 8
CHURN_NEW = 2
CHURN_RECENT = 16
CHURN_BURSTS = 2_000


def _churn_flow(n):
    make = make_udp_packet if n % 2 == 0 else make_tcp_packet
    return make(0x0A000001 + n % 251, REMOTE, 1_024 + n // 251, 443, device=0)


def _churn_reply(n, config, external_port):
    make = make_udp_packet if n % 2 == 0 else make_tcp_packet
    return make(REMOTE, config.external_ip, 443, external_port, device=1)


def _run_churn(nf_class, replies):
    """``nat-churn``'s shape on a small table: each burst brings
    ``CHURN_NEW`` never-seen flows beside frames to the newest
    ``CHURN_RECENT``; flows outlive the recent window and then expire,
    so slots and ports are reused all the time. With ``replies``, half
    the frames to known flows come back from the remote side, and some
    target the port of a flow that left the window long ago."""
    config = NatConfig(max_flows=64, expiration_time=12, start_port=1000)
    fast, slow = FastPathNat(nf_class(config)), nf_class(config)
    rng = random.Random(20170821)
    recent = deque(maxlen=CHURN_RECENT)
    external = {}
    born = 0
    probes = {}
    for now in range(CHURN_BURSTS):
        flows = list(range(born, born + CHURN_NEW))
        born += CHURN_NEW
        recent.extend(flows)
        flows += rng.choices(recent, k=CHURN_BURST - CHURN_NEW)
        rng.shuffle(flows)
        burst = []
        for n in flows:
            if replies and rng.random() < 0.1 and n >= 200:
                n -= 200  # long gone; its port is some newer flow's now
            if replies and n in external and rng.random() < 0.5:
                burst.append((None, _churn_reply(n, config, external[n])))
            else:
                burst.append((n, _churn_flow(n)))
        want = slow.process_burst([p.clone() for _n, p in burst], now)
        got = fast.process_burst(
            [Packet.from_bytes(p.wire_bytes(), p.device) for _n, p in burst], now
        )
        assert [[(o.wire_bytes(), o.device) for o in outs] for outs in got] == [
            [(o.wire_bytes(), o.device) for o in outs] for outs in want
        ]
        for (n, _packet), outs in zip(burst, want):
            if n is not None and outs:
                external[n] = outs[0].l4.src_port
        assert_cache_within_live_flows(fast, probes)
    return fast


def _flows_created(fast):
    counters = fast.op_counters()
    return counters["expired"] + counters.get("evicted", 0) + fast.flow_count()


@pytest.mark.parametrize("nf_class", [VigNat, UnverifiedNat])
def test_churn_forward_only_hits_all_but_each_flows_first_frame(nf_class):
    fast = _run_churn(nf_class, replies=False)
    counters = fast.op_counters()
    created = _flows_created(fast)
    assert created == CHURN_BURSTS * CHURN_NEW
    assert counters["expired"] > created - 64  # the table turned over
    # One learn per flow, one invalidation per dead flow, and every
    # frame but a flow's first is a hit: the shape's ceiling.
    assert counters["fastpath_learns"] == created
    assert counters["fastpath_invalidations"] == counters["expired"]
    assert counters["fastpath_evictions"] == 0
    assert fast.hit_rate() >= 0.70
    assert fast.hit_rate() == pytest.approx(1 - CHURN_NEW / CHURN_BURST)
    assert fast.cache_size == fast.flow_count()
    assert counters["fastpath_compiled_hits"] == counters["fastpath_hits"]


@pytest.mark.parametrize("nf_class", [VigNat, UnverifiedNat])
def test_churn_both_directions_caches_live_flows_only(nf_class):
    fast = _run_churn(nf_class, replies=True)
    counters = fast.op_counters()
    created = _flows_created(fast)
    assert created >= CHURN_BURSTS * CHURN_NEW
    assert created < counters["fastpath_learns"] <= 2 * created
    assert (
        counters["expired"]
        < counters["fastpath_invalidations"]
        <= 2 * counters["expired"]
    )
    assert counters["fastpath_evictions"] == 0
    assert fast.flow_count() < fast.cache_size <= 2 * fast.flow_count()
    assert fast.hit_rate() > 0.5
