"""What each loop-bound NF does on the wire, pinned before its concrete
half is refactored.

One case per NF that binds a ``*_loop_iteration`` to real packets —
``VigNat``, ``VigFirewall``, ``VigLimiter``, ``VigBridge``, ``DetNat`` —
unwrapped, and behind ``FastPathNat`` where the NF publishes hooks. Each
case drives one seeded schedule (bursts of 0-13 frames through
``process`` and ``process_burst``, both directions, header-built and
wire-backed packets, gaps that cross the expiry time, more sources than
the table holds, a non-IPv4 frame, an unknown device) and holds the NF
to three goldens:

- the SHA-256 of every emitted ``(device, wire_bytes)``, burst by burst;
- the SHA-256 of the final ``checkpoint_state()`` minus ``"counters"``;
- the ``op_counters()`` the NF reported when this file was written, key
  by key (an NF may report *more* keys later; these keep their values).

The schedule never runs the clock backwards: what a regressing ``now``
does is ``test_burst_equivalence.py``'s subject, and differs by design
between the commit this file was written at and its successors.

A digest that moves means deployed behaviour changed. Regenerate with
``PYTHONPATH=src python -m tests.nat.test_concrete_goldens`` and say in
the commit what the NF now does differently.
"""

import hashlib
import json
import random

import pytest

from repro.nat.bridge import BridgeConfig, VigBridge
from repro.nat.cgnat import CgnatConfig, DetNat
from repro.nat.config import NatConfig
from repro.nat.fastpath import FastPathNat
from repro.nat.firewall import VigFirewall
from repro.nat.limiter import LimiterConfig, VigLimiter
from repro.nat.vignat import VigNat
from repro.packets.addresses import ip_to_int
from repro.packets.builder import make_tcp_packet, make_udp_packet
from repro.packets.headers import EthernetHeader, Packet

SEED = 23
BURSTS = 160
LIFETIME_US = 1_000_000
INTERNAL_BASE = ip_to_int("10.0.0.0")
BROADCAST = b"\xff" * 6
#: Mostly inside a flow's lifetime, now and then past it.
GAPS_US = (0, 1, 500, 5_000, 5_000, 40_000, 250_000, LIFETIME_US + 200_000)

NAT_CFG = NatConfig(max_flows=8, expiration_time=LIFETIME_US, start_port=1_000)

FACTORIES = {
    "nat": lambda: VigNat(NAT_CFG),
    "firewall": lambda: VigFirewall(NAT_CFG),
    "limiter": lambda: VigLimiter(
        LimiterConfig(capacity=8, window=LIFETIME_US, max_packets=4)
    ),
    "bridge": lambda: VigBridge(BridgeConfig(capacity=8, aging_time=LIFETIME_US)),
    "cgnat": lambda: DetNat(
        CgnatConfig(
            start_port=1_000,
            max_flows=16,
            subscriber_count=8,
            internal_base=INTERNAL_BASE,
            internal_port_base=4_000,
        )
    ),
}

#: (nf, wrapped) -> (outputs digest, state digest, op_counters)
GOLDEN = {
    ("nat", False): (
        "fe94650929d8f21c26eb3a3db16dba75415556c6a92cf1e204753f6e136d6f79",
        "f4e5bdd426a98eaf372816312e0087fa3160153e60b9b5453cef04a9613f698c",
        {
            "map_probes": 2224,
            "expired": 90,
            "dropped": 289,
            "forwarded": 218,
            "expiry_scans_amortized": 369,
            "clock_clamped": 0,
            "bursts": 133,
            "burst_packets": 480,
        },
    ),
    ("nat", True): (
        "fe94650929d8f21c26eb3a3db16dba75415556c6a92cf1e204753f6e136d6f79",
        "f4e5bdd426a98eaf372816312e0087fa3160153e60b9b5453cef04a9613f698c",
        {
            "map_probes": 2109,
            "expired": 90,
            "dropped": 289,
            "forwarded": 147,
            "expiry_scans_amortized": 0,
            "clock_clamped": 0,
            "bursts": 133,
            "burst_packets": 480,
            "fastpath_hits": 71,
            "fastpath_misses": 436,
            "fastpath_invalidations": 136,
            "fastpath_evictions": 0,
            "fastpath_learns": 147,
            "fastpath_compiles": 147,
            "fastpath_compile_rejected": 0,
            "fastpath_compiled_hits": 71,
        },
    ),
    ("firewall", False): (
        "965eed71ca045d44a050c65e84baf712861c7db57fbc57fa748b26272df7239d",
        "ed584d90c49f972aeb9e4dc3da823094b380d0e979fa3d1bc2728b6be597922c",
        {
            "map_probes": 2389,
            "expired": 89,
            "dropped": 306,
            "forwarded": 201,
        },
    ),
    ("firewall", True): (
        "965eed71ca045d44a050c65e84baf712861c7db57fbc57fa748b26272df7239d",
        "ed584d90c49f972aeb9e4dc3da823094b380d0e979fa3d1bc2728b6be597922c",
        {
            "map_probes": 2263,
            "expired": 89,
            "dropped": 306,
            "forwarded": 144,
            "bursts": 133,
            "burst_packets": 480,
            "fastpath_hits": 57,
            "fastpath_misses": 450,
            "fastpath_invalidations": 133,
            "fastpath_evictions": 0,
            "fastpath_learns": 144,
            "fastpath_compiles": 144,
            "fastpath_compile_rejected": 0,
            "fastpath_compiled_hits": 57,
        },
    ),
    ("limiter", False): (
        "b79aea1b635220494dfb799a9cc7f55e2f7972e3eb3ef19952e854ba40692805",
        "b7f809e9f96ba449b89572daa72270f43bdf6a1994b62746391a0a064aaeade8",
        {
            "map_probes": 631,
            "expired": 84,
            "dropped": 113,
            "forwarded": 394,
        },
    ),
    ("limiter", True): (
        "b79aea1b635220494dfb799a9cc7f55e2f7972e3eb3ef19952e854ba40692805",
        "b7f809e9f96ba449b89572daa72270f43bdf6a1994b62746391a0a064aaeade8",
        {
            "map_probes": 872,
            "expired": 84,
            "dropped": 113,
            "forwarded": 290,
            "bursts": 133,
            "burst_packets": 480,
            "fastpath_hits": 104,
            "fastpath_misses": 403,
            "fastpath_invalidations": 167,
            "fastpath_evictions": 0,
            "fastpath_learns": 268,
            "fastpath_compiles": 268,
            "fastpath_compile_rejected": 0,
            "fastpath_compiled_hits": 104,
        },
    ),
    ("bridge", False): (
        "94ff027d5e0f49e3a0dfe109c43d2611193ad720c6cf65f3fa58cd856abcb2e0",
        "501a6e4819fae6ac95906c55be5530bbfbc68ced3fea5df745d1148a3fe2753f",
        {
            "map_probes": 3670,
            "expired": 91,
            "dropped": 38,
            "forwarded": 466,
        },
    ),
    ("cgnat", False): (
        "628eb2c773f4f453a1fa9c8fb5801ead69d5e095e890d393fca450f429c7cacf",
        "44136fa355b3678a1146ad16f7e8649e94fb4fc21fe77e8310c060f61caaff8a",
        {
            "forwarded": 335,
            "dropped": 156,
            "dropped_out_of_domain": 138,
            "bursts": 129,
            "burst_packets": 460,
        },
    ),
}


def internal_mac(host):
    return bytes((2, 0, 0, 0, 0, 0x10 + host))


def remote_mac(remote):
    return bytes((2, 0, 0, 0, 1, remote))


def outbound(rng, device=0):
    """A frame from one of 12 internal hosts (4 source ports each, so 48
    flows against 8 slots; skewed, so some flows recur and hit) to one
    of 3 remotes."""
    host, remote = int(12 * rng.random() ** 2), rng.randrange(3)
    make = make_udp_packet if rng.random() < 0.7 else make_tcp_packet
    packet = make(
        INTERNAL_BASE + host,
        ip_to_int("8.8.8.1") + remote,
        4_000 + int(4 * rng.random() ** 3),
        53,
        payload=bytes(rng.randrange(4)),
        device=device,
    )
    packet.eth.src = internal_mac(host)
    # Mostly towards a remote; sometimes to a neighbour on the same
    # segment (the bridge's filter case) or to everyone.
    where = rng.random()
    if where < 0.80:
        packet.eth.dst = remote_mac(remote)
    elif where < 0.95:
        packet.eth.dst = internal_mac(rng.randrange(12))
    else:
        packet.eth.dst = BROADCAST
    return packet


def reply_to(emitted):
    """The frame a remote sends back to what the NF emitted outside."""
    make = make_udp_packet if emitted.ipv4.protocol == 17 else make_tcp_packet
    packet = make(
        emitted.ipv4.dst_ip,
        emitted.ipv4.src_ip,
        emitted.l4.dst_port,
        emitted.l4.src_port,
        payload=b"ok",
        device=1,
    )
    packet.eth.src, packet.eth.dst = emitted.eth.dst, emitted.eth.src
    return packet


def unsolicited(rng):
    packet = make_udp_packet(
        "8.8.8.9", NAT_CFG.external_ip, 53, 990 + rng.randrange(40), device=1
    )
    packet.eth.src = remote_mac(9)
    return packet


def next_frame(rng, seen_outside):
    kind = rng.random()
    if kind < 0.55 or (kind < 0.90 and not seen_outside):
        return outbound(rng)
    if kind < 0.90:
        return reply_to(rng.choice(seen_outside))
    if kind < 0.96:
        return unsolicited(rng)
    if kind < 0.98:
        return Packet(
            eth=EthernetHeader(BROADCAST, internal_mac(0), 0x0806),
            payload=b"who-has",
            device=rng.randrange(2),
        )
    return outbound(rng, device=7)


def measure(name, wrapped):
    """Drive the schedule; (outputs digest, state digest, op_counters)."""
    nf = FACTORIES[name]()
    if wrapped:
        nf = FastPathNat(nf)
    rng = random.Random(SEED)
    outputs_digest = hashlib.sha256()
    seen_outside = []
    now = 1_000
    for _ in range(BURSTS):
        now += rng.choice(GAPS_US)
        frames = []
        for _ in range(rng.choice((0, 1, 1, 1, 2, 3, 5, 8, 13))):
            packet = next_frame(rng, seen_outside)
            if rng.random() < 0.5:
                packet = Packet.from_bytes(packet.to_bytes(), packet.device)
            frames.append(packet)
        if len(frames) == 1 and rng.random() < 0.5:
            results = [nf.process(frames[0], now)]
        else:
            results = nf.process_burst(frames, now)
        assert len(results) == len(frames)
        for outputs in results:
            outputs_digest.update(b"|")
            for out in outputs:
                wire = out.wire_bytes()
                outputs_digest.update(b"%d:%d:" % (out.device, len(wire)) + wire)
                if out.device == 1 and out.ipv4 is not None and out.l4 is not None:
                    seen_outside.append(out)
        del seen_outside[:-16]
        outputs_digest.update(b"#")
    state = nf.checkpoint_state()
    state.pop("counters", None)
    state_digest = hashlib.sha256(
        json.dumps(state, sort_keys=True).encode()
    ).hexdigest()
    return outputs_digest.hexdigest(), state_digest, dict(nf.op_counters())


def cases():
    for name, factory in FACTORIES.items():
        yield name, False
        if factory().fastpath_hooks() is not None:
            yield name, True


def test_every_case_is_pinned():
    assert set(GOLDEN) == set(cases())
    assert sum(wrapped for _name, wrapped in GOLDEN) == 3


@pytest.mark.parametrize(("name", "wrapped"), sorted(GOLDEN))
def test_schedule_matches_its_goldens(name, wrapped):
    outputs_digest, state_digest, counters = measure(name, wrapped)
    golden_outputs, golden_state, golden_counters = GOLDEN[(name, wrapped)]
    assert outputs_digest == golden_outputs
    assert state_digest == golden_state
    assert {key: counters.get(key) for key in golden_counters} == golden_counters


@pytest.mark.parametrize(("name", "wrapped"), sorted(GOLDEN))
def test_schedule_exercises_what_it_claims(name, wrapped):
    """The goldens would pin little if the schedule never filled the
    table, crossed an expiry or dropped a frame."""
    counters = GOLDEN[(name, wrapped)][2]
    assert counters["forwarded"] > 100
    assert counters["dropped"] > 20
    if name != "cgnat":
        assert counters["expired"] > 20
    if wrapped:
        # Every hit runs its flow's closure, on a wire-backed frame or
        # a header-built packet's serialization: the firewall's
        # schedule hits 57 times.
        assert counters["fastpath_hits"] > 40
        assert counters["fastpath_compiled_hits"] == counters["fastpath_hits"]
        assert counters["fastpath_invalidations"] > 10


if __name__ == "__main__":
    print("GOLDEN = {")
    for name, wrapped in cases():
        outputs_digest, state_digest, counters = measure(name, wrapped)
        print(f'    ("{name}", {wrapped}): (')
        print(f'        "{outputs_digest}",')
        print(f'        "{state_digest}",')
        print("        {")
        for key, value in counters.items():
            print(f'            "{key}": {value},')
        print("        },")
        print("    ),")
    print("}")
