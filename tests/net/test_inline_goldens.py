"""The inline launch path, pinned byte for byte.

``launch(RuntimeSpec(..., execution="inline"))`` is the paper's shape:
one NF on one main loop, no steering stage. Each case drives one seeded
schedule through it — new flows out, replies to what came out, unsolicited
arrivals in, idle gaps long enough to expire flows, turns far enough
apart to overflow the RX ring, a pool smaller than a burst — and holds to a SHA-256 digest:

- ``tx``: every transmitted frame's port, timestamp and wire bytes;
- ``counters``: ``op_counters()``, ``drop_causes()`` and ``flow_count()``;
- ``snapshot``: the ``snapshot_metrics()`` JSON;
- ``checkpoint``: ``checkpoint(now).to_bytes()`` at the end;
- ``restored``: a fresh launch restored from the mid-schedule checkpoint
  (the frame, and the one it gives back), then driven through the
  schedule's second half — its transmissions, its counters and its final
  checkpoint.

A moved digest means the inline deployment now behaves differently.
Print the canonical values with
``PYTHONPATH=src python -m tests.net.test_inline_goldens``.
"""

import functools
import hashlib
import json
import random

import pytest

from repro.nat.config import NatConfig
from repro.nat.noop import NoopForwarder
from repro.nat.vignat import VigNat
from repro.net.app import INLINE, RuntimeSpec, launch
from repro.packets.builder import make_tcp_packet, make_udp_packet
from repro.packets.headers import Packet, TcpHeader
from repro.resil.checkpoint import CheckpointSet

SEED = 47
STEPS = 600
CONFIG = NatConfig(max_flows=24, expiration_time=3_000)

SPECS = {
    "vignat-off": RuntimeSpec(
        VigNat,
        CONFIG,
        execution=INLINE,
        burst_size=8,
        rx_capacity=16,
        pool_size=6,
    ),
    "vignat-compiled": RuntimeSpec(
        VigNat,
        CONFIG,
        execution=INLINE,
        fastpath="compiled",
        burst_size=8,
        rx_capacity=16,
        pool_size=6,
    ),
    "noop": RuntimeSpec(
        lambda _config: NoopForwarder(),
        execution=INLINE,
        burst_size=8,
        rx_capacity=16,
        pool_size=6,
    ),
}


def _wire(packet):
    """The wire-backed twin of a built packet, as it arrives off a NIC."""
    return Packet.from_bytes(packet.to_bytes(), packet.device)


def schedule(seed=SEED, steps=STEPS):
    """(time_us, kind, payload) steps: ``out`` a (host, sport, proto)
    leaving on port 0, ``reply`` an index into the frames sent so far,
    ``stray`` an unsolicited inbound port, ``turn`` a main-loop turn."""
    rng = random.Random(seed)
    now = 1_000
    plan = []
    pending, gap = 0, 1
    for _ in range(steps):
        now += rng.choice((1, 5, 40, 200)) if rng.random() < 0.97 else 4_000
        roll = rng.random()
        if roll < 0.55:
            flow = (rng.randrange(6), rng.randrange(8), rng.random() < 0.2)
            plan.append((now, "out", flow))
        elif roll < 0.9:
            plan.append((now, "reply", rng.random()))
        else:
            plan.append((now, "stray", rng.randrange(60_000, 60_032)))
        pending += 1
        if pending == gap:
            plan.append((now, "turn", None))
            pending, gap = 0, rng.choice((1, 3, 8, 40))
    plan.append((now, "turn", None))
    return plan


def _frame(kind, payload, sent, external_ip):
    """The packet one step injects, and the port it arrives on."""
    if kind == "out":
        host, sport, tcp = payload
        make = make_tcp_packet if tcp else make_udp_packet
        return 0, make(0x0A000001 + host, "198.51.100.7", 2_000 + sport, 53, device=0)
    if kind == "reply":
        if not sent:
            return None
        _port, _ts, out = sent[int(payload * len(sent))]
        make = make_tcp_packet if isinstance(out.l4, TcpHeader) else make_udp_packet
        back = make(
            out.ipv4.dst_ip, out.ipv4.src_ip, out.l4.dst_port, out.l4.src_port,
            device=out.device,
        )
        return out.device, back
    return 1, make_udp_packet("198.51.100.9", external_ip, 53, payload, device=1)


def run(runtime, steps, sent):
    """Drive ``steps`` through ``runtime``; transmissions are appended
    to ``sent`` (replies are drawn from it). Returns the last time."""
    external_ip = CONFIG.external_ip
    burst_size = runtime.spec.burst_size
    now = 0
    for now, kind, payload in steps:
        if kind == "turn":
            runtime.main_loop_burst(now, burst_size)
            sent.extend(runtime.collect())
            continue
        frame = _frame(kind, payload, sent, external_ip)
        if frame is not None:
            port, packet = frame
            runtime.inject(port, _wire(packet), now)
    return now


def _tx(sent):
    return [[port, ts, packet.wire_bytes().hex()] for port, ts, packet in sent]


def _counters(runtime):
    return {
        "op_counters": runtime.op_counters(),
        "drop_causes": runtime.drop_causes(),
        "flow_count": runtime.flow_count(),
    }


@functools.lru_cache(maxsize=None)
def case_values(case):
    """Every pinned value of one case, as canonical text."""
    spec = SPECS[case]
    plan = schedule()
    half = len(plan) // 2
    while plan[half - 1][1] != "turn":
        half += 1
    runtime = launch(spec)
    sent = []
    mid = run(runtime, plan[:half], sent)
    frame = runtime.checkpoint(mid).to_bytes()
    head = len(sent)
    end = run(runtime, plan[half:], sent)

    restored = launch(spec)
    restored.restore(CheckpointSet.from_bytes(frame))
    adopted = restored.checkpoint(mid).to_bytes()
    tail = list(sent[:head])
    run(restored, plan[half:], tail)
    values = {
        "tx": _tx(sent),
        "counters": _counters(runtime),
        "snapshot": runtime.snapshot_metrics(),
        "checkpoint": runtime.checkpoint(end).to_bytes().hex(),
        "restored": {
            "frame": frame.hex(),
            "adopted": adopted.hex(),
            "tx": _tx(tail[head:]),
            "counters": _counters(restored),
            "checkpoint": restored.checkpoint(end).to_bytes().hex(),
        },
    }
    runtime.stop()
    restored.stop()
    return {name: canonical(value) for name, value in values.items()}


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: SHA-256 of each case's canonical JSON per pinned value.
GOLDEN = {
    "noop": {
        "tx": "863002156b0469ce686dab81fd95dbf283b62077d29fd66117aa65d345ad8b24",
        "counters": "6066072157bda372745de18b7b3348e9d326b239ca6aae8f28acc5bd1a924b2b",
        "snapshot": "00c4425b8a0581e88069245beb7a47529d1ef861f8a183c3f32f1ee001d24fb2",
        "checkpoint": "c2957da7c9c5eafb70a705fa02a6047913b014a7489815185536d73aa354a0ab",
        "restored": "5fb286c0eb8b1680ed948a2fb60242b8a3b70ac3a121c80127cbb9c9a9a7f625",
    },
    "vignat-compiled": {
        "tx": "82e2e002c30a1f4acc57cd1217e41fa6bdb9852f296948f981a448ad1f491cfc",
        "counters": "1952b2b3b35bc5800b890779b4bdaa68493f9b29121f206d14ea11530311e966",
        "snapshot": "80746c273ddd3f543ea41cbb35c0c91b9e97f76f5f3832ae8ae1762c59f31e8c",
        "checkpoint": "01bea454f40c8f330cce022a073ec30187c98a401b915e75d41cfd01a7f2e8d5",
        "restored": "2902722b51f7bdf775d57016ddfcc98d27f2bcaac1322dccf52f606d2f3e1d3f",
    },
    "vignat-off": {
        "tx": "82e2e002c30a1f4acc57cd1217e41fa6bdb9852f296948f981a448ad1f491cfc",
        "counters": "3e06d257128544acb8a3cbfb5fd7bcead149b188a25c47a9b1becc9e0be3c506",
        "snapshot": "930cbb269211b269975add268ade058a7b2e7f5a9ee7edda12ed92fb2a3c3f8e",
        "checkpoint": "096432ea9ff5b7ea3dbdfb198d015c1dcdb13f6ba2c242ba41b1a47186d8a79c",
        "restored": "5186130cdf3b54885af873dbae24ef21ce042830ebf97e233a31c635f470ab91",
    },
}


@pytest.mark.parametrize("case", sorted(SPECS))
@pytest.mark.parametrize("value", ("tx", "counters", "snapshot", "checkpoint", "restored"))
def test_inline_run_matches_golden(case, value):
    text = case_values(case)[value]
    assert digest(text) == GOLDEN[case][value], text[:2_000]


@pytest.mark.parametrize("case", sorted(SPECS))
def test_the_schedule_exercises_what_it_pins(case):
    """Not degenerate runs: frames out, ring drops, expiries and NF
    drops where the NF has them, and a restore that adopted the frame
    byte for byte and transmits what the original did."""
    values = {name: json.loads(text) for name, text in case_values(case).items()}
    counters = values["counters"]
    assert len(values["tx"]) > 200
    assert counters["drop_causes"]["rx_ring_full"] > 0
    assert counters["drop_causes"]["rx_no_mbuf"] > 0
    restored = values["restored"]
    assert restored["adopted"] == restored["frame"]
    assert restored["tx"] == values["tx"][-len(restored["tx"]):]
    if case.startswith("vignat"):
        assert counters["drop_causes"]["nf_drop"] > 0
        assert counters["op_counters"]["expired"] > 0
        assert counters["flow_count"] > 0
    if case == "vignat-compiled":
        assert counters["op_counters"]["fastpath_hits"] > 0


if __name__ == "__main__":
    for case in sorted(SPECS):
        print(f'"{case}": {{')
        for name, text in case_values(case).items():
            print(f'    "{name}": "{digest(text)}",')
        print("},")
