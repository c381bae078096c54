"""Wire frame in → ``launch(spec)`` → wire frame out, per execution mode.

What the end-to-end benchmark drives, as a tier-1 test: frames enter
through ``Packet.from_bytes`` (so they arrive wire-backed), leave
through ``wire_bytes()``, and in every execution mode the compiled
closures actually fire behind ``launch()`` — ``fastpath_compiled_hits``
is non-zero — while every transmitted frame stays byte-identical to the
``fastpath="off"`` run of the same mode.
"""

import pytest

from repro.nat.config import NatConfig
from repro.nat.vignat import VigNat
from repro.net.app import (
    INLINE,
    PROCESS,
    THREADED_DETERMINISTIC,
    RuntimeSpec,
    launch,
)
from repro.packets.builder import make_tcp_packet, make_udp_packet
from repro.packets.headers import Packet

FLOWS = 8
ROUNDS = 4
REMOTE = "198.18.0.9"

MODES = [
    pytest.param(INLINE, {}, id="inline"),
    pytest.param(THREADED_DETERMINISTIC, {"workers": 2}, id="threaded-deterministic"),
    pytest.param(PROCESS, {"workers": 2, "transport": "shm"}, id="process-shm"),
    pytest.param(PROCESS, {"workers": 2, "transport": "pipe"}, id="process-pipe"),
]


def _forward_frame(flow: int, round_: int) -> bytes:
    make = make_udp_packet if flow % 2 == 0 else make_tcp_packet
    return make(
        0x0A000001 + flow, REMOTE, 4_000 + flow, 443, payload=bytes([round_]) * flow
    ).to_bytes()


def _reply_frame(flow: int, round_: int, external) -> bytes:
    make = make_udp_packet if flow % 2 == 0 else make_tcp_packet
    ext_ip, ext_port = external
    return make(REMOTE, ext_ip, 443, ext_port, payload=bytes([round_]) * 3).to_bytes()


def _turn(runtime, burst, now):
    """One closed-loop turn: [(port, frame)] in, sorted [(port, frame)] out."""
    for port, frame in burst:
        packet = Packet.from_bytes(frame, port)
        assert packet.image is not None
        runtime.inject(port, packet, now)
    runtime.main_loop_burst(now, 32)
    return sorted(
        (port, packet.wire_bytes()) for port, _ts, packet in runtime.collect()
    )


def _drive(execution, fastpath, extra):
    runtime = launch(
        RuntimeSpec(
            nf_factory=VigNat,
            config=NatConfig(max_flows=64, expiration_time=60_000_000),
            execution=execution,
            fastpath=fastpath,
            burst_size=32,
            **extra,
        )
    )
    try:
        transmitted = []
        now = 1_000
        burst = [(0, _forward_frame(f, 0)) for f in range(FLOWS)]
        transmitted.append(_turn(runtime, burst, now))
        # Replies must target what the NAT allocated, so each flow's
        # external endpoint is read off a single-frame turn's output.
        external = {}
        for flow in range(FLOWS):
            (only,) = _turn(runtime, [(0, _forward_frame(flow, 0))], now + 1 + flow)
            out = Packet.from_bytes(only[1])
            external[flow] = (out.ipv4.src_ip, out.l4.src_port)
            transmitted.append([only])
        for round_ in range(1, ROUNDS):
            now += 100
            burst = [(0, _forward_frame(f, round_)) for f in range(FLOWS)]
            burst += [(1, _reply_frame(f, round_, external[f])) for f in range(FLOWS)]
            transmitted.append(_turn(runtime, burst, now))
        return transmitted, runtime.op_counters()
    finally:
        runtime.stop()


@pytest.mark.parametrize("execution,extra", MODES)
def test_closures_fire_behind_launch_and_the_wire_cannot_tell(execution, extra):
    oracle, oracle_counters = _drive(execution, "off", extra)
    compiled, counters = _drive(execution, "compiled", extra)
    assert compiled == oracle
    assert sum(len(turn) for turn in compiled) == FLOWS * 2 + (ROUNDS - 1) * FLOWS * 2
    assert "fastpath_compiled_hits" not in oracle_counters
    assert counters["fastpath_compiled_hits"] > 0
    assert counters["fastpath_compile_rejected"] == 0
    # Every hit ran a closure, the one that earned it included.
    assert counters["fastpath_compiled_hits"] == counters["fastpath_hits"]
    assert counters["fastpath_compiles"] == 2 * FLOWS
