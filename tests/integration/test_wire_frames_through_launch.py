"""Wire frame in → ``launch(spec)`` → wire frame out, per execution mode.

What the end-to-end benchmark drives, as a tier-1 test: frames enter
through ``Packet.from_bytes`` (so they arrive wire-backed), leave
through ``wire_bytes()``, and in every execution mode the compiled
closures actually fire behind ``launch()`` — ``fastpath_compiled_hits``
is non-zero — while every transmitted frame stays byte-identical to the
``fastpath="off"`` run of the same mode. Once with long-lived flows,
once with waves of flows that expire inside the run and hand their
slots to newcomers: there the cache must drop exactly the dead flows'
actions (``fastpath_invalidations`` = flows expired × the two keys
learned per flow) and learn no flow twice. And once with frames that
are *not* canonical — the three shapes a key-off-the-buffer fast path
once got wrong — offered on a flow whose closure is already earned.
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
from repro.packets.headers import Packet, ParseError
from tests.packets.mutations import NAMED_SHAPES

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


# -- churn: flows die inside the run and their slots are reused ---------------
WAVES = 6
WAVE_FLOWS = 4
CHURN_CONFIG = NatConfig(max_flows=32, expiration_time=250)


def _drive_churn(execution, fastpath, extra, finale=False):
    """Waves of short-lived flows, each learned and hit in both directions
    (three turns 100 µs apart), then left to expire 250 µs after its
    last frame — while the next wave is mid-way, so the freed indices and
    external ports go straight to newcomers. ``finale`` adds one far-future
    frame that outlives everything else."""
    runtime = launch(
        RuntimeSpec(
            nf_factory=VigNat,
            config=CHURN_CONFIG,
            execution=execution,
            fastpath=fastpath,
            burst_size=32,
            **extra,
        )
    )
    try:
        transmitted = []
        ports_by_wave = []
        now = 1_000
        for wave in range(WAVES):
            flows = range(wave * WAVE_FLOWS, (wave + 1) * WAVE_FLOWS)
            forward = [(0, _forward_frame(flow + 1, wave)) for flow in flows]
            sent = _turn(runtime, forward, now)
            transmitted.append(sent)
            # The payload length survives translation and names the flow.
            external = {}
            for _port, frame in sent:
                out = Packet.from_bytes(frame)
                external[len(out.payload) - 1] = (out.ipv4.src_ip, out.l4.src_port)
            assert sorted(external) == list(flows)
            ports_by_wave.append({port for _ip, port in external.values()})
            replies = [(1, _reply_frame(f + 1, wave, external[f])) for f in flows]
            for _ in range(2):
                now += 100
                transmitted.append(_turn(runtime, forward + replies, now))
            now += 100
        if finale:
            transmitted.append(_turn(runtime, [(0, _forward_frame(99, 0))], 10**6))
        return transmitted, runtime.op_counters(), ports_by_wave, runtime
    finally:
        runtime.stop()


def _assert_churn_counters(counters, learns):
    assert counters["fastpath_compiled_hits"] > 0
    assert counters["fastpath_compile_rejected"] == 0
    assert counters["fastpath_compiled_hits"] == counters["fastpath_hits"]
    # One learn per flow and direction: no flow was ever learned twice...
    assert counters["fastpath_learns"] == learns
    # ...and the only actions ever dropped are the dead flows' own two.
    assert counters["expired"] > 0
    assert counters["fastpath_invalidations"] == 2 * counters["expired"]
    assert counters["fastpath_evictions"] == 0


@pytest.mark.parametrize("execution,extra", MODES)
def test_churn_behind_launch_drops_exactly_the_dead_flows_actions(execution, extra):
    oracle, oracle_counters, _, _ = _drive_churn(execution, "off", extra)
    compiled, counters, ports_by_wave, _ = _drive_churn(execution, "compiled", extra)
    assert compiled == oracle
    assert sum(len(turn) for turn in compiled) == WAVES * WAVE_FLOWS * 5
    assert counters["expired"] == oracle_counters["expired"]
    # Slots were reused inside the run: later waves got earlier waves' ports.
    assert any(
        ports_by_wave[late] & ports_by_wave[early]
        for late in range(WAVES)
        for early in range(late)
    )
    _assert_churn_counters(counters, learns=2 * WAVES * WAVE_FLOWS)


def test_churn_with_a_standby_attached_frees_reach_cache_and_replica():
    """With replication on, the NF's flow-free routine has two listeners:
    the cache (drop the flow's actions) and the delta log (``("free", …)``
    to the standby). Every expired index must reach both."""
    replicated = {"workers": 1, "replication_lag": 0}
    oracle, _, _, _ = _drive_churn(THREADED_DETERMINISTIC, "off", replicated, True)
    compiled, counters, _, runtime = _drive_churn(
        THREADED_DETERMINISTIC, "compiled", replicated, finale=True
    )
    assert compiled == oracle
    created = WAVES * WAVE_FLOWS + 1  # the finale's flow is forward-only
    _assert_churn_counters(counters, learns=2 * created - 1)
    # Everything but the finale's flow expired...
    assert counters["expired"] == created - 1
    assert runtime.flow_count() == 1
    # ...the standby was told of each: it mirrors the one survivor...
    (replica,) = runtime.replicas
    (channel,) = runtime.channels
    assert replica.flow_count() == 1
    assert replica.out_of_order_total == 0
    # ...and the delta log adds up: every frame forwarded is a create
    # (a flow's first) or a touch (hits rejuvenate too), every expiry a free.
    forwarded = sum(len(turn) for turn in compiled)
    assert channel.published_total == forwarded + counters["expired"]


# -- non-canonical frames of a flow whose closure is earned -------------------
def _drive_named_shapes(execution, fastpath, extra):
    """Warm one TCP flow past its first wire-backed hit, then offer each
    of :data:`NAMED_SHAPES` on its 5-tuple. Returns each shape's verdict
    — the ``ParseError`` that refused it at the door or the frames it
    came out as — then a canonical frame's, the counters, and every
    worker's ``pool_in_flight``."""
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
        canonical = make_tcp_packet(
            "10.0.0.1", REMOTE, 4_000, 443, payload=b"payload!"
        ).to_bytes()
        verdicts = {}
        for now in (1_000, 1_001, 1_002):  # learn the closure, run it twice
            verdicts[f"warm-{now}"] = _turn(runtime, [(0, canonical)], now)
        for name, shape in NAMED_SHAPES.items():
            now += 1
            try:
                packet = Packet.from_bytes(shape(canonical), 0)
            except ParseError as error:
                verdicts[name] = str(error)
                continue
            runtime.inject(0, packet, now)
            runtime.main_loop_burst(now, 32)
            verdicts[name] = sorted(
                (port, out.wire_bytes()) for port, _ts, out in runtime.collect()
            )
        verdicts["after"] = _turn(runtime, [(0, canonical)], now + 1)
        (in_flight,) = (
            [sample["value"] for sample in metric["samples"]]
            for metric in runtime.snapshot_metrics()["metrics"]
            if metric["name"] == "pool_in_flight"
        )
        return verdicts, runtime.op_counters(), in_flight
    finally:
        runtime.stop()


@pytest.mark.parametrize("execution,extra", MODES)
def test_named_non_canonical_shapes_on_a_compiled_flow(execution, extra):
    oracle, _, _ = _drive_named_shapes(execution, "off", extra)
    verdicts, counters, in_flight = _drive_named_shapes(execution, "compiled", extra)
    # Refused with the same error or emitted byte-identically, shape by shape.
    assert verdicts == oracle
    assert verdicts["tcp-data-offset-6"] == "TCP options are not supported"
    for name in ("trailing-padding", "short-total-length", "after"):
        assert len(verdicts[name]) == 1, name
    # The closure was there to be misused: compiled and verified by the
    # learn and run on the canonical frames either side of the shapes.
    # The two shapes that parse are materialised instead, and their
    # serialization — lengths rewritten to cover the padding, the frame
    # a process worker is handed — is canonical: the closure runs on it.
    assert counters["fastpath_compiles"] == 1
    assert counters["fastpath_compile_rejected"] == 0
    assert counters["fastpath_hits"] == counters["fastpath_compiled_hits"] == 5
    # No buffer leaked, and every worker answered: none is dead.
    assert in_flight == [0] * extra.get("workers", 1)
