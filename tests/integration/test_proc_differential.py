"""Differential proof: process workers are byte-identical to the oracle.

The process-per-shard runtime's correctness argument is not a port of
the NAT proof — it is a reduction to it. The deterministic
:class:`~repro.net.dpdk.ShardedRuntime` is the verification oracle;
:class:`~repro.net.procrun.ProcessShardedRuntime` claims to run the
*same* per-shard data path on the *same* steered sub-schedules, just on
real cores. If that claim holds, every worker process must emit exactly
the TX records (port, device, timestamp, wire bytes) the oracle's
same-numbered worker emits, and the merged counters must match — on
every NF × fastpath × worker-count cell, for forward traffic and for
the steered return path — over *both* payload transports, because the
shared-memory rings claim to be a pure mechanism swap.

The Hypothesis property extends the claim across restarts: a
coordinated checkpoint taken mid-schedule, restored into a *fresh*
process fleet, must replay the remaining schedule byte-identically to
the fleet that never restarted — on either transport.

The ring-mechanics tests force the shm corners the grid's geometry
never reaches: spans wrapping the ring edge, ring-full backpressure
(tiny rings), and a worker SIGKILLed mid-schedule.
"""

import glob
import os
import signal
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.nat.cgnat import CgnatConfig, DetNat
from repro.nat.config import NatConfig
from repro.nat.unverified import UnverifiedNat
from repro.nat.vignat import VigNat
from repro.net import procrun
from repro.net.app import PROCESS, THREADED_DETERMINISTIC, RuntimeSpec, launch
from repro.net.procrun import TRANSPORTS, WorkerCrashed
from repro.packets.builder import make_udp_packet
from repro.packets.headers import Packet

WORKER_COUNTS = (1, 2, 4)

#: (name, factory, config, supports_fastpath)
NFS = (
    ("verified-nat", VigNat, None, True),
    ("unverified-nat", UnverifiedNat, None, True),
    ("det-nat", DetNat, "cgnat", False),
)

GRID = [
    pytest.param(name, factory, cfg_kind, fastpath, workers, transport,
                 id=f"{name}-fp-{fastpath}-w{workers}-{transport}")
    for name, factory, cfg_kind, supports_fp in NFS
    for fastpath in (("off", "compiled") if supports_fp else ("off",))
    for workers in WORKER_COUNTS
    for transport in TRANSPORTS
]


def make_config(kind):
    if kind == "cgnat":
        return CgnatConfig(
            max_flows=64,
            expiration_time=60_000_000,
            start_port=1000,
            subscriber_count=64,
            internal_port_base=1_024,
        )
    return NatConfig(
        max_flows=64, expiration_time=60_000_000, start_port=1000
    )


def outbound_events(count, cfg, start_us=1_000):
    """One outbound packet per flow, all translatable by every NF.

    DetNat only translates its configured subscriber/port domain, so
    the flows walk that domain — which the stateful NATs accept too.
    """
    ppn = getattr(cfg, "ports_per_subscriber", None)
    events = []
    now = start_us
    for i in range(count):
        if ppn:
            subscriber, offset = divmod(i % cfg.max_flows, ppn)
            src_ip = cfg.internal_base + subscriber
            src_port = cfg.internal_port_base + offset
        else:
            src_ip = 0x0A000001 + (i % 48)
            src_port = 1_024 + (i % 48)
        events.append(
            (
                make_udp_packet(
                    src_ip, "8.8.8.8", src_port, 20_000 + (i % 7), device=0
                ),
                now,
            )
        )
        now += 5
    return events, now


def drive(runtime, events, burst=8, final_now=None):
    """Inject ``events`` as the wire-backed frames a worker parses, so
    the oracle's NF sees the very packets the workers' NFs do."""
    pending = 0
    now = 0
    for packet, now in events:
        frame = Packet.from_bytes(packet.wire_bytes(), packet.device)
        runtime.inject(packet.device, frame, now)
        pending += 1
        if pending >= burst:
            runtime.main_loop_burst(now, burst)
            pending = 0
    final = final_now if final_now is not None else now + 1
    runtime.main_loop_burst(final, burst)
    runtime.main_loop_burst(final + 1, burst)


def tx_of_oracle(runtime):
    return [
        [
            (port, packet.device, ts, packet.wire_bytes())
            for port, ts, packet in worker_records
        ]
        for worker_records in runtime.collect_by_worker()
    ]


def launch_pair(factory, cfg_kind, fastpath, workers, transport="shm"):
    def build(execution):
        return launch(
            RuntimeSpec(
                nf_factory=factory,
                config=make_config(cfg_kind),
                workers=workers,
                execution=execution,
                fastpath=fastpath,
                transport=transport,
            )
        )

    return build(THREADED_DETERMINISTIC), build(PROCESS)


@pytest.mark.parametrize("name,factory,cfg_kind,fastpath,workers,transport", GRID)
def test_byte_identity_on_grid(name, factory, cfg_kind, fastpath, workers, transport):
    """Forward + return traffic, every cell: same bytes, same counters."""
    oracle, proc = launch_pair(factory, cfg_kind, fastpath, workers, transport)
    try:
        events, now = outbound_events(96, make_config(cfg_kind))
        drive(oracle, events)
        drive(proc, events)

        oracle_fwd = tx_of_oracle(oracle)
        proc_fwd = proc.collect_raw_by_worker()
        assert proc_fwd == oracle_fwd, f"{name}: forward TX diverged"
        assert any(records for records in oracle_fwd), "no traffic flowed"

        # Return path: replies to every translated port, steered by
        # external-port ownership — the sharding-sensitive direction.
        ext_ip = oracle.config.external_ip
        replies = []
        reply_now = now + 100
        for worker_records in oracle_fwd:
            for _, _, _, wire in worker_records:
                out = Packet.from_bytes(wire, device=1)
                if out.ipv4.src_ip != ext_ip:
                    continue
                replies.append(
                    (
                        make_udp_packet(
                            "8.8.8.8",
                            ext_ip,
                            out.l4.dst_port,
                            out.l4.src_port,
                            device=1,
                        ),
                        reply_now,
                    )
                )
                reply_now += 5
        assert replies, f"{name}: no translated output to reply to"
        drive(oracle, replies)
        drive(proc, replies)
        assert proc.collect_raw_by_worker() == tx_of_oracle(oracle), (
            f"{name}: return-path TX diverged"
        )

        assert proc.op_counters() == oracle.op_counters()
        assert proc.drop_causes() == oracle.drop_causes()
        assert proc.flow_count() == oracle.flow_count()
        assert proc.steered == oracle.steered
    finally:
        oracle.stop()
        proc.stop()


flows = st.lists(
    st.tuples(
        st.integers(min_value=0x0A000001, max_value=0x0A00003F),
        st.integers(min_value=1_024, max_value=60_000),
    ),
    min_size=4,
    max_size=24,
    unique=True,
)


@settings(max_examples=12, deadline=None)
@given(flows=flows, split=st.integers(min_value=1, max_value=23),
       workers=st.sampled_from((1, 2)),
       transport=st.sampled_from(TRANSPORTS))
def test_checkpoint_restores_into_byte_identical_replay(
    flows, split, workers, transport
):
    """Coordinated checkpoint = a cut you can restart from, losslessly.

    Drive a prefix, checkpoint, drive the suffix and record its TX;
    then restore the checkpoint into a fresh process fleet and drive
    the same suffix: the restarted fleet must emit the same bytes.
    Transport is part of the search space: the checkpoint fence claims
    to cover the shm rings (workers drain before acking) exactly as it
    covers the pipe.
    """
    split = min(split, len(flows) - 1)
    events = []
    now = 1_000
    for src_ip, src_port in flows:
        events.append(
            (
                make_udp_packet(src_ip, "8.8.8.8", src_port, 53, device=0),
                now,
            )
        )
        now += 5
    prefix, suffix = events[:split], events[split:]

    def build():
        return launch(
            RuntimeSpec(
                nf_factory=VigNat,
                config=NatConfig(
                    max_flows=64,
                    expiration_time=60_000_000,
                    start_port=1000,
                ),
                workers=workers,
                execution=PROCESS,
                transport=transport,
            )
        )

    first = build()
    try:
        drive(first, prefix)
        first.collect_raw_by_worker()  # discard prefix TX
        checkpoint_set = first.checkpoint(now_us=now)
        drive(first, suffix, final_now=now + 1_000)
        tx_uninterrupted = first.collect_raw_by_worker()
        flows_after = first.flow_count()
    finally:
        first.stop()

    second = build()
    try:
        second.restore(checkpoint_set)
        drive(second, suffix, final_now=now + 1_000)
        assert second.collect_raw_by_worker() == tx_uninterrupted
        assert second.flow_count() == flows_after
    finally:
        second.stop()


# -- shm ring mechanics the grid's geometry never reaches ---------------------


def tiny_ring_pair(workers=2, ring_slots=8, ring_slot_bytes=64):
    """An oracle + a process fleet whose rings hold only a few records.

    8 × 64-byte slots is ~256 bytes of payload per direction — a single
    8-packet burst wraps the ring edge repeatedly and overflows it
    outright, so wraparound and backpressure run on every turn instead
    of never. The fleet's rings are made at launch, from the patched
    ``procrun`` geometry.
    """
    def build(execution):
        return launch(
            RuntimeSpec(
                nf_factory=VigNat,
                config=make_config(None),
                workers=workers,
                execution=execution,
                transport="shm",
            )
        )

    with mock.patch.multiple(
        procrun, RING_SLOTS=ring_slots, RING_SLOT_BYTES=ring_slot_bytes
    ):
        return build(THREADED_DETERMINISTIC), build(PROCESS)


def test_ring_wraparound_is_byte_identical():
    """Spans crossing the ring edge reassemble exactly.

    192 packets through ~256-byte rings means the head wraps dozens of
    times, spans split across the edge in both directions, and every
    byte still matches the oracle.
    """
    oracle, proc = tiny_ring_pair()
    try:
        events, _ = outbound_events(192, make_config(None))
        drive(oracle, events)
        drive(proc, events)
        assert proc.collect_raw_by_worker() == tx_of_oracle(oracle)
        assert proc.op_counters() == oracle.op_counters()
        # The inject ring's head must have lapped the ring — otherwise
        # this test is not exercising wraparound at all.
        ring = proc._inject_rings[0]
        assert ring.head > ring.slots
    finally:
        oracle.stop()
        proc.stop()


def test_ring_full_backpressure_blocks_then_completes():
    """A burst bigger than the whole ring still goes through.

    The parent must split it into spans and, on ring-full, have the
    worker empty its ring (``D`` answered ``d``) before it pushes again,
    and the worker must do the same with the parent on its TX ring —
    the explicit backpressure path, visible in ``proc_ring_wait_ns``.
    The result is still byte-identical: backpressure may never drop or
    reorder.
    """
    oracle, proc = tiny_ring_pair(workers=1, ring_slots=4, ring_slot_bytes=64)
    try:
        events, _ = outbound_events(64, make_config(None))
        drive(oracle, events, burst=32)
        drive(proc, events, burst=32)
        assert proc.collect_raw_by_worker() == tx_of_oracle(oracle)
        waited = proc.transport_counters()["total"]["ring_wait_ns"]
        assert waited > 0, "tiny ring never filled — not a backpressure test"
    finally:
        oracle.stop()
        proc.stop()


def test_oversized_ring_burst_has_actionable_error():
    from repro.net.shmring import ShmRing

    ring = ShmRing(slots=2, slot_bytes=64)
    try:
        with pytest.raises(ValueError, match="RING_SLOTS"):
            ring.try_push_burst(b"x" * 1024)
    finally:
        ring.unlink()


def test_crash_mid_burst_surfaces_and_cleans_rings():
    """SIGKILL mid-schedule: typed WorkerCrashed, no leaked segments.

    The dying worker can leave a half-written span; the head/tail
    protocol keeps it invisible, the parent reports the crash with the
    last acked sequence number, and stop() still unlinks every
    /dev/shm segment the fleet ever created.
    """
    proc = launch(
        RuntimeSpec(
            nf_factory=VigNat,
            config=make_config(None),
            workers=2,
            execution=PROCESS,
            transport="shm",
            turn_timeout_s=5.0,
        )
    )
    ring_names = [ring.name for ring in proc._all_rings]
    assert len(ring_names) == 4  # two rings per worker
    try:
        events, now = outbound_events(32, make_config(None))
        drive(proc, events)
        proc.collect_raw_by_worker()
        os.kill(proc._procs[1].pid, signal.SIGKILL)
        proc._procs[1].join()
        with pytest.raises(WorkerCrashed) as exc_info:
            for i in range(4):  # the kill may land between turns
                for packet, t in outbound_events(16, make_config(None))[0]:
                    proc.inject(packet.device, packet, now + i * 100)
                proc.main_loop_burst(now + i * 100 + 50, 8)
        assert exc_info.value.shard == 1
        assert exc_info.value.last_acked_seq > 0
    finally:
        proc.stop()
    leaked = [
        path
        for name in ring_names
        for path in glob.glob(f"/dev/shm/{name}")
    ]
    assert not leaked, f"leaked shm segments: {leaked}"
