"""The one recovery primitive, differentially: one seeded schedule with a
kill, driven through the threaded oracle and through worker processes
over both transports, must transmit the same bytes per worker and write
the same loss ledger (every ``FailoverReport`` field but the wall-clock
``recovery_us``).
"""

import dataclasses
import random

import pytest

from repro.nat.config import NatConfig
from repro.nat.unverified import UnverifiedNat
from repro.nat.vignat import VigNat
from repro.net.app import PROCESS, THREADED_DETERMINISTIC, RuntimeSpec, launch
from repro.packets.builder import make_udp_packet
from repro.resil.faults import FaultPlan

CFG = NatConfig(max_flows=64, expiration_time=60_000_000, start_port=1000)
FLOWS = 32
BURST = 8
KILLED = 1


def _ports(sent):
    """marker → external port, read off every outbound frame sent so far
    (bytes 34:36 and 36:38 are the UDP source and destination ports)."""
    ports = [
        (int.from_bytes(frame[36:38], "big"), int.from_bytes(frame[34:36], "big"))
        for turn_tx in sent
        for tx in turn_tx
        for frame in tx
    ]
    return {dst - 20_000: src for dst, src in ports if dst >= 20_000}


def _drive(nf_ctor, lag, execution, transport="shm"):
    """Establish flows and answer some, queue frames for worker 1 and
    kill it before they are served, then probe every flow. Returns each
    turn's per-worker TX bytes and the one report."""
    rng = random.Random(28)
    runtime = launch(
        RuntimeSpec(
            nf_factory=nf_ctor,
            config=CFG,
            workers=2,
            execution=execution,
            transport=transport,
            replication_lag=lag,
            fault_plan=FaultPlan(),
            burst_size=BURST,
            turn_timeout_s=5.0,
        )
    )
    sent = []

    def turn(now):
        runtime.main_loop_burst(now, BURST)
        sent.append(
            [[p.wire_bytes() for _, _, p in tx] for tx in runtime.collect_by_worker()]
        )

    def opened(markers, now):
        for marker in markers:
            packet = make_udp_packet(
                f"10.0.0.{rng.randrange(1, 5)}",
                "8.8.8.8",
                1_024 + marker,
                20_000 + marker,
                device=0,
            )
            runtime.inject(0, packet, now)
            now += rng.choice((1, 3, 7))
        turn(now)
        return now

    def answered(ext_of, markers, now):
        for marker in markers:
            reply = make_udp_packet(
                "8.8.8.8", CFG.external_ip, 20_000 + marker, ext_of[marker], device=1
            )
            runtime.inject(1, reply, now)
            now += 1
        return now

    try:
        now = 1_000
        for first in range(0, FLOWS, BURST):
            now = opened(range(first, first + BURST), now)
        # Answer a sample (touches ride the channel), then open a few
        # more flows, so creates are the newest deltas in flight.
        turn(answered(_ports(sent), rng.sample(range(FLOWS), 12), now))
        now = opened(range(FLOWS, FLOWS + 6), now + 20)
        ext_of = _ports(sent)
        assert len(ext_of) == FLOWS + 6
        # Queue a reply per flow, and kill worker 1 before it serves them.
        now = answered(ext_of, sorted(ext_of), now)
        runtime.fault_plan.kill_worker(KILLED, at_us=now)
        turn(now + 1)
        # Probe every flow on the rebuilt fleet.
        turn(answered(ext_of, sorted(ext_of), now + 10))
        (report,) = runtime.reports
        return sent, report
    finally:
        runtime.stop()


@pytest.mark.parametrize("lag", [0, 4])
@pytest.mark.parametrize("nf_ctor", [VigNat, UnverifiedNat], ids=lambda c: c.__name__)
def test_one_recovery_in_both_executions(nf_ctor, lag):
    oracle, report = _drive(nf_ctor, lag, THREADED_DETERMINISTIC)
    ledger = dataclasses.asdict(report)
    del ledger["recovery_us"]
    # The schedule exercises what it claims to.
    assert report.worker == KILLED and report.packets_lost_queue > 0
    assert report.deltas_lost == lag
    assert report.flows_lost <= lag  # none at all on a synchronous channel
    for transport in ("shm", "pipe"):
        sent, process_report = _drive(nf_ctor, lag, PROCESS, transport)
        assert sent == oracle, transport
        process_ledger = dataclasses.asdict(process_report)
        assert process_ledger.pop("recovery_us") > 0
        assert process_ledger == ledger, transport
