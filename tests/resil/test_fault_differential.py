"""The fault plan, differentially: one seeded two-worker schedule with a
hang window, a negative clock skew, a pool seizure, and a dropping,
reordering link, driven through the threaded oracle and through worker
processes over both transports, must transmit the same bytes per worker
per turn and report the same merged ``op_counters()`` and
``drop_causes()``.

The kill and the recovery have their own differential
(``test_recovery_differential.py``); this one covers every other fault a
turn applies. Each fault's window is disjoint from the others, and the
link faults act while every RX ring is empty between turns.
"""

import random

import pytest

from repro.nat.config import NatConfig
from repro.nat.vignat import VigNat
from repro.net.app import PROCESS, THREADED_DETERMINISTIC, RuntimeSpec, launch
from repro.packets.builder import make_udp_packet
from repro.resil.faults import FaultPlan

CFG = NatConfig(max_flows=256, expiration_time=60_000_000, start_port=1000)
BURST = 8
POOL = 64
HUNG, SKEWED, SEIZED = 1, 0, 1
LINK = (1_000, 3_000)
HANG = (4_000, 5_000)
SKEW = (6_000, 7_000)
SEIZURE = (8_000, 9_000)


def _plan() -> FaultPlan:
    return (
        FaultPlan(seed=11)
        .link_drop(start_us=LINK[0], end_us=LINK[1], probability=0.25)
        .reorder(start_us=LINK[0], end_us=LINK[1], probability=0.5)
        .hang_worker(HUNG, start_us=HANG[0], end_us=HANG[1])
        .skew_clock(-3_000, start_us=SKEW[0], end_us=SKEW[1], worker=SKEWED)
        .exhaust_pool(POOL, start_us=SEIZURE[0], end_us=SEIZURE[1], worker=SEIZED)
    )


def _drive(execution, transport="shm"):
    """Returns each turn's per-worker TX bytes, then the merged counters
    and drop causes, and what the plan applied."""
    rng = random.Random(38)
    runtime = launch(
        RuntimeSpec(
            nf_factory=VigNat,
            config=CFG,
            workers=2,
            execution=execution,
            transport=transport,
            fault_plan=_plan(),
            burst_size=BURST,
            pool_size=POOL,
            turn_timeout_s=5.0,
        )
    )
    sent = []
    ext_of = {}
    markers = iter(range(10_000))

    def turn(now):
        runtime.main_loop_burst(now, BURST)
        per_worker = [
            [p.wire_bytes() for _, _, p in tx] for tx in runtime.collect_by_worker()
        ]
        sent.append(per_worker)
        for frame in (f for tx in per_worker for f in tx):
            dst = int.from_bytes(frame[36:38], "big")
            if dst >= 20_000:  # outbound: marker → external port
                ext_of[dst - 20_000] = int.from_bytes(frame[34:36], "big")

    def open_flows(count, now):
        for _ in range(count):
            marker = next(markers)
            packet = make_udp_packet(
                f"10.0.0.{rng.randrange(1, 5)}",
                "8.8.8.8",
                1_024 + marker,
                20_000 + marker,
                device=0,
            )
            runtime.inject(0, packet, now)
            now += rng.choice((1, 3, 7))
        return now

    def answer(count, now):
        for marker in rng.sample(sorted(ext_of), count):
            reply = make_udp_packet(
                "8.8.8.8", CFG.external_ip, 20_000 + marker, ext_of[marker], device=1
            )
            runtime.inject(1, reply, now)
            now += 1
        return now

    try:
        # Warm-up: flows to answer later.
        now = 500
        for _ in range(2):
            turn(open_flows(BURST, now))
            now += 100
        # A dropping, reordering link; every turn drains every ring.
        now = LINK[0]
        while now < LINK[1] - 200:
            turn(answer(3, open_flows(3, now)))
            now += 200
        # Worker 1 hangs: its queue waits out the window, then is served.
        for now in (HANG[0], HANG[0] + 400):
            turn(answer(4, open_flows(4, now)))
        turn(HANG[1])
        # Worker 0's clock runs 3 ms behind: the NAT's clamp holds it.
        for now in (SKEW[0], SKEW[0] + 400):
            turn(answer(4, open_flows(4, now)))
        turn(SKEW[1])
        # Worker 1's whole pool is seized: frames wait on its ring, then drain.
        for now in (SEIZURE[0], SEIZURE[0] + 300, SEIZURE[0] + 600):
            turn(answer(6, open_flows(6, now)))
        for now in (SEIZURE[1], SEIZURE[1] + 100):
            turn(now)
        return (
            sent,
            runtime.op_counters(),
            runtime.drop_causes(),
            dict(runtime.fault_plan.applied),
        )
    finally:
        runtime.stop()


@pytest.fixture(scope="module")
def oracle():
    return _drive(THREADED_DETERMINISTIC)


def test_the_schedule_exercises_every_fault(oracle):
    sent, counters, causes, applied = oracle
    assert applied["link-drop"] > 0 and applied["reorder"] > 0
    assert causes["fault_wire_dropped"] == applied["link-drop"]
    assert counters["clock_clamped"] > 0
    assert causes["rx_no_mbuf"] > 0
    # The last eleven turns: three in the hang, three in the skew and
    # five from the seizure on.
    hang, seizure = sent[-11:-8], sent[-5:]
    assert [turn[HUNG] for turn in hang[:2]] == [[], []], "a hung worker is idle"
    assert hang[2][HUNG], "its queue is served when the window ends"
    assert [turn[SEIZED] for turn in seizure[:3]] == [[], [], []], "no buffers"
    assert seizure[3][SEIZED], "the queue is served when the window ends"


@pytest.mark.parametrize("transport", ["shm", "pipe"])
def test_every_fault_in_both_executions(oracle, transport):
    sent, counters, causes, applied = _drive(PROCESS, transport)
    assert sent == oracle[0]
    assert counters == oracle[1]
    assert causes == oracle[2]
    assert applied == oracle[3]
