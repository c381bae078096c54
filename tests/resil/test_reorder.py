"""The seeded ``reorder`` fault: adjacent-packet swaps at the inject
choke point, with the empty-plan byte-identity regression the
differential sweeps rely on."""

import pytest

from repro.nat.config import NatConfig
from repro.nat.noop import NoopForwarder
from repro.nat.vignat import VigNat
from repro.net.app import PROCESS, THREADED_DETERMINISTIC, RuntimeSpec, launch
from repro.net.nic import Port
from repro.packets.builder import make_udp_packet
from repro.resil.faults import FaultPlan

CFG = NatConfig(max_flows=64, expiration_time=60_000_000, start_port=1000)


def packets(n):
    return [
        make_udp_packet("10.0.0.1", "203.0.113.9", 1024 + i, 2000 + i)
        for i in range(n)
    ]


class TestSwapTail:
    def test_swaps_two_newest_payloads_keeping_timestamps(self):
        port = Port(0, rx_capacity=8)
        a, b, c = packets(3)
        port.deliver(a, 10)
        port.deliver(b, 20)
        port.deliver(c, 30)
        assert port.swap_tail()
        assert port.rx_pop() == (10, a)
        # Timestamps stay with their slots: arrival order on the ring
        # remains monotonic, only the payloads traded places.
        assert port.rx_pop() == (20, c)
        assert port.rx_pop() == (30, b)

    def test_noop_with_fewer_than_two_pending(self):
        port = Port(0, rx_capacity=8)
        assert not port.swap_tail()
        (only,) = packets(1)
        port.deliver(only, 10)
        assert not port.swap_tail()
        assert port.rx_pop() == (10, only)


class TestReorderPlan:
    def test_builder_validates_probability(self):
        with pytest.raises(ValueError, match="probability"):
            FaultPlan().reorder(probability=1.5)

    def test_fires_inside_window_and_notes_application(self):
        plan = FaultPlan(seed=3).reorder(start_us=100, end_us=200)
        assert not plan.reorder_fires(50)
        assert plan.reorder_fires(150)
        assert not plan.reorder_fires(250)
        assert plan.applied["reorder"] == 1

    def test_worker_scoping(self):
        plan = FaultPlan(seed=3).reorder(worker=1)
        assert not plan.reorder_fires(10, worker=0)
        assert plan.reorder_fires(10, worker=1)

    def test_seeded_probability_is_reproducible(self):
        def draws():
            plan = FaultPlan(seed=11).reorder(probability=0.5)
            return [plan.reorder_fires(t) for t in range(40)]

        first, second = draws(), draws()
        assert first == second
        assert any(first) and not all(first)


def run_nat(plan, count=6):
    runtime = launch(
        RuntimeSpec(
            nf_factory=lambda cfg: VigNat(cfg), config=CFG, fault_plan=plan
        )
    )
    for i, pkt in enumerate(packets(count)):
        runtime.inject(0, pkt, 1_000 + i)
    runtime.main_loop_burst(2_000)
    return [(pkt.to_bytes(), port) for port, _ts, pkt in runtime.collect()]


class TestReorderDataPath:
    def test_certain_reorder_swaps_adjacent_packets(self):
        baseline = run_nat(None)
        reordered = run_nat(FaultPlan(seed=5).reorder(probability=1.0))
        assert len(reordered) == len(baseline)
        # Same flows exit (identified by their untouched dst port), but
        # arrival order drives the NAT's port allocation, so reordering
        # visibly changes which external port each flow drew.
        def flows(outputs):
            return sorted(int.from_bytes(w[36:38], "big") for w, _ in outputs)

        assert flows(reordered) == flows(baseline)
        assert reordered != baseline

    def test_noop_forwarder_preserves_payload_set(self):
        runtime = launch(
            RuntimeSpec(
                nf_factory=lambda _cfg: NoopForwarder(),
                fault_plan=FaultPlan(seed=5).reorder(probability=1.0),
            )
        )
        sent = packets(4)
        for i, pkt in enumerate(sent):
            runtime.inject(0, pkt, 1_000 + i)
        runtime.main_loop_burst(2_000)
        got = [pkt.to_bytes() for _port, _ts, pkt in runtime.collect()]
        assert sorted(got) == sorted(p.to_bytes() for p in sent)
        assert got != [p.to_bytes() for p in sent]

    def test_empty_plan_is_byte_identical_to_no_plan(self):
        # The regression the satellite demands: attaching an empty
        # FaultPlan (fresh or fully cleared) must not perturb a single
        # byte relative to running with no plan at all.
        baseline = run_nat(None)
        assert run_nat(FaultPlan(seed=5)) == baseline
        cleared = FaultPlan(seed=5).reorder(probability=1.0).clear(kind="reorder")
        assert run_nat(cleared) == baseline


class TestReorderInTheBatch:
    """A reorder swaps within the batch its worker has not taken yet, in
    every sharded runtime: a frame a hung worker took at a held turn
    keeps its place ahead of the next one."""

    @pytest.mark.parametrize(
        "execution, transport",
        [(THREADED_DETERMINISTIC, "shm"), (PROCESS, "shm"), (PROCESS, "pipe")],
        ids=["threaded", "process-shm", "process-pipe"],
    )
    def test_a_held_frame_keeps_its_place(self, execution, transport):
        plan = (
            FaultPlan(seed=5)
            .hang_worker(0, 0, 2_000)
            .reorder(1_500, 2_000, probability=1.0)
        )
        runtime = launch(
            RuntimeSpec(
                nf_factory=VigNat,
                config=CFG,
                execution=execution,
                transport=transport,
                fault_plan=plan,
                turn_timeout_s=5.0,
            )
        )
        try:
            for now, dst_port in ((1_000, 53), (1_500, 54)):
                packet = make_udp_packet("10.0.0.1", "203.0.113.9", 1024, dst_port)
                assert runtime.inject(0, packet, now)
                runtime.main_loop_burst(now)  # hung: the worker only takes its batch
            runtime.main_loop_burst(2_000)
            sent = [packet.l4.dst_port for _port, _ts, packet in runtime.collect()]
        finally:
            runtime.stop()
        assert plan.applied["reorder"] == 1
        assert sent == [53, 54]
