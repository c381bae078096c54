"""Fault-plan semantics, unit and wired into the sharded data path.

The unit half pins the :class:`FaultPlan` contract (windows, worker
scoping, builders, clear, verdicts). The integration half injects each
fault kind into a real :class:`ShardedRuntime` and asserts the data
path reacts at the documented choke point — and that attaching *no*
plan leaves the path byte-identical to an empty one (the no-fault
identity the differential sweeps rely on).
"""

import pytest

from repro.nat.config import NatConfig
from repro.nat.vignat import VigNat
from repro.net.app import RuntimeSpec, launch
from repro.packets.builder import make_udp_packet
from repro.resil.faults import Fault, FaultPlan

CFG = NatConfig(max_flows=64, expiration_time=60_000_000, start_port=1000)


class TestFaultValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            Fault("cosmic-ray")

    def test_window_ends_before_start(self):
        with pytest.raises(ValueError, match="ends before"):
            Fault("link-drop", start_us=100, end_us=50)

    @pytest.mark.parametrize("p", [0.0, -0.1, 1.5])
    def test_probability_out_of_range(self, p):
        with pytest.raises(ValueError, match="probability"):
            Fault("link-drop", probability=p)

    def test_window_is_half_open(self):
        fault = Fault("link-drop", start_us=100, end_us=200)
        assert not fault.active_at(99)
        assert fault.active_at(100)
        assert fault.active_at(199)
        assert not fault.active_at(200)

    def test_worker_scoping(self):
        fault = Fault("worker-kill", start_us=0, worker=1)
        assert fault.active_at(10, worker=1)
        assert not fault.active_at(10, worker=0)
        # Unscoped consultation sites see every fault.
        assert fault.active_at(10, worker=None)

    def test_open_ended_window(self):
        assert Fault("partition", start_us=5).active_at(10**9)


class TestFaultPlan:
    def test_builders_chain(self):
        plan = (
            FaultPlan(seed=7)
            .kill_worker(worker=1, at_us=5_000)
            .link_drop(start_us=0, end_us=2_000, probability=0.5)
            .skew_clock(magnitude_us=-500, worker=0)
        )
        assert [f.kind for f in plan.faults] == [
            "worker-kill",
            "link-drop",
            "clock-skew",
        ]
        assert not plan.empty

    def test_clear_filters_by_kind_and_worker(self):
        plan = (
            FaultPlan()
            .kill_worker(worker=0, at_us=0)
            .kill_worker(worker=1, at_us=0)
            .hang_worker(worker=1, start_us=0)
        )
        plan.clear(kind="worker-kill", worker=1)
        assert [(f.kind, f.worker) for f in plan.faults] == [
            ("worker-kill", 0),
            ("worker-hang", 1),
        ]
        plan.clear()  # no filters: retire everything
        assert plan.empty

    def test_link_verdict_drop_window(self):
        plan = FaultPlan().link_drop(start_us=100, end_us=200)
        assert plan.link_verdict(150) == ("drop", 0)
        assert plan.link_verdict(250) == ("deliver", 0)
        assert plan.applied["link-drop"] == 1

    def test_link_verdict_delay_accumulates(self):
        plan = FaultPlan().link_delay(30).link_delay(12)
        assert plan.link_verdict(0) == ("deliver", 42)

    def test_probabilistic_drop_is_seeded(self):
        outcomes = []
        for _ in range(2):
            plan = FaultPlan(seed=99).link_drop(probability=0.5)
            outcomes.append([plan.link_verdict(t)[0] for t in range(40)])
        assert outcomes[0] == outcomes[1], "same seed, same fault sequence"
        assert set(outcomes[0]) == {"drop", "deliver"}

    def test_skew_and_seizure_sum_per_worker(self):
        plan = (
            FaultPlan()
            .skew_clock(magnitude_us=-300, worker=0)
            .skew_clock(magnitude_us=100)  # every worker
            .exhaust_pool(buffers=5, worker=1)
        )
        assert plan.clock_skew_us(0, worker=0) == -200
        assert plan.clock_skew_us(0, worker=1) == 100
        assert plan.pool_seizure(0, worker=1) == 5
        assert plan.pool_seizure(0, worker=0) == 0

    def test_corrupt_packet_damages_l4_checksum_only(self):
        packet = make_udp_packet("10.0.0.1", "8.8.8.8", 4_000, 53, device=0)
        mangled = FaultPlan.corrupt_packet(packet)
        assert mangled.l4.checksum == packet.l4.checksum ^ 0x5555
        assert mangled.ipv4.checksum == packet.ipv4.checksum
        assert packet.l4.checksum != mangled.l4.checksum  # original untouched


def _runtime(plan, workers=2, **kw):
    return launch(
        RuntimeSpec(
            nf_factory=VigNat, config=CFG, workers=workers, fault_plan=plan, **kw
        )
    )


def _flood(runtime, count, now=1_000, device=0):
    delivered = 0
    for i in range(count):
        delivered += runtime.inject(
            0,
            make_udp_packet("10.0.0.1", "8.8.8.8", 2_000 + i, 53, device=device),
            now + i,
        )
    return delivered


class TestShardedRuntimeUnderFaults:
    def test_link_drop_destroys_packets_on_the_wire(self):
        plan = FaultPlan().link_drop(start_us=0, end_us=1_050)
        runtime = _runtime(plan)
        _flood(runtime, 100)  # timestamps 1_000..1_099: half in window
        runtime.main_loop_burst(2_000)
        assert runtime.fault_wire_dropped == 50
        assert len(runtime.collect()) == 50
        assert runtime.drop_causes()["fault_wire_dropped"] == 50

    def test_link_corrupt_counts_and_still_delivers(self):
        plan = FaultPlan().link_corrupt(start_us=0)
        runtime = _runtime(plan)
        _flood(runtime, 10)
        runtime.main_loop_burst(2_000)
        assert runtime.fault_wire_corrupted == 10
        # Corruption damages checksums, not deliverability: the NAT
        # still forwards (it does not verify L4 checksums, as VigNAT's
        # DPDK path does not).
        assert len(runtime.collect()) == 10

    def test_kill_flushes_and_stops_the_worker(self):
        plan = FaultPlan()
        runtime = _runtime(plan)
        _flood(runtime, 40)
        steered = list(runtime.steered)
        plan.kill_worker(worker=1, at_us=2_000)
        runtime.main_loop_burst(2_000)
        # Worker 1's queue died with it; worker 0 served its share.
        assert runtime.fault_kill_lost == steered[1]
        assert len(runtime.collect()) == steered[0]

    def test_hang_preserves_the_queue(self):
        plan = FaultPlan().hang_worker(worker=1, start_us=0, end_us=3_000)
        runtime = _runtime(plan)
        _flood(runtime, 40)
        steered = list(runtime.steered)
        runtime.main_loop_burst(2_000)  # worker 1 hung: only worker 0 serves
        assert len(runtime.collect()) == steered[0]
        runtime.main_loop_burst(3_000)  # window over: the queue survived
        assert len(runtime.collect()) == steered[1]

    def test_negative_clock_skew_drives_the_clamp(self):
        plan = FaultPlan().skew_clock(
            magnitude_us=-5_000, worker=0, start_us=10_000, end_us=11_000
        )
        runtime = _runtime(plan, workers=1)
        _flood(runtime, 4, now=9_000)
        runtime.main_loop_burst(9_500)  # establishes _last_now = 9_500
        _flood(runtime, 4, now=10_000)
        runtime.main_loop_burst(10_500)  # NF sees 5_500: clamped, no crash
        clamped = runtime.per_worker_counters()[0]["clock_clamped"]
        assert clamped > 0
        assert len(runtime.collect()) == 8  # nothing lost to the skew

    def test_pool_seizure_starves_rx(self):
        # A seized pool cannot hand out mbufs: packets stay queued on
        # the RX ring (counted as rx_nombuf, like the NIC counter)
        # rather than being processed — or lost.
        plan = FaultPlan().exhaust_pool(buffers=8, start_us=0)
        runtime = _runtime(plan, workers=1, pool_size=8, rx_capacity=64)
        runtime.main_loop_burst(500)  # seizure applied on the turn
        _flood(runtime, 4)
        assert runtime.main_loop_burst(1_200) == 0
        assert runtime.collect() == []
        assert runtime.drop_causes()["rx_no_mbuf"] > 0

    def test_seizure_releases_after_window(self):
        plan = FaultPlan().exhaust_pool(buffers=8, start_us=0, end_us=1_000)
        runtime = _runtime(plan, workers=1, pool_size=8, rx_capacity=64)
        runtime.main_loop_burst(500)
        _flood(runtime, 4)
        assert runtime.main_loop_burst(600) == 0  # starved inside the window
        # Window over: the buffers return and the queued packets — which
        # survived the starvation on the ring — all get served.
        assert runtime.main_loop_burst(1_000) == 4
        assert len(runtime.collect()) == 4

    @pytest.mark.parametrize(
        "seized, served, short_bursts",
        [(60, 20, 4), (64, 0, 1)],
        ids=["60-of-64", "all-64"],
    )
    def test_only_a_whole_pool_seizure_starves_rx(self, seized, served, short_bursts):
        # A partial seizure leaves the pool's remainder to serve with:
        # 60 of 64 seized still drains a 20-frame queue in one turn, in
        # 4-buffer bursts, each burst that leaves frames queued counted
        # as rx_no_mbuf. Only seizing all 64 serves nothing.
        plan = FaultPlan().exhaust_pool(buffers=seized, start_us=0)
        runtime = _runtime(plan, workers=1, pool_size=64, rx_capacity=64)
        runtime.main_loop_burst(500)  # seizure applied on the turn
        _flood(runtime, 20)
        assert runtime.main_loop_burst(1_100) == served
        assert len(runtime.collect()) == served
        assert runtime.drop_causes()["rx_no_mbuf"] == short_bursts

    def test_empty_plan_is_byte_identical_to_no_plan(self):
        with_plan = _runtime(FaultPlan())
        without = _runtime(None)
        _flood(with_plan, 30)
        _flood(without, 30)
        with_plan.main_loop_burst(2_000)
        without.main_loop_burst(2_000)
        rendered = [
            [(port, t, p.device, p.wire_bytes()) for port, t, p in rt.collect()]
            for rt in (with_plan, without)
        ]
        assert rendered[0] == rendered[1]
