"""Supervision without replication: a dead shard returns to its fence.

Without ``supervise=True`` a dead process worker surfaces as
``WorkerCrashed`` and recovery is the caller's problem. With it, the
runtime rebuilds the dead shard alone (fresh process, fresh rings) from
its frame of the last coordinated ``CheckpointSet`` — rolling back
exactly that shard's traffic since the fence — while the survivors keep
theirs, and keeps serving. Recoveries are counted in the merged metrics.
"""

import glob
import os
import signal

import pytest

from repro.nat.config import NatConfig
from repro.nat.vignat import VigNat
from repro.net.app import INLINE, PROCESS, THREADED_DETERMINISTIC, RuntimeSpec, launch
from repro.net.procrun import TRANSPORTS, WorkerCrashed
from repro.resil.faults import FaultPlan
from repro.packets.builder import make_udp_packet

CFG = NatConfig(max_flows=256, expiration_time=60_000_000, start_port=1000)


def spec(transport, **overrides):
    base = dict(
        nf_factory=VigNat,
        config=CFG,
        workers=2,
        execution=PROCESS,
        transport=transport,
        supervise=True,
        turn_timeout_s=5.0,
    )
    base.update(overrides)
    return RuntimeSpec(**base)


def feed(runtime, count, base_port, now):
    for i in range(count):
        runtime.inject(
            0,
            make_udp_packet(
                f"10.0.0.{(i % 200) + 1}", "8.8.8.8",
                base_port + i, 53, device=0,
            ),
            now + i,
        )
    return runtime.main_loop_burst(now + count, 32)


def flows_of(checkpoint_set, worker):
    return checkpoint_set.checkpoints[worker].state["flows"]


@pytest.mark.parametrize("transport", TRANSPORTS)
class TestSupervisor:
    def test_respawn_restores_last_checkpoint(self, transport):
        for execution in (PROCESS, THREADED_DETERMINISTIC):
            self._respawn_restores_last_checkpoint(transport, execution)

    @staticmethod
    def _respawn_restores_last_checkpoint(transport, execution):
        rt = launch(spec(transport, execution=execution, fault_plan=FaultPlan()))
        try:
            feed(rt, 8, 1_024, 100)
            rt.collect()
            fence = rt.checkpoint(500)
            steered_at_fence = rt.steered
            feed(rt, 8, 2_048, 600)  # past the fence: one new flow a packet
            rt.collect()
            opened = [now - then for now, then in zip(rt.steered, steered_at_fence)]
            assert min(opened) > 0

            rt.fault_plan.kill_worker(worker=0, at_us=1_000)
            assert rt.main_loop_burst(1_000, 32) == 0  # the recovery turn
            assert len(rt.reports) == 1
            # The dead shard is back at its fence; the survivor kept
            # every flow it opened after it.
            after = rt.checkpoint(1_001)
            assert flows_of(after, 0) == flows_of(fence, 0)
            survivor = len(flows_of(fence, 1)) + opened[1]
            assert len(flows_of(after, 1)) == survivor

            # The fleet serves on: new flows NAT normally after recovery.
            assert feed(rt, 8, 4_096, 2_000) == 8
            assert rt.flow_count() == len(flows_of(fence, 0)) + survivor + 8
        finally:
            rt.stop()

    def test_construction_checkpoint_is_the_initial_baseline(self, transport):
        """A crash before any explicit checkpoint rolls the dead shard
        back to empty; the survivor keeps its flows."""
        rt = launch(spec(transport))
        try:
            feed(rt, 8, 1_024, 100)
            rt.collect()
            os.kill(rt._procs[1].pid, signal.SIGKILL)
            rt._procs[1].join()
            assert rt.main_loop_burst(500, 32) == 0
            assert rt.flow_count() == rt.steered[0]  # one packet per flow
            assert len(rt.reports) == 1
        finally:
            rt.stop()

    def test_fault_plan_kill_is_recovered_not_raised(self, transport):
        plan = FaultPlan(seed=7).kill_worker(worker=1, at_us=600)
        rt = launch(spec(transport, fault_plan=plan))
        try:
            feed(rt, 8, 1_024, 100)
            rt.collect()
            rt.checkpoint(500)
            assert rt.main_loop_burst(700, 32) == 0  # kill fires + recovery
            assert len(rt.reports) == 1
            # The kill window was cleared, so the respawned slot serves.
            assert feed(rt, 8, 2_048, 1_000) == 8
        finally:
            rt.stop()

    def test_restarts_ride_the_merged_metrics(self, transport):
        rt = launch(spec(transport))
        try:
            os.kill(rt._procs[0].pid, signal.SIGKILL)
            rt._procs[0].join()
            rt.main_loop_burst(100, 32)
            snapshot = rt.snapshot_metrics()
            (metric,) = (
                m for m in snapshot["metrics"] if m["name"] == "failover_total"
            )
            (sample,) = metric["samples"]
            assert sample["value"] == 1
        finally:
            rt.stop()

    def test_transmitted_frames_survive_the_kill(self, transport):
        """Frames a worker transmitted before it died were sent: the
        rebuild keeps them for ``collect()``."""
        rt = launch(spec(transport))
        try:
            feed(rt, 16, 1_024, 100)
            assert min(rt.steered) > 0  # both workers transmitted
            os.kill(rt._procs[1].pid, signal.SIGKILL)
            rt._procs[1].join()
            rt.main_loop_burst(500, 32)  # the recovery turn
            assert len(rt.collect()) == 16
        finally:
            rt.stop()

    def test_frames_in_flight_at_the_death_are_counted_lost(self, transport):
        """Frames shipped to a worker that dies before acking them die
        with it: the rebuild counts them, like a queued batch."""
        rt = launch(spec(transport, workers=1))
        try:
            for i in range(16):
                packet = make_udp_packet("10.0.0.1", "8.8.8.8", 1_024 + i, 53)
                rt.inject(0, packet, 100)
            os.kill(rt._procs[0].pid, signal.SIGKILL)
            rt._procs[0].join()
            # The turn ships all 16, finds the worker dead and rebuilds it.
            assert rt.main_loop_burst(500, 32) == 0
            assert rt.collect() == []
            (report,) = rt.reports
            assert report.packets_lost_queue == 16
            assert rt.fault_kill_lost == 16
        finally:
            rt.stop()

    def test_a_real_crash_shows_its_losses_in_drop_causes(self, transport):
        """No fault plan: what a rebuild counted lost is still reported,
        under the key a plan's kill uses. A fleet with neither a plan
        nor a supervisor keeps its keys as they were."""
        rt = launch(spec(transport, workers=1))
        try:
            for i in range(8):
                packet = make_udp_packet("10.0.0.1", "8.8.8.8", 1_024 + i, 53)
                rt.inject(0, packet, 100)
            os.kill(rt._procs[0].pid, signal.SIGKILL)
            rt._procs[0].join()
            rt.main_loop_burst(500, 32)
            assert rt.reports[0].packets_lost_queue == 8
            lost = sum(report.packets_lost_queue for report in rt.reports)
            assert rt.drop_causes()["fault_kill_lost"] == lost == 8
        finally:
            rt.stop()
        plain = launch(spec(transport, workers=1, supervise=False))
        try:
            assert "fault_kill_lost" not in plain.drop_causes()
        finally:
            plain.stop()

    def test_unsupervised_crash_still_raises(self, transport):
        rt = launch(spec(transport, supervise=False))
        try:
            os.kill(rt._procs[0].pid, signal.SIGKILL)
            rt._procs[0].join()
            with pytest.raises(WorkerCrashed):
                rt.main_loop_burst(100, 32)
        finally:
            rt.stop()


def test_supervise_requires_a_sharded_execution():
    with pytest.raises(ValueError, match="supervise"):
        RuntimeSpec(nf_factory=VigNat, execution=INLINE, supervise=True)
    assert RuntimeSpec(nf_factory=VigNat, supervise=True).supervise


def test_respawn_replaces_rings_without_leaks():
    """Recovery swaps in fresh segments and unlinks the dead worker's."""
    rt = launch(spec("shm"))
    old_names = [r.name for r in rt._all_rings]
    try:
        os.kill(rt._procs[0].pid, signal.SIGKILL)
        rt._procs[0].join()
        rt.main_loop_burst(100, 32)
        new_names = [r.name for r in rt._all_rings]
        assert len(new_names) == len(old_names)
        replaced = set(old_names) - set(new_names)
        assert len(replaced) == 2  # worker 0's inject + out rings
        for name in replaced:
            assert not glob.glob(f"/dev/shm/{name}")
    finally:
        rt.stop()
    for name in set(old_names) | set(new_names):
        assert not glob.glob(f"/dev/shm/{name}")
