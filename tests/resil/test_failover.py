"""Replication and the one recovery primitive.

Unit half: the lagged channel's in-flight window and the standby's
mirroring rules (age order preserved, out-of-order deltas tolerated).
Integration half: a kill rebuilds the dead shard alone from its standby
(``SteeringFront.recover``), through ``launch()`` in both sharded
executions — zero established-flow loss at lag 0, loss bounded by the
cut's in-flight window at lag > 0, transmitted packets surviving the
kill, and queued ones dying with it.
"""

import pytest

from repro.nat.config import NatConfig
from repro.nat.unverified import UnverifiedNat
from repro.nat.vignat import VigNat
from repro.net.app import PROCESS, THREADED_DETERMINISTIC, RuntimeSpec, launch
from repro.packets.builder import make_udp_packet
from repro.resil.checkpoint import restore
from repro.resil.faults import FaultPlan
from repro.resil.replication import FlowDelta, ReplicationChannel, StandbyReplica

CFG = NatConfig(max_flows=64, expiration_time=60_000_000, start_port=1000)


@pytest.fixture
def launched(request):
    """Launch replicated two-worker runtimes in the test class's
    ``EXECUTION`` (with an empty fault plan to script kills on); every
    one is stopped at teardown."""
    runtimes = []

    def make(nf_ctor, lag, **overrides):
        spec = RuntimeSpec(
            nf_factory=nf_ctor,
            config=CFG,
            workers=2,
            execution=request.cls.EXECUTION,
            replication_lag=lag,
            fault_plan=FaultPlan(),
            turn_timeout_s=5.0,
        )
        runtimes.append(launch(spec.with_(**overrides)))
        return runtimes[-1]

    yield make
    for runtime in runtimes:
        runtime.stop()


def _kill(runtime, now):
    """Kill worker 1 just before ``now``; the turn at ``now`` recovers it."""
    runtime.fault_plan.kill_worker(1, at_us=now - 1)
    runtime.main_loop_burst(now)


def _standby_flows(runtime):
    return sum(replica.flow_count() for replica in runtime.replicas)


class TestReplicationChannel:
    def test_lag_zero_is_synchronous(self):
        channel = ReplicationChannel(lag=0)
        delta = FlowDelta("create", 1, None, 10)
        assert channel.publish(delta) == [delta]
        assert channel.in_flight_count() == 0

    def test_lag_keeps_newest_in_flight(self):
        channel = ReplicationChannel(lag=2)
        deltas = [FlowDelta("touch", i, None, i) for i in range(5)]
        delivered = []
        for delta in deltas:
            delivered.extend(channel.publish(delta))
        assert delivered == deltas[:3]
        assert channel.in_flight_count() == 2
        assert channel.lost_in_flight() == deltas[3:]
        assert channel.lost_total == 2

    def test_drain_is_a_sync_barrier(self):
        channel = ReplicationChannel(lag=3)
        deltas = [FlowDelta("touch", i, None, i) for i in range(3)]
        for delta in deltas:
            channel.publish(delta)
        assert channel.drain() == deltas
        assert channel.in_flight_count() == 0
        assert channel.delivered_total == 3

    def test_negative_lag_rejected(self):
        with pytest.raises(ValueError, match="lag"):
            ReplicationChannel(lag=-1)


class TestStandbyReplica:
    def test_only_replicable_nfs(self):
        with pytest.raises(ValueError, match="not supported"):
            StandbyReplica("noop", CFG)

    def test_mirrors_create_touch_free(self):
        replica = StandbyReplica("unverified-nat", CFG)
        fid = type("Fid", (), dict(
            src_ip=1, src_port=2, dst_ip=3, dst_port=4, protocol=17
        ))()
        replica.apply(FlowDelta("create", 1000, fid, 10))
        assert replica.flow_count() == 1
        replica.apply(FlowDelta("touch", 1000, None, 20))
        replica.apply(FlowDelta("free", 1000, None, 30))
        assert replica.flow_count() == 0
        assert replica.out_of_order_total == 0

    def test_out_of_order_deltas_tolerated(self):
        replica = StandbyReplica("unverified-nat", CFG)
        replica.apply(FlowDelta("touch", 1234, None, 10))  # never created here
        replica.apply(FlowDelta("free", 1234, None, 20))
        assert replica.flow_count() == 0
        assert replica.out_of_order_total == 2

    def test_mirror_restores_into_a_real_nf(self):
        # The promotion path end to end, but driven by a live NF: every
        # delta the active emits replays onto the standby, and the
        # synthesized checkpoint restores into a fresh NF holding the
        # same flows.
        active = VigNat(CFG)
        replica = StandbyReplica("verified-nat", CFG)
        active.delta_sink(
            lambda raw: replica.apply(FlowDelta(*raw))
        )
        for i in range(5):
            active.process(
                make_udp_packet("10.0.0.1", "8.8.8.8", 4_000 + i, 53, device=0),
                1_000 + i,
            )
        assert replica.flow_count() == active.flow_count() == 5
        fresh = VigNat(CFG)
        restore(fresh, replica.to_checkpoint(2_000))
        assert fresh.flow_count() == 5
        # The restored NF translates a reply for a replicated flow.
        ext_port = CFG.start_port  # VigNat: first flow got start_port + 0
        outputs = fresh.process(
            make_udp_packet("8.8.8.8", CFG.external_ip, 53, ext_port, device=1),
            3_000,
        )
        assert outputs and outputs[0].device == CFG.internal_device


def _establish(runtime, count, now=1_000):
    """Open ``count`` outbound flows; returns ({marker: ext_port}, now).

    The reply destination port 20_000+i marks each flow, surviving the
    source rewrite.
    """
    for i in range(count):
        runtime.inject(
            0,
            make_udp_packet("10.0.0.1", "8.8.8.8", 1_024 + i, 20_000 + i, device=0),
            now,
        )
        now += 5
    now += 5
    runtime.main_loop_burst(now)
    ext_of = {}
    for _, _, out in runtime.collect():
        if out.ipv4.src_ip == CFG.external_ip:
            ext_of[out.l4.dst_port - 20_000] = out.l4.src_port
    assert len(ext_of) == count
    return ext_of, now


def _reply(marker, ext_port):
    return make_udp_packet(
        "8.8.8.8", CFG.external_ip, 20_000 + marker, ext_port, device=1
    )


@pytest.mark.parametrize("nf_ctor", [VigNat, UnverifiedNat])
class TestKillAndPromote:
    EXECUTION = THREADED_DETERMINISTIC

    def test_lag0_loses_no_flows(self, nf_ctor, launched):
        runtime = launched(nf_ctor, 0)
        ext_of, now = _establish(runtime, 24)
        flows_before = runtime.flow_count()

        _kill(runtime, now + 2)

        (report,) = runtime.reports
        assert report.worker == 1
        assert report.flows_lost == 0
        assert report.deltas_lost == 0
        assert report.flows_recovered == report.flows_at_kill
        assert runtime.flow_count() == flows_before

        # Every flow — including those the dead worker held — still
        # translates on the rebuilt shard.
        now += 10
        for marker, ext_port in ext_of.items():
            assert runtime.inject(1, _reply(marker, ext_port), now), marker
        now += 5
        runtime.main_loop_burst(now)
        delivered = runtime.collect()
        assert len(delivered) == len(ext_of)

    def test_lag_bounds_the_loss(self, nf_ctor, launched):
        lag = 4
        runtime = launched(nf_ctor, lag)
        _, now = _establish(runtime, 24)

        _kill(runtime, now + 2)

        (report,) = runtime.reports
        assert report.deltas_lost == lag  # exactly the in-flight window
        assert 0 <= report.flows_lost <= lag
        assert (
            report.flows_recovered + report.flows_lost == report.flows_at_kill
        )

    def test_transmitted_packets_survive_the_kill(self, nf_ctor, launched):
        # Packets the dead worker had already handed to TX are on the
        # wire; the rebuild must not discard them with the shard.
        runtime = launched(nf_ctor, 0)
        now = 1_000
        for i in range(16):
            runtime.inject(
                0,
                make_udp_packet(
                    "10.0.0.1", "8.8.8.8", 1_024 + i, 20_000 + i, device=0
                ),
                now + i,
            )
        now += 20
        runtime.main_loop_burst(now)  # processed and transmitted...
        # ...but NOT collected before the kill.
        _kill(runtime, now + 2)
        assert len(runtime.collect()) == 16
        (report,) = runtime.reports
        assert report.packets_lost_queue == 0

    def test_queued_packets_die_with_the_worker(self, nf_ctor, launched):
        runtime = launched(nf_ctor, 0)
        _, now = _establish(runtime, 8)
        # Refill the dead worker's RX queue, then kill before it serves.
        for i in range(12):
            runtime.inject(
                0,
                make_udp_packet(
                    "10.0.0.2", "8.8.8.8", 3_000 + i, 30_000 + i, device=0
                ),
                now + i,
            )
        queued_on_1 = runtime.steered[1]  # includes the establish share
        _kill(runtime, now + 14)
        (report,) = runtime.reports
        assert report.packets_lost_queue > 0
        assert report.packets_lost_queue <= queued_on_1
        assert (
            runtime.drop_causes()["fault_kill_lost"] == report.packets_lost_queue
        )

    def test_drain_replication_syncs_standbys(self, nf_ctor, launched):
        runtime = launched(nf_ctor, 16)
        _establish(runtime, 24)
        assert _standby_flows(runtime) < runtime.flow_count()
        for channel, replica in zip(runtime.channels, runtime.replicas):
            replica.apply_all(channel.drain())
        assert _standby_flows(runtime) == runtime.flow_count()

    def test_promoted_worker_keeps_replicating(self, nf_ctor, launched):
        # A second kill of the same slot after new flows were opened on
        # the rebuilt shard must again lose nothing at lag 0 — the fresh
        # NF replicates like its predecessor.
        runtime = launched(nf_ctor, 0)
        _, now = _establish(runtime, 12)
        _kill(runtime, now + 2)
        now += 12

        for i in range(12):
            runtime.inject(
                0,
                make_udp_packet(
                    "10.0.0.3", "8.8.8.8", 5_000 + i, 40_000 + i, device=0
                ),
                now + i,
            )
        now += 20
        runtime.main_loop_burst(now)
        runtime.collect()
        flows_before = runtime.flow_count()

        _kill(runtime, now + 2)
        assert len(runtime.reports) == 2
        assert runtime.reports[1].flows_lost == 0
        assert runtime.flow_count() == flows_before


class TestKillAndPromoteInProcess(TestKillAndPromote):
    """The same kills as real SIGKILLs of worker processes."""

    EXECUTION = PROCESS


def _second_wave(runtime, count, now):
    for i in range(count):
        runtime.inject(
            0,
            make_udp_packet("10.0.0.7", "8.8.8.8", 7_000 + i, 30_000 + i, device=0),
            now + i,
        )
    now += count + 5
    runtime.main_loop_burst(now)
    assert len(runtime.collect()) == count
    return now


@pytest.mark.parametrize("nf_ctor", [VigNat, UnverifiedNat])
class TestReplicatedRestore:
    """``restore(set)`` on a replicated deployment rolls the standbys
    back with the actives (``docs/RESILIENCE.md``)."""

    EXECUTION = THREADED_DETERMINISTIC

    def test_promoted_standby_holds_exactly_the_checkpoints_flows(
        self, nf_ctor, launched
    ):
        lag = 4
        runtime = launched(nf_ctor, lag)
        ext_of, now = _establish(runtime, 16)
        checkpoint_set = runtime.checkpoint(now)
        now = _second_wave(runtime, 12, now + 10)
        assert runtime.flow_count() == 28
        assert _standby_flows(runtime) < 28  # the rest is in flight

        runtime.restore(checkpoint_set)
        assert runtime.flow_count() == 16
        # Rebuilt from the frames, not caught up delta by delta: the
        # deltas in flight described the state that was rolled back.
        assert _standby_flows(runtime) == 16
        assert all(c.in_flight_count() == 0 for c in runtime.channels)
        assert runtime.drop_causes()["replication_deltas_lost"] == lag * 2

        _kill(runtime, now + 2)
        (report,) = runtime.reports
        assert report.flows_lost == 0 and report.deltas_lost == 0
        rebuilt = runtime.checkpoint(now + 3).checkpoints[1].state["flows"]
        assert rebuilt == checkpoint_set.checkpoints[1].state["flows"]
        assert report.flows_recovered == len(rebuilt) > 0
        # The first wave still translates; the second is gone for good.
        now += 10
        for marker, ext_port in ext_of.items():
            assert runtime.inject(1, _reply(marker, ext_port), now)
        runtime.main_loop_burst(now + 5)
        assert len(runtime.collect()) == len(ext_of)
        assert runtime.flow_count() == 16

    def test_restored_actives_keep_replicating(self, nf_ctor, launched):
        # Shard.restore lands the state in a fresh NF: without a new
        # sink the standbys would never hear of another flow.
        runtime = launched(nf_ctor, 0)
        _, now = _establish(runtime, 8)
        runtime.restore(runtime.checkpoint(now))
        _second_wave(runtime, 8, now + 10)
        assert _standby_flows(runtime) == runtime.flow_count() == 16

    def test_restore_ends_a_promotion_blackout(self, nf_ctor, launched):
        """A restore right after a rebuild serves every flow at once."""
        runtime = launched(nf_ctor, 0)
        ext_of, now = _establish(runtime, 8)
        checkpoint_set = runtime.checkpoint(now)
        _kill(runtime, now + 2)
        assert len(runtime.reports) == 1
        runtime.restore(checkpoint_set)
        for marker, ext_port in ext_of.items():
            assert runtime.inject(1, _reply(marker, ext_port), now + 3), marker
        runtime.main_loop_burst(now + 4)
        assert len(runtime.collect()) == len(ext_of)

    def test_a_refused_set_changes_nothing(self, nf_ctor, launched):
        runtime = launched(nf_ctor, 4)
        _, now = _establish(runtime, 16)
        standby_before = _standby_flows(runtime)
        other = launch(RuntimeSpec(nf_factory=nf_ctor, config=CFG, workers=1))
        with pytest.raises(Exception):
            runtime.restore(other.checkpoint(now))
        assert runtime.flow_count() == 16
        assert _standby_flows(runtime) == standby_before
        assert sum(c.in_flight_count() for c in runtime.channels) == 8


class TestReplicatedRestoreInProcess(TestReplicatedRestore):
    EXECUTION = PROCESS


#: Every sharded execution and transport the recovery runs in.
SHARDED = {
    "threaded": dict(execution=THREADED_DETERMINISTIC),
    "process-shm": dict(execution=PROCESS, transport="shm"),
    "process-pipe": dict(execution=PROCESS, transport="pipe"),
}


@pytest.mark.parametrize("cell", SHARDED)
class TestRecoverySurface:
    EXECUTION = THREADED_DETERMINISTIC

    def test_metrics_cover_replication_and_failover(self, cell, launched):
        runtime = launched(VigNat, 2, **SHARDED[cell])
        _, now = _establish(runtime, 8)
        _kill(runtime, now + 2)
        snapshot = runtime.snapshot_metrics()
        names = {metric["name"] for metric in snapshot["metrics"]}
        assert {
            "replication_published_total",
            "replication_delivered_total",
            "replication_lost_total",
            "replication_in_flight",
            "standby_flows",
            "failover_total",
        } <= names

    def test_fastpath_survives_promotion(self, cell, launched):
        # The rebuilt NF is wrapped like its predecessor, behind a
        # cache of its own: no pre-kill action exists in it.
        runtime = launched(VigNat, 0, fastpath="compiled", **SHARDED[cell])
        ext_of, now = _establish(runtime, 16)
        _kill(runtime, now + 2)
        (report,) = runtime.reports
        assert report.flows_lost == 0
        now += 10
        for marker, ext_port in ext_of.items():
            runtime.inject(1, _reply(marker, ext_port), now)
        runtime.main_loop_burst(now + 5)
        assert len(runtime.collect()) == len(ext_of)

    def test_promotion_starts_the_cache_cold(self, cell, launched):
        # An action is cached only once its closure has reproduced the
        # slow path's bytes on a real frame, so a rebuilt shard's cache
        # starts empty and each recovered flow's first packet learns,
        # once, as any new flow's does. The probe loses nothing.
        runtime = launched(VigNat, 0, fastpath="compiled", **SHARDED[cell])
        ext_of, now = _establish(runtime, 16)
        _kill(runtime, now + 2)
        (report,) = runtime.reports
        assert report.flows_recovered > 0
        rebuilt = runtime.per_worker_counters()[1]
        assert rebuilt["fastpath_learns"] == rebuilt["fastpath_hits"] == 0
        for _probe in range(2):
            now += 10
            for marker, ext_port in ext_of.items():
                runtime.inject(1, _reply(marker, ext_port), now)
            runtime.main_loop_burst(now + 5)
            assert len(runtime.collect()) == len(ext_of)
        rebuilt = runtime.per_worker_counters()[1]
        assert rebuilt["fastpath_learns"] == report.flows_recovered
        assert rebuilt["fastpath_misses"] == report.flows_recovered
        assert rebuilt["fastpath_hits"] == report.flows_recovered
        assert rebuilt["fastpath_compile_rejected"] == 0

    def test_no_cache_means_nothing_to_warm(self, cell, launched):
        runtime = launched(VigNat, 0, fastpath="off", **SHARDED[cell])
        _, now = _establish(runtime, 16)
        _kill(runtime, now + 2)
        (report,) = runtime.reports
        assert report.flows_recovered > 0
        assert not any(
            name.startswith("fastpath_") for name in runtime.per_worker_counters()[1]
        )
