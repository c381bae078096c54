"""Availability sweep: kill-and-promote under replication lag.

Not a figure of the paper — the paper's NAT restarts from empty state —
but the resilience subsystem must honor three contracts while buying
real availability:

(a) **zero loss when synchronous**: at replication lag 0 the promoted
    standby recovers every established flow — killing a worker loses
    packets (queued + blackout) but never a flow;
(b) **asynchrony has a price, and only that price**: flows lost grow
    (weakly) with the lag and never exceed the deltas the channel cut
    destroyed, and every flow the standby did recover keeps translating
    after promotion (the post-recovery probe loses nothing beyond the
    replication loss);
(c) **bounded blackout**: the modeled recovery window stays within the
    loss budget at every lag.

The measured numbers (flow/packet loss ledgers, recovery windows,
availability through the kill) are published to
``benchmarks/results/BENCH_failover.json`` alongside the rendered table.
"""

import json

from benchmarks.conftest import (
    RESULTS_DIR,
    failover_flow_count,
    failover_lags,
)
from repro.eval.experiments import (
    FailoverBudget,
    failover_breaches,
    failover_sweep,
)
from repro.eval.reporting import render_failover
from repro.obs import merge_snapshots, snapshot_of_counters

REPLICABLE_NFS = ("unverified-nat", "verified-nat")


def _point_snapshot(point):
    """One sweep point's loss ledger in the shared snapshot schema."""
    return snapshot_of_counters(
        {
            "failover_flows_at_kill": point.flows_at_kill,
            "failover_flows_recovered": point.flows_recovered,
            "failover_flows_lost": point.flows_lost,
            "failover_deltas_lost": point.deltas_lost,
            "failover_packets_lost_queue": point.packets_lost_queue,
            "failover_packets_lost_blackout": point.packets_lost_blackout,
        },
        labels={"nf": point.nf, "lag": str(point.lag)},
        help_text="failover-sweep loss ledger",
    )


def _bench_record(point):
    return {
        "nf": point.nf,
        "lag": point.lag,
        "flow_count": point.flow_count,
        "workers": point.workers,
        "flows_at_kill": point.flows_at_kill,
        "flows_recovered": point.flows_recovered,
        "flows_lost": point.flows_lost,
        "deltas_lost": point.deltas_lost,
        "recovery_us": point.recovery_us,
        "packets_lost_queue": point.packets_lost_queue,
        "packets_lost_blackout": point.packets_lost_blackout,
        "steady_offered": point.steady_offered,
        "steady_delivered": point.steady_delivered,
        "availability": round(point.availability, 4),
        "probe_offered": point.probe_offered,
        "probe_delivered": point.probe_delivered,
        "metrics": _point_snapshot(point),
    }


def test_failover_sweep(benchmark, publish, publish_snapshot):
    lags = failover_lags()
    points = benchmark.pedantic(
        lambda: failover_sweep(lags=lags, flow_count=failover_flow_count()),
        rounds=1,
        iterations=1,
    )
    publish("failover_sweep", render_failover(points))
    publish_snapshot(
        "failover_sweep", merge_snapshots([_point_snapshot(p) for p in points])
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_failover.json").write_text(
        json.dumps([_bench_record(p) for p in points], indent=2) + "\n"
    )

    by_key = {(p.nf, p.lag): p for p in points}
    assert set(by_key) == {(nf, lag) for nf in REPLICABLE_NFS for lag in lags}

    for point in points:
        # A failover actually happened, and it was not free.
        assert point.flows_at_kill > 0, (point.nf, point.lag)
        assert point.recovery_us > 0
        assert point.availability < 1.0, (point.nf, point.lag)
        # The channel cut destroyed exactly its in-flight window.
        assert point.deltas_lost == point.lag, (point.nf, point.lag)
        # Flow loss is bounded by what the channel destroyed.
        assert point.flows_lost <= point.deltas_lost
        # (b) recovered flows keep translating: the probe loses nothing
        # beyond what replication already lost.
        assert point.probe_lost <= point.flows_lost, (
            point.nf,
            point.lag,
            point.probe_lost,
            point.flows_lost,
        )

    for nf in REPLICABLE_NFS:
        # (a) The synchronous anchor: zero established-flow loss.
        assert by_key[(nf, 0)].flows_lost == 0, nf
        # (b) Loss grows (weakly) with the lag.
        losses = [by_key[(nf, lag)].flows_lost for lag in sorted(lags)]
        assert losses == sorted(losses), (nf, losses)
        if max(lags) > 0:
            assert by_key[(nf, max(lags))].flows_lost > 0, (
                f"{nf}: an asynchronous channel (lag {max(lags)}) "
                "lost no flows — the sweep is not exercising the cut"
            )

    # (c) The loss budget the CLI gate enforces holds here too.
    assert failover_breaches(points, FailoverBudget()) == []

    # A promoted standby with the microflow cache enabled must not
    # serve its first packets cold: promotion rebuilds both directions
    # of every recovered flow into the cache.
    warm_points = failover_sweep(
        lags=(0,), flow_count=min(64, failover_flow_count()), fastpath="compiled"
    )
    for point in warm_points:
        assert point.flows_recovered > 0, point.nf
        assert point.fastpath_warmed == 2 * point.flows_recovered, (
            point.nf,
            point.fastpath_warmed,
            point.flows_recovered,
        )
