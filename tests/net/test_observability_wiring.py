"""Pool accounting under sharding, and the runtimes' metric snapshots."""

import pytest

from repro.nat.config import NatConfig
from repro.nat.vignat import VigNat
from repro.net.app import INLINE, RuntimeSpec, launch
from repro.net.mbuf import MbufPool
from repro.packets.builder import make_udp_packet


def _sharded(pool_size: int):
    return launch(
        RuntimeSpec(
            nf_factory=VigNat,
            config=NatConfig(max_flows=64),
            workers=2,
            pool_size=pool_size,
        )
    )


def _packet(sport: int = 5000, device: int = 0):
    return make_udp_packet("10.0.0.5", "8.8.8.8", sport, 53, device=device)


# -- the over-credit bugfix ---------------------------------------------------


def test_cross_pool_free_raises():
    """Worker B crediting worker A's buffer must fail loudly.

    Before the ownership tag, a cross-worker free into a non-full pool
    silently inflated that pool's free count while the owning pool
    leaked — both workers' ``in_flight`` became lies.
    """
    pool_a, pool_b = MbufPool(capacity=4), MbufPool(capacity=4)
    mbuf = pool_a.alloc(_packet())
    with pytest.raises(RuntimeError, match="cross-worker"):
        pool_b.free(mbuf)
    # The misdirected free changed nothing on either side.
    assert pool_a.in_flight == 1
    assert pool_b.in_flight == 0
    # The rightful owner can still reclaim its buffer.
    pool_a.free(mbuf)
    assert pool_a.in_flight == 0


def test_double_free_still_raises():
    pool = MbufPool(capacity=2)
    mbuf = pool.alloc(_packet())
    pool.free(mbuf)
    with pytest.raises(RuntimeError, match="double free"):
        pool.free(mbuf)


def test_ownerless_mbuf_into_full_pool_raises():
    """Hand-built mbufs keep the legacy capacity-only defense."""
    from repro.net.mbuf import Mbuf

    pool = MbufPool(capacity=1)
    foreign = Mbuf(packet=_packet())
    with pytest.raises(RuntimeError, match="full pool"):
        pool.free(foreign)


def test_sharded_workers_use_private_pools():
    runtime = _sharded(pool_size=8)
    pools = {id(r.pool) for r in runtime.runtimes}
    assert len(pools) == 2


# -- drop-cause aggregation ---------------------------------------------------


def test_sharded_high_water_aggregates_by_max():
    """Watermarks are per-pool; the merged figure is the worst single
    pool's mark, never a sum no pool ever reached."""
    runtime = _sharded(pool_size=8)
    runtime.runtimes[0].pool.high_water = 5
    runtime.runtimes[1].pool.high_water = 3
    causes = runtime.drop_causes()
    assert causes["pool_high_water"] == 5


def test_sharded_drop_counts_sum():
    runtime = _sharded(pool_size=8)
    runtime.runtimes[0].nf_dropped = 2
    runtime.runtimes[1].nf_dropped = 3
    assert runtime.drop_causes()["nf_drop"] == 5


# -- metric snapshots ---------------------------------------------------------


def _by_name(snapshot):
    return {m["name"]: m for m in snapshot["metrics"]}


def test_runtime_snapshot_covers_pool_nic_and_nf():
    runtime = launch(
        RuntimeSpec(VigNat, NatConfig(max_flows=64), execution=INLINE, pool_size=32)
    )
    for i in range(4):
        runtime.inject(0, _packet(5000 + i), timestamp=i)
    runtime.main_loop_burst(now_us=10, burst_size=8)

    metrics = _by_name(runtime.snapshot_metrics())

    def total(name):
        return sum(s["value"] for s in metrics[name]["samples"])

    # NIC counters are per-port samples (rx on port 0, tx on port 1).
    assert total("nic_rx_packets_total") == 4
    assert total("nic_tx_packets_total") == 4
    assert metrics["pool_capacity"]["samples"][0]["value"] == 32
    assert metrics["pool_in_flight"]["samples"][0]["value"] == 0
    assert metrics["pool_high_water"]["samples"][0]["value"] > 0
    assert metrics["pool_high_water"]["merge"] == "max"
    assert metrics["runtime_nf_dropped_total"]["samples"][0]["value"] == 0
    assert metrics["flow_table_occupancy"]["samples"][0]["value"] == 4


def test_sharded_snapshot_labels_every_worker():
    runtime = _sharded(pool_size=32)
    for i in range(8):
        runtime.inject(0, _packet(5000 + i), timestamp=i)
    runtime.main_loop_burst(now_us=10, burst_size=8)

    metrics = _by_name(runtime.snapshot_metrics())
    rx = metrics["nic_rx_packets_total"]["samples"]
    assert {s["labels"]["worker"] for s in rx} == {"0", "1"}
    assert sum(s["value"] for s in rx) == 8
    steered = metrics["rss_steered_total"]["samples"]
    assert sum(s["value"] for s in steered) == 8
    # Every worker's private pool reports under its own label.
    high_water = metrics["pool_high_water"]
    assert high_water["merge"] == "max"
    assert len(high_water["samples"]) == 2
