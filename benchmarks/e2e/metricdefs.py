"""Every metric this benchmark reports: name, unit, direction, meaning.

The one place a metric is defined. ``BENCHMARK.json`` repeats name, unit,
direction and bound for the driver that gates PRs; ``tests/test_contract.py``
fails when the two, the README glossary or the printed output disagree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    doc: str
    #: End-to-end only: share of the parent's median by which the metric
    #: may get worse before a PR is rejected.
    bound: Optional[float] = None
    #: The value is a count (or ratio of counts) taken over a fixed amount
    #: of work, so two runs of one seed must agree exactly.
    exact: bool = False


END_TO_END: Tuple[Metric, ...] = (
    Metric(
        "fwd_pps", "frames/s", "higher",
        "upper quartile over the timed segments of frames offered / segment "
        "time, at nominal machine speed (speed.py); zero loss is required, "
        "see delivered_share",
        bound=0.20,
    ),
    Metric(
        "probe_p50_us", "us", "lower",
        "median time of a single-frame turn, parse to serialize, at nominal "
        "machine speed: lower quartile, over the batches of 25 turns that "
        "follow each segment, of the batch median (Fig. 12's probe latency)",
        bound=0.25,
    ),
    Metric(
        "delivered_share", "ratio", "higher",
        "1 - fail_share: frames whose expected output arrived on the right "
        "port, byte-identical, / frames offered, over all phases",
        bound=0.001,
    ),
    Metric(
        "setup_s", "s", "lower",
        "time from just before launch to the end of the warm-up segment, at "
        "nominal machine speed; median of five fresh interpreters",
        bound=0.25,
    ),
    Metric(
        "peak_rss_mib", "MiB", "lower",
        "peak resident set (VmHWM, what ru_maxrss reports) of the workload's "
        "interpreter plus its workers, read at the fixed-work mark (warm-up + "
        "the first MARK_SEGMENTS segments)",
        bound=0.10,
    ),
)


def _ns(name: str, doc: str) -> Metric:
    return Metric(name, "ns/frame", "lower", doc)


PER_LAYER: Tuple[Metric, ...] = (
    # driver -----------------------------------------------------------------
    _ns("driver.self_ns", "the benchmark loop itself plus unwrapped delegators"),
    Metric("driver.turn_p99_us", "us", "lower",
           "p99 wall time of a burst-of-32 turn, untraced segments"),
    Metric("driver.probe_p99_us", "us", "lower",
           "p99 wall time of a single-frame turn"),
    Metric("driver.segment_iqr", "ratio", "lower",
           "(Q3-Q1)/median of the untraced segment rates behind fwd_pps"),
    Metric("driver.wall_pps", "frames/s", "higher",
           "fwd_pps before calibration: upper quartile of raw wall-clock segment rates"),
    Metric("driver.speed_factor", "ratio", "lower",
           "median reference-kernel reading / nominal: how much slower than "
           "nominal the machine ran during the untraced segments"),
    # packets ----------------------------------------------------------------
    _ns("packets.parse_ns", "Packet.from_bytes self time"),
    Metric("packets.parse_calls", "1/frame", "lower",
           "parent-visible Packet.from_bytes calls per offered frame", exact=True),
    _ns("packets.serialize_ns", "Packet.wire_bytes self time"),
    Metric("packets.serialize_calls", "1/frame", "lower",
           "parent-visible Packet.wire_bytes calls per offered frame"),
    _ns("packets.clone_ns", "Packet.clone self time"),
    # net.nic ----------------------------------------------------------------
    _ns("nic.rx_ns", "Port.deliver + Port.rx_pop self time"),
    _ns("nic.tx_ns", "Port.transmit + Port.drain_tx self time"),
    Metric("nic.rx_dropped", "count", "lower",
           "drop_causes()['rx_ring_full'] over the fixed-work window", exact=True),
    # net.mbuf ---------------------------------------------------------------
    _ns("mbuf.alloc_free_ns", "MbufPool.alloc + MbufPool.free self time"),
    Metric("mbuf.high_water", "count", "lower",
           "drop_causes()['pool_high_water'] at the fixed-work mark", exact=True),
    # net.dpdk ---------------------------------------------------------------
    _ns("dpdk.rx_burst_self_ns", "DpdkRuntime.rx_burst self time"),
    _ns("dpdk.tx_burst_self_ns", "DpdkRuntime.tx_burst + free self time"),
    _ns("dpdk.loop_self_ns", "DpdkRuntime.main_loop_burst/inject/collect self time"),
    # net.rss ----------------------------------------------------------------
    _ns("rss.steer_ns", "RssNic.select + NatSteering.worker_for self time"),
    # nat --------------------------------------------------------------------
    _ns("nat.fastpath_self_ns", "FastPathNat.process_burst self time"),
    _ns("nat.slowpath_self_ns", "inner NF process/process_burst self time"),
    Metric("nat.fastpath_hit_ratio", "ratio", "higher",
           "fastpath hits / (hits + misses) over the fixed-work window", exact=True),
    Metric("nat.compiled_hit_ratio", "ratio", "higher",
           "compiled-closure hits / (hits + misses), same window", exact=True),
    Metric("nat.fastpath_learns", "count", "lower",
           "actions learned over the fixed-work window", exact=True),
    Metric("nat.fastpath_invalidations", "count", "lower",
           "cached actions discarded over the fixed-work window", exact=True),
    Metric("nat.flows_created", "count", "lower",
           "flow-table entries created over the fixed-work window", exact=True),
    Metric("nat.flows_expired", "count", "lower",
           "flow-table entries expired over the fixed-work window", exact=True),
    # libvig -----------------------------------------------------------------
    _ns("libvig.ops_ns", "DoubleMap/DoubleChain/Map public methods, self time"),
    Metric("libvig.ops", "1/frame", "lower", "those calls per offered frame"),
    # chain ------------------------------------------------------------------
    _ns("chain.handoff_self_ns", "ChainRuntime.inject/main_loop_burst/collect self time"),
    Metric("chain.misroutes", "count", "lower",
           "op_counters()['misroutes'] over the fixed-work window", exact=True),
    # net.procrun ------------------------------------------------------------
    _ns("procrun.inject_self_ns", "ProcessShardedRuntime.inject self time"),
    _ns("procrun.turn_wait_ns",
        "ProcessShardedRuntime.main_loop_burst self time: the worker's whole turn"),
    _ns("procrun.collect_self_ns", "ProcessShardedRuntime.collect self time"),
    _ns("procrun.encode_ns", "transport_counters() total encode_ns (parent + worker)"),
    _ns("procrun.copy_ns", "transport_counters() total copy_ns (parent + worker)"),
    _ns("procrun.ring_wait_ns", "transport_counters() total ring_wait_ns"),
    # net.shmring ------------------------------------------------------------
    _ns("shmring.push_ns", "parent-side ShmRing.try_push_burst self time"),
    _ns("shmring.pop_ns", "parent-side ShmRing.pop_burst_bytes/pop_burst/drain self time"),
    Metric("shmring.bytes_per_frame", "bytes/frame", "lower",
           "record bytes the parent pushed + popped per offered frame"),
    # net.app ----------------------------------------------------------------
    Metric("app.launch_s", "s", "lower", "launch / launch_chain wall time"),
    # obs, resil -------------------------------------------------------------
    Metric("obs.snapshot_ms", "ms", "lower", "one snapshot_metrics() on the warm runtime"),
    Metric("resil.checkpoint_ms", "ms", "lower", "one checkpoint() on the warm runtime"),
    Metric("resil.checkpoint_bytes", "bytes", "lower", "its serialized size"),
    # ledger -----------------------------------------------------------------
    Metric("trace.timer_ns", "ns", "lower", "calibrated cost of one span"),
    Metric("trace.overhead_ratio", "ratio", "lower",
           "traced / untraced ns per frame, same interpreter"),
    Metric("ledger.unattributed_share", "ratio", "lower",
           "driver.self_ns / sum of corrected layer self times"),
    Metric("ledger.reconcile_error", "ratio", "lower",
           "|sum of corrected layer self times - 1e9/fwd_pps| / (1e9/fwd_pps)"),
    Metric("py.gc_gen2", "count", "lower", "gen-2 collections in the timed phases"),
)

#: Layer self-time metrics that partition the traced wall time; the ledger
#: reconciles their sum against the untraced ns per frame. The
#: ``procrun.encode/copy/ring_wait`` trio is the program's own finer split
#: of time already inside these spans, so it is not added again.
LEDGER_SELF_TIMES: Tuple[str, ...] = (
    "driver.self_ns",
    "packets.parse_ns",
    "packets.serialize_ns",
    "packets.clone_ns",
    "nic.rx_ns",
    "nic.tx_ns",
    "mbuf.alloc_free_ns",
    "dpdk.rx_burst_self_ns",
    "dpdk.tx_burst_self_ns",
    "dpdk.loop_self_ns",
    "rss.steer_ns",
    "nat.fastpath_self_ns",
    "nat.slowpath_self_ns",
    "libvig.ops_ns",
    "chain.handoff_self_ns",
    "procrun.inject_self_ns",
    "procrun.turn_wait_ns",
    "procrun.collect_self_ns",
    "shmring.push_ns",
    "shmring.pop_ns",
)

#: Ledger gates applied by check_repeat (ISSUE acceptance: both <= 0.10).
LEDGER_LIMITS: Dict[str, float] = {
    "ledger.reconcile_error": 0.10,
    "ledger.unattributed_share": 0.10,
}
