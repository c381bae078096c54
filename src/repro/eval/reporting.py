"""Table rendering for the experiment runners — the rows §6 plots."""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from repro.eval.experiments import (
    BurstPoint,
    CcdfSeries,
    CgnatPoint,
    FailoverPoint,
    FastpathPoint,
    LatencyPoint,
    ProcsPoint,
    ShardPoint,
)
from repro.eval.verification_stats import VerificationStats
from repro.net.testbed import ThroughputResult

if TYPE_CHECKING:
    from repro.chain.scenarios import ScenarioReport


def render_fig12(points: Sequence[LatencyPoint]) -> str:
    """Fig. 12: probe-flow latency vs. background flows, one row per NF."""
    by_nf: Dict[str, List[LatencyPoint]] = {}
    for point in points:
        by_nf.setdefault(point.nf, []).append(point)
    occupancies = sorted({p.background_flows for p in points})
    header = "background flows (k): " + "  ".join(
        f"{occ // 1000:>6d}" for occ in occupancies
    )
    lines = ["Fig. 12 — average probe-flow latency (us)", header]
    for nf, nf_points in by_nf.items():
        cells = {p.background_flows: p for p in nf_points}
        row = "  ".join(
            f"{cells[occ].avg_us:6.2f}" if occ in cells else "     -"
            for occ in occupancies
        )
        lines.append(f"{nf:>20s}: {row}")
    return "\n".join(lines)


def render_fig13(
    series: Sequence[CcdfSeries],
    thresholds=(5.0, 5.5, 6.0, 6.5, 10.0, 100.0),
    background_flows: int | None = None,
) -> str:
    """Fig. 13: latency CCDF — P[latency > x] at selected thresholds."""
    occupancy = (
        f"{background_flows // 1000}k" if background_flows else "high"
    )
    lines = [
        f"Fig. 13 — latency CCDF at {occupancy} background flows",
        "threshold (us):      " + "  ".join(f"{t:>8.1f}" for t in thresholds),
    ]
    for s in series:
        row = "  ".join(f"{s.probability_above(t):8.2e}" for t in thresholds)
        lines.append(f"{s.nf:>20s}: {row}  ({s.samples} samples)")
    return "\n".join(lines)


def render_fig14(results: Dict[str, List[ThroughputResult]]) -> str:
    """Fig. 14: max throughput with <0.1% loss vs. flow count."""
    flow_counts = sorted(
        {r.flow_count for rs in results.values() for r in rs}
    )
    header = "flows (k):           " + "  ".join(
        f"{fc // 1000:>6d}" for fc in flow_counts
    )
    lines = ["Fig. 14 — maximum throughput, <0.1% loss (Mpps)", header]
    for nf, rs in results.items():
        cells = {r.flow_count: r for r in rs}
        row = "  ".join(
            f"{cells[fc].max_mpps:6.2f}" if fc in cells else "     -"
            for fc in flow_counts
        )
        lines.append(f"{nf:>20s}: {row}")
    return "\n".join(lines)


def render_burst_sweep(points: Sequence[BurstPoint]) -> str:
    """Burst-size sweep: per-packet core occupancy, one row per NF.

    Shows the DPDK amortization lever: per-packet cost falls with burst
    size while the NF ordering is preserved. A second block reports the
    burst-path counters each NF surfaced through ``op_counters()``.
    """
    by_nf: Dict[str, List[BurstPoint]] = {}
    for point in points:
        by_nf.setdefault(point.nf, []).append(point)
    sizes = sorted({p.burst_size for p in points})
    header = "burst size:          " + "  ".join(f"{b:>7d}" for b in sizes)
    lines = ["Burst-size sweep — per-packet core occupancy (ns)", header]
    for nf, nf_points in by_nf.items():
        cells = {p.burst_size: p for p in nf_points}
        row = "  ".join(
            f"{cells[b].per_packet_busy_ns:7.0f}" if b in cells else "      -"
            for b in sizes
        )
        lines.append(f"{nf:>20s}: {row}")
    lines.append("")
    lines.append("implied service-limited throughput (Mpps)")
    for nf, nf_points in by_nf.items():
        cells = {p.burst_size: p for p in nf_points}
        row = "  ".join(
            f"{cells[b].implied_mpps:7.2f}" if b in cells else "      -"
            for b in sizes
        )
        lines.append(f"{nf:>20s}: {row}")
    lines.append("")
    largest = sizes[-1]
    for nf, nf_points in by_nf.items():
        point = next((p for p in nf_points if p.burst_size == largest), None)
        if point is None:
            continue
        counters = point.counters
        lines.append(
            f"{nf:>20s} @ burst {largest}: "
            f"bursts={counters.get('bursts', 0)}, "
            f"avg fill={point.avg_burst_fill:.1f}, "
            f"expiry scans amortized={counters.get('expiry_scans_amortized', 0)}"
        )
    return "\n".join(lines)


def render_shard_sweep(points: Sequence[ShardPoint]) -> str:
    """Shard sweep: aggregate service-limited throughput per worker count.

    One row per NF, one column per worker width; a second block shows
    the per-core cost (which stays near-flat — scaling comes from
    parallelism, not from each core getting faster) and the steering
    spread at the widest configuration.
    """
    by_nf: Dict[str, List[ShardPoint]] = {}
    for point in points:
        by_nf.setdefault(point.nf, []).append(point)
    widths = sorted({p.workers for p in points})
    burst = points[0].burst_size if points else 0
    header = "workers:             " + "  ".join(f"{w:>7d}" for w in widths)
    lines = [
        f"Shard sweep — aggregate throughput (Mpps), burst size {burst}",
        header,
    ]
    for nf, nf_points in by_nf.items():
        cells = {p.workers: p for p in nf_points}
        row = "  ".join(
            f"{cells[w].aggregate_mpps:7.2f}" if w in cells else "      -"
            for w in widths
        )
        lines.append(f"{nf:>20s}: {row}")
    lines.append("")
    lines.append("per-core occupancy per packet (ns)")
    for nf, nf_points in by_nf.items():
        cells = {p.workers: p for p in nf_points}
        row = "  ".join(
            f"{cells[w].per_packet_busy_ns:7.0f}" if w in cells else "      -"
            for w in widths
        )
        lines.append(f"{nf:>20s}: {row}")
    lines.append("")
    widest = widths[-1] if widths else 0
    for nf, nf_points in by_nf.items():
        point = next((p for p in nf_points if p.workers == widest), None)
        if point is None:
            continue
        spread = "/".join(str(count) for count in point.steered)
        lines.append(f"{nf:>20s} @ {widest} workers: steered {spread}")
    return "\n".join(lines)


def render_fastpath_sweep(points: Sequence[FastpathPoint]) -> str:
    """Fastpath sweep: per-packet cost with the microflow cache on/off.

    One block per NF across flow-locality regimes, with the measured
    hit rate, the modeled service-cost improvement, the wall-clock
    speedup of the replay, and the byte-identity verdict of the
    differential check.
    """
    by_nf: Dict[str, List[FastpathPoint]] = {}
    for point in points:
        by_nf.setdefault(point.nf, []).append(point)
    burst = points[0].burst_size if points else 0
    lines = [
        f"Fastpath sweep — microflow cache on vs off, burst size {burst}",
        "flows    hit-rate   busy off/on (ns)   mpps off/on    wall ×   identical",
    ]
    for nf, nf_points in by_nf.items():
        lines.append(f"{nf}:")
        for p in sorted(nf_points, key=lambda p: p.flow_count):
            lines.append(
                f"  {p.flow_count:>6d}   {p.hit_rate:7.1%}"
                f"   {p.per_packet_busy_ns_off:7.0f}/{p.per_packet_busy_ns_on:<7.0f}"
                f"   {p.implied_mpps_off:5.2f}/{p.implied_mpps_on:<5.2f}"
                f"   {p.wall_speedup:5.2f}"
                f"   {'yes' if p.identical else 'NO — DIVERGED'}"
            )
    lines.append("")
    lines.append(
        "Wire-backed replay (from_bytes -> process_burst) — fast path off vs on"
    )
    lines.append(
        "flows   wire wall off (s)   compiled (s)   comp/off ×   identical"
    )
    for nf, nf_points in by_nf.items():
        lines.append(f"{nf}:")
        for p in sorted(nf_points, key=lambda p: p.flow_count):
            lines.append(
                f"  {p.flow_count:>6d}"
                f"   {p.wire_wall_seconds_off:16.3f}"
                f"   {p.wire_wall_seconds_compiled:12.3f}"
                f"   {p.compiled_speedup_over_off:10.2f}"
                f"   {'yes' if p.wire_identical else 'NO — DIVERGED'}"
            )
    lines.append("")
    smallest = min((p.flow_count for p in points), default=0)
    for nf, nf_points in by_nf.items():
        hot = next((p for p in nf_points if p.flow_count == smallest), None)
        if hot is None:
            continue
        counters = hot.counters
        lines.append(
            f"{nf:>20s} @ {smallest} flows: "
            f"hits={counters.get('fastpath_hits', 0)}, "
            f"misses={counters.get('fastpath_misses', 0)}, "
            f"invalidations={counters.get('fastpath_invalidations', 0)}, "
            f"learns={counters.get('fastpath_learns', 0)}"
        )
        compiled = hot.compiled_counters
        if hot.supports_raw:
            lines.append(
                f"{'':>20s}   compiled: "
                f"compiles={compiled.get('fastpath_compiles', 0)}, "
                f"rejected={compiled.get('fastpath_compile_rejected', 0)}, "
                f"hits={compiled.get('fastpath_compiled_hits', 0)}"
            )
    for point in points:
        if point.divergence is not None:
            lines.append("")
            lines.append(f"{point.nf} @ {point.flow_count} flows DIVERGED:")
            lines.append(point.divergence.render())
        if point.wire_divergence is not None:
            lines.append("")
            lines.append(
                f"{point.nf} @ {point.flow_count} flows WIRE-BACKED DIVERGED:"
            )
            lines.append(point.wire_divergence.render())
    return "\n".join(lines)


def render_failover(points: Sequence[FailoverPoint]) -> str:
    """Failover sweep: loss vs. replication lag, one block per NF.

    Lag 0 is the zero-loss anchor (synchronous channel: every
    established flow must survive promotion); the flows-lost column
    growing with lag is the asynchrony cost the sweep quantifies.
    Availability covers the steady reply traffic spanning the kill.
    """
    by_nf: Dict[str, List[FailoverPoint]] = {}
    for point in points:
        by_nf.setdefault(point.nf, []).append(point)
    first = points[0] if points else None
    scenario = (
        f"workers {first.workers}, {first.flow_count} flows, "
        f"kill worker {first.kill_worker}"
        if first
        else ""
    )
    lines = [
        f"Failover sweep — kill-and-promote at each replication lag ({scenario})",
        "   lag   flows kill/rec/lost   deltas   recovery   steady lost   "
        "probe lost   availability",
    ]
    for nf, nf_points in by_nf.items():
        lines.append(f"{nf}:")
        for p in sorted(nf_points, key=lambda p: p.lag):
            lines.append(
                f"  {p.lag:>4d}   "
                f"{p.flows_at_kill:>5d}/{p.flows_recovered:<4d}/{p.flows_lost:<4d}"
                f"   {p.deltas_lost:>6d}   {p.recovery_us:>6d}us"
                f"   {p.steady_lost:>6d}/{p.steady_offered:<6d}"
                f"   {p.probe_lost:>4d}/{p.probe_offered:<5d}"
                f"   {p.availability:8.3%}"
            )
    warmed = [p for p in points if p.fastpath_warmed]
    if warmed:
        lines.append("")
        for p in sorted(warmed, key=lambda p: (p.nf, p.lag)):
            lines.append(
                f"  {p.nf} @ lag {p.lag}: {p.fastpath_warmed} microflow "
                f"actions rebuilt from restored flows at promotion"
            )
    return "\n".join(lines)


def render_cgnat_sweep(points: Sequence[CgnatPoint]) -> str:
    """CGNAT scaling sweep: state footprint vs. flow count, per NF.

    The column that matters is state/checkpoint: the stateless det-nat
    stays at zero entries and a constant checkpoint while the stateful
    NATs grow linearly — the bijective mapping's whole value. Return-ok
    is the sampled differential: replies to translated ports reached
    the internal endpoints that originated them.
    """
    by_nf: Dict[str, List[CgnatPoint]] = {}
    for point in points:
        by_nf.setdefault(point.nf, []).append(point)
    lines = [
        "CGNAT scaling sweep — state footprint vs. flow count",
        "   flows    replay pps   state entries   checkpoint B   return-ok",
    ]
    for nf, nf_points in by_nf.items():
        lines.append(f"{nf}:")
        for p in sorted(nf_points, key=lambda p: p.flow_count):
            lines.append(
                f"  {p.flow_count:>6d}   {p.replay_pps:>10.0f}"
                f"   {p.state_entries:>13d}   {p.checkpoint_bytes:>12d}"
                f"   {'yes' if p.return_path_ok else 'NO — MISROUTED'}"
            )
    det = sorted(by_nf.get("det-nat", []), key=lambda p: p.flow_count)
    if len(det) > 1:
        lines.append("")
        low, high = det[0], det[-1]
        growth = high.flow_count / max(low.flow_count, 1)
        lines.append(
            f"det-nat at {growth:.0f}x flows: checkpoint "
            f"{low.checkpoint_bytes} -> {high.checkpoint_bytes} bytes, "
            f"state entries {low.state_entries} -> {high.state_entries} "
            f"(flat by construction: the mapping is arithmetic)"
        )
    return "\n".join(lines)


def render_procs_sweep(points: Sequence[ProcsPoint]) -> str:
    """Procs sweep: wall-clock replay rate per worker-process count.

    One row per (NF, transport), one column per width, with the
    speedup over the matching 1-worker point and the oracle
    byte-identity verdict. ``cores`` matters for reading the speedups:
    a 4-worker run on a 1-core box is expected near 1x, not 4x — the
    sweep's scaling claim reads it. The pipe/shm rows share a scenario,
    so the per-transport deltas read straight down a column.
    """
    by_row: Dict[Tuple[str, str], List[ProcsPoint]] = {}
    for point in points:
        by_row.setdefault((point.nf, point.transport), []).append(point)
    widths = sorted({p.workers for p in points})
    first = points[0] if points else None
    scenario = (
        f"{first.packets} packets, burst {first.burst_size}, "
        f"{first.cores} core(s)"
        if first
        else ""
    )
    header = "workers:                   " + "  ".join(
        f"{w:>9d}" for w in widths
    )
    lines = [
        f"Process-runtime sweep — warmed replay rate (pps) ({scenario})",
        header,
    ]
    for (nf, transport), row_points in by_row.items():
        cells = {p.workers: p for p in row_points}
        row = "  ".join(
            f"{cells[w].replay_pps:9,.0f}" if w in cells else "        -"
            for w in widths
        )
        lines.append(f"{nf:>20s}/{transport:<5s}: {row}")
    lines.append("")
    lines.append("speedup vs 1 worker / oracle byte-identity")
    for (nf, transport), row_points in by_row.items():
        cells = {p.workers: p for p in row_points}
        row = "  ".join(
            (
                f"{cells[w].speedup_vs_1:5.2f}x "
                + ("ok " if cells[w].identical else "DIV")
                if w in cells
                else "         -"
            )
            for w in widths
        )
        lines.append(f"{nf:>20s}/{transport:<5s}: {row}")
    return "\n".join(lines)


def render_chain_scenarios(reports: Sequence["ScenarioReport"]) -> str:
    """Chain scenario suite: measured loss/disruption vs. declared SLAs.

    One row per scenario. Every number is measured from traffic that
    actually exited the chain — the disruption column is the span of
    lossy rounds in traffic time, not a model — and the verdict column
    is the SLA judgement the CLI and CI gate on.
    """
    from repro.chain.scenarios import scenario_breaches

    lines = [
        "Chain scenario suite — measured disruption vs. declared SLAs",
        "        scenario   offered/delivered      avail (floor)"
        "   disruption (budget)   flows lost   probe lost   verdict",
    ]
    for r in reports:
        lines.append(
            f"  {r.scenario:>14s}   {r.offered:>7d}/{r.delivered:<9d}"
            f"   {r.availability:7.3%} ({r.sla.min_availability:.0%})"
            f"   {r.disruption_us:>7d}us ({r.sla.max_disruption_us}us)"
            f"   {r.flows_lost:>4d}/{r.flows_total:<5d}"
            f"   {r.probe_lost:>4d}/{r.probe_offered:<5d}"
            f"   {'ok' if not scenario_breaches(r) else 'SLA BREACH'}"
        )
    actions = [r for r in reports if r.action_wall_us]
    if actions:
        lines.append("")
        for r in actions:
            lines.append(
                f"  {r.scenario}: control-plane action took "
                f"{r.action_wall_us}us wall clock (reported, not gated)"
            )
    return "\n".join(lines)


def render_metrics(snapshot: Dict) -> str:
    """A merged metrics snapshot as a readable table.

    Counters and sum-gauges show their total across samples, max-gauges
    (watermarks) the worst sample; histograms show count and exact
    merged percentiles. The per-label breakdown stays available in the
    JSON/Prometheus renderings (:mod:`repro.obs.expo`).
    """
    from repro.obs.histogram import LatencyHistogram

    lines = [
        "Metrics snapshot (merged across samples)",
        f"{'metric':<34s} {'kind':<10s} {'samples':>7s}  value",
    ]
    for metric in snapshot.get("metrics", []):
        samples = metric.get("samples", [])
        if metric["kind"] == "histogram":
            merged = LatencyHistogram.merge_all(
                LatencyHistogram.from_dict(s["histogram"]) for s in samples
            )
            value = (
                f"count={merged.count} p50={merged.p50()} "
                f"p99={merged.p99()} p99.9={merged.p999()}"
            )
        else:
            values = [s["value"] for s in samples]
            if metric["kind"] == "gauge" and metric.get("merge") == "max":
                total = max(values, default=0)
            else:
                total = sum(values)
            value = f"{total:g}"
        lines.append(
            f"{metric['name']:<34s} {metric['kind']:<10s} {len(samples):>7d}  {value}"
        )
    return "\n".join(lines)


def render_verification(stats: VerificationStats) -> str:
    """The §5 verification statistics table."""
    lines = [
        "Verification statistics (paper: 108 paths, 431 traces, <1 min ESE)",
        f"  execution paths:     {stats.paths}",
        f"  traces (w/ prefixes): {stats.traces}",
        f"  proof obligations:   {stats.obligations}",
        f"  solver queries:      {stats.solver_queries}",
        f"  exploration time:    {stats.explore_seconds:.2f}s",
        f"  validation time:     {stats.validate_seconds:.2f}s",
        f"  verdict:             {'VERIFIED' if stats.verified else 'NOT VERIFIED'}",
    ]
    return "\n".join(lines)
