"""Table rendering for the experiment runners — the rows §6 plots.

The paper's figures render from their own result types; the seven
sweeps render from their records (:mod:`repro.eval.sweeps`), so a
committed table is a function of the committed ``BENCH_*.json``.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Dict, List, Sequence

from repro.eval.experiments import CcdfSeries, LatencyPoint, Record
from repro.eval.verification_stats import VerificationStats
from repro.net.testbed import ThroughputResult


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


def _pivot(
    records: Sequence[Record],
    label: Callable[[Record], str],
    axis: str,
    cell: Callable[[Record], str],
) -> List[str]:
    """One line per distinct row label, one cell per value of ``axis``.

    The shape of the burst, shard and procs tables: rows in first-seen
    order, columns in ascending ``axis`` order, a right-aligned dash
    where a row has no record in a column.
    """
    columns = sorted({r[axis] for r in records})
    rows: Dict[str, Dict[Any, str]] = {}
    for record in records:
        rows.setdefault(label(record), {})[record[axis]] = cell(record)
    width = max(len(text) for cells in rows.values() for text in cells.values())
    return [
        f"{name}: " + "  ".join(cells.get(c, "-".rjust(width)) for c in columns)
        for name, cells in rows.items()
    ]


def _per_nf(
    records: Sequence[Record], order: str, row: Callable[[Record], str]
) -> List[str]:
    """An ``nf:`` heading per NF, first seen first, then one row per
    record of that NF in ascending ``order`` order."""
    lines: List[str] = []
    for nf in dict.fromkeys(r["nf"] for r in records):
        lines.append(f"{nf}:")
        group = [r for r in records if r["nf"] == nf]
        lines.extend(row(r) for r in sorted(group, key=itemgetter(order)))
    return lines


#: The row label of a per-NF line: a record formatted by a template.
_NF = "{nf:>20s}".format_map


def _verdict(ok: bool, failed: str) -> str:
    return "yes" if ok else f"NO — {failed}"


def render_burst_sweep(records: Sequence[Record]) -> str:
    """Burst-size sweep: per-packet core occupancy, one row per NF.

    Shows the DPDK amortization lever: per-packet cost falls with burst
    size while the NF ordering is preserved. A second block reports the
    burst-path counters each NF surfaced through ``op_counters()``.
    """
    sizes = sorted({r["burst_size"] for r in records})
    lines = [
        "Burst-size sweep — per-packet core occupancy (ns)",
        "burst size:          " + "  ".join(f"{b:>7d}" for b in sizes),
        *_pivot(records, _NF, "burst_size", "{per_packet_busy_ns:7.0f}".format_map),
        "",
        "implied service-limited throughput (Mpps)",
        *_pivot(records, _NF, "burst_size", "{implied_mpps:7.2f}".format_map),
        "",
    ]
    for r in records:
        if r["burst_size"] == sizes[-1]:
            counters = r["counters"]
            lines.append(
                f"{_NF(r)} @ burst {sizes[-1]}: "
                f"bursts={counters.get('bursts', 0)}, "
                f"avg fill={r['avg_burst_fill']:.1f}, "
                f"expiry scans amortized={counters.get('expiry_scans_amortized', 0)}"
            )
    return "\n".join(lines)


def render_shard_sweep(records: Sequence[Record]) -> str:
    """Shard sweep: aggregate service-limited throughput per worker count.

    One row per NF, one column per worker width; a second block shows
    the per-core cost (which stays near-flat — scaling comes from
    parallelism, not from each core getting faster) and the steering
    spread at the widest configuration.
    """
    widths = sorted({r["workers"] for r in records})
    burst = records[0]["burst_size"] if records else 0
    lines = [
        f"Shard sweep — aggregate throughput (Mpps), burst size {burst}",
        "workers:             " + "  ".join(f"{w:>7d}" for w in widths),
        *_pivot(records, _NF, "workers", "{aggregate_mpps:7.2f}".format_map),
        "",
        "per-core occupancy per packet (ns)",
        *_pivot(records, _NF, "workers", "{per_packet_busy_ns:7.0f}".format_map),
        "",
    ]
    for r in records:
        if r["workers"] == widths[-1]:
            spread = "/".join(str(count) for count in r["steered"])
            lines.append(f"{_NF(r)} @ {widths[-1]} workers: steered {spread}")
    return "\n".join(lines)


def render_fastpath_sweep(records: Sequence[Record]) -> str:
    """Fastpath sweep: per-packet cost with the microflow cache on/off.

    One block per NF across flow-locality regimes, with the measured
    hit rate, the modeled service-cost improvement, the wall-clock
    speedup of the replay, and the byte-identity verdict of the
    differential check; then the same regimes as wire-backed packets,
    fast path off and on. Rates print without thousands separators, so
    every wall-clock cell is a plain number and every modeled cell a
    slash pair (``tests/obs/test_noop_overhead.py`` tells them apart).
    """

    def object_row(r: Record) -> str:
        # No hit rate: an NF the fast path does not wrap (on ≡ off).
        hit_rate = f"{r['hit_rate']:7.1%}" if "hit_rate" in r else f"{'—':>7s}"
        return (
            f"  {r['flow_count']:>6d}   {hit_rate}"
            f"   {r['modeled_busy_ns_off']:7.0f}/{r['modeled_busy_ns_on']:<7.0f}"
            f"   {r['modeled_mpps_off']:5.2f}/{r['modeled_mpps_on']:<5.2f}"
            f"   {r['wall_speedup']:5.2f}"
            f"   {_verdict(r['identical'], 'DIVERGED')}"
        )

    def wire_row(r: Record) -> str:
        return (
            f"  {r['flow_count']:>6d}   {r['wire_pps_off']:13.0f}"
            f"   {r['wire_pps_compiled']:14.0f}"
            f"   {r['compiled_speedup_over_off']:10.2f}"
            f"   {_verdict(r['wire_identical'], 'DIVERGED')}"
        )

    burst = records[0]["burst_size"] if records else 0
    smallest = min((r["flow_count"] for r in records), default=0)
    lines = [
        f"Fastpath sweep — microflow cache on vs off, burst size {burst}",
        "flows    hit-rate   busy off/on (ns)   mpps off/on    wall ×   identical",
        *_per_nf(records, "flow_count", object_row),
        "",
        "Wire-backed replay (from_bytes -> process_burst) — fast path off vs on",
        "flows   wire off (pps)   compiled (pps)   comp/off ×   identical",
        *_per_nf(records, "flow_count", wire_row),
        "",
    ]
    for r in records:
        if r["flow_count"] != smallest or "counters" not in r:
            continue
        counters = r["counters"]
        lines.append(
            f"{_NF(r)} @ {smallest} flows: "
            f"hits={counters.get('fastpath_hits', 0)}, "
            f"misses={counters.get('fastpath_misses', 0)}, "
            f"invalidations={counters.get('fastpath_invalidations', 0)}, "
            f"learns={counters.get('fastpath_learns', 0)}"
        )
        compiled = r["compiled_counters"]
        lines.append(
            f"{'':>20s}   compiled: "
            f"compiles={compiled.get('fastpath_compiles', 0)}, "
            f"rejected={compiled.get('fastpath_compile_rejected', 0)}, "
            f"hits={compiled.get('fastpath_compiled_hits', 0)}"
        )
    for r in records:
        for field, axis in (
            ("divergence", "DIVERGED"),
            ("wire_divergence", "WIRE-BACKED DIVERGED"),
        ):
            if r[field] is not None:
                lines += ["", f"{r['nf']} @ {r['flow_count']} flows {axis}:", r[field]]
    return "\n".join(lines)


def render_failover(records: Sequence[Record]) -> str:
    """Failover sweep: loss vs. replication lag, one block per NF.

    Lag 0 is the zero-loss anchor (synchronous channel: every
    established flow must survive the rebuild); the flows-lost column
    growing with lag is the asynchrony cost the sweep quantifies.
    Recovery is measured wall time. Availability covers the steady
    reply traffic spanning the kill, printed from the two counts rather
    than the record's rounded ratio.
    """

    def row(r: Record) -> str:
        offered, delivered = r["steady_offered"], r["steady_delivered"]
        return (
            f"  {r['lag']:>4d}   {r['flows_at_kill']:>5d}"
            f"/{r['flows_recovered']:<4d}/{r['flows_lost']:<4d}"
            f"   {r['deltas_lost']:>6d}   {r['packets_lost_queue']:>6d}"
            f"   {r['recovery_us']:>6d}us"
            f"   {offered - delivered:>6d}/{offered:<6d}"
            f"   {r['probe_offered'] - r['probe_delivered']:>4d}"
            f"/{r['probe_offered']:<5d}"
            f"   {delivered / offered if offered else 1.0:8.3%}"
        )

    scenario = (
        "workers {workers}, {flow_count} flows, kill worker {kill_worker}".format_map(
            records[0]
        )
        if records
        else ""
    )
    lines = [
        f"Failover sweep — a worker process SIGKILLed and rebuilt from its "
        f"standby at each replication lag ({scenario})",
        "   lag   flows kill/rec/lost   deltas   queued   recovery   steady lost   "
        "probe lost   availability",
        *_per_nf(records, "lag", row),
    ]
    return "\n".join(lines)


def render_cgnat_sweep(records: Sequence[Record]) -> str:
    """CGNAT scaling sweep: state footprint vs. flow count, per NF.

    The column that matters is state/checkpoint: the stateless det-nat
    stays at zero entries and a constant checkpoint while the stateful
    NATs grow linearly — the bijective mapping's whole value. Return-ok
    is the sampled differential (the record's ``identical``): replies to
    translated ports reached the internal endpoints that originated them.
    """

    def row(r: Record) -> str:
        return (
            f"  {r['flow_count']:>6d}   {r['replay_pps_off']:>10.0f}"
            f"   {r['state_entries']:>13d}   {r['checkpoint_bytes']:>12d}"
            f"   {_verdict(r['identical'], 'MISROUTED')}"
        )

    lines = [
        "CGNAT scaling sweep — state footprint vs. flow count",
        "   flows    replay pps   state entries   checkpoint B   return-ok",
        *_per_nf(records, "flow_count", row),
    ]
    det = sorted(
        (r for r in records if r["nf"] == "det-nat"), key=itemgetter("flow_count")
    )
    if len(det) > 1:
        low, high = det[0], det[-1]
        growth = high["flow_count"] / max(low["flow_count"], 1)
        lines.append("")
        lines.append(
            f"det-nat at {growth:.0f}x flows: checkpoint "
            f"{low['checkpoint_bytes']} -> {high['checkpoint_bytes']} bytes, "
            f"state entries {low['state_entries']} -> {high['state_entries']} "
            f"(flat by construction: the mapping is arithmetic)"
        )
    return "\n".join(lines)


def render_procs_sweep(records: Sequence[Record]) -> str:
    """Procs sweep: wall-clock replay rate per worker-process count.

    One row per (NF, transport), one column per width, with the
    speedup over the matching 1-worker point and the oracle
    byte-identity verdict. ``cores`` matters for reading the speedups:
    a 4-worker run on a 1-core box is expected near 1x, not 4x — the
    sweep's scaling claim reads it. The pipe/shm rows share a scenario,
    so the per-transport deltas read straight down a column.
    """
    widths = sorted({r["workers"] for r in records})
    scenario = (
        "{packets} packets, burst {burst_size}, {cores} core(s)".format_map(records[0])
        if records
        else ""
    )
    label = "{nf:>20s}/{transport:<5s}".format_map

    def scaling(r: Record) -> str:
        return f"{r['speedup_vs_1']:5.2f}x " + ("ok " if r["identical"] else "DIV")

    lines = [
        f"Process-runtime sweep — warmed replay rate (pps) ({scenario})",
        "workers:                   " + "  ".join(f"{w:>9d}" for w in widths),
        *_pivot(records, label, "workers", "{replay_pps:9,.0f}".format_map),
        "",
        "speedup vs 1 worker / oracle byte-identity",
        *_pivot(records, label, "workers", scaling),
    ]
    return "\n".join(lines)


def render_chain_scenarios(records: Sequence[Record]) -> str:
    """Chain scenario suite: measured loss/disruption vs. declared SLAs.

    One row per scenario. Every number is measured from traffic that
    actually exited the chain — the disruption column is the span of
    lossy rounds in traffic time, not a model — and the verdict column
    is the record's ``sla_ok``, the SLA judgement the CLI and CI gate
    on. Availability is printed from the two counts it is the ratio of.
    """
    lines = [
        "Chain scenario suite — measured disruption vs. declared SLAs",
        "        scenario   offered/delivered      avail (floor)"
        "   disruption (budget)   flows lost   probe lost   verdict",
    ]
    for r in records:
        sla = r["sla"]
        lines.append(
            f"  {r['scenario']:>14s}   {r['offered']:>7d}/{r['delivered']:<9d}"
            f"   {r['delivered'] / r['offered']:7.3%} ({sla['min_availability']:.0%})"
            f"   {r['disruption_us']:>7d}us ({sla['max_disruption_us']}us)"
            f"   {r['flows_lost']:>4d}/{r['flows_total']:<5d}"
            f"   {r['probe_lost']:>4d}/{r['probe_offered']:<5d}"
            f"   {'ok' if r['sla_ok'] else 'SLA BREACH'}"
        )
    actions = [r for r in records if r["action_wall_us"]]
    if actions:
        lines.append("")
        for r in actions:
            lines.append(
                f"  {r['scenario']}: control-plane action took "
                f"{r['action_wall_us']}us wall clock (reported, not gated)"
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
    """The §5 verification statistics table.

    Only counts and the verdict, so the committed table is what any run
    writes; the wall times are the caller's to print.
    """
    lines = [
        "Verification statistics (paper: 108 paths, 431 traces, <1 min ESE)",
        f"  execution paths:     {stats.paths}",
        f"  traces (w/ prefixes): {stats.traces}",
        f"  proof obligations:   {stats.obligations}",
        f"  solver queries:      {stats.solver_queries}",
        f"  verdict:             {'VERIFIED' if stats.verified else 'NOT VERIFIED'}",
    ]
    return "\n".join(lines)
