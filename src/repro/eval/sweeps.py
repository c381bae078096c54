"""The seven sweeps, each described once.

A :class:`Sweep` is everything the repository knows about one
experiment: the grid it runs at each ``REPRO_EVAL_SCALE`` value, how to
run and render it, the metrics snapshot of one point, the record fields
that key a row, and **one** ``claims(records)`` — every property the
sweep exists to show, returned as violations. ``run`` returns the
records — one dict per point, the row ``BENCH_*.json`` commits — and
that is the only form a result has: ``render``, ``snapshot``, ``claims``
and ``json.dumps`` all take what ``run`` returned, so the same functions
serve a fresh in-memory run (``repro experiments X``,
``benchmarks/test_sweeps.py``) and a file on disk
(``benchmarks/compare_bench.py``, and ``tests/eval/test_sweeps.py``,
which holds every committed ``*_sweep.txt`` to be the rendering of its
``BENCH_*.json``). Each threshold is defined beside the claim that reads
it and nowhere else. Adding a sweep is one runner that returns records
and one description here.

A claim reads only fields the record carries: a check whose fields are
absent is skipped, so a file written before a field existed is judged
on what it has. ``tests/eval/test_sweeps.py`` holds every committed
``BENCH_*.json`` to its sweep's full claims, so that leniency cannot
hide a claim the committed baselines do not meet.

None of the seven is a figure of the paper (its NAT is one stateful
core, one packet at a time); each guards a contract the reproduction
added on top, stated in the comment above its claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.chain.scenarios import chain_scenarios, default_chain_spec
from repro.eval import reporting
from repro.eval.experiments import (
    Record,
    burst_size_sweep,
    cgnat_sweep,
    failover_sweep,
    fastpath_sweep,
    procs_sweep,
    shard_sweep,
)
from repro.obs import snapshot_of_counters


@dataclass(frozen=True)
class Sweep:
    """One experiment: grid, runner, renderer, snapshot, key and claims."""

    name: str
    #: ``REPRO_EVAL_SCALE`` value -> keyword arguments for ``run``.
    grids: Dict[str, Dict[str, Any]]
    #: One record per point: what ``BENCH_*.json`` commits, ``render``
    #: tabulates and ``claims`` judges.
    run: Callable[..., List[Record]]
    render: Callable[[List[Record]], str]
    #: One record's ``repro-obs/v1`` metrics snapshot.
    snapshot: Callable[[Record], Dict]
    #: The record fields that identify a point within the sweep.
    key: Tuple[str, ...]
    #: Every property the sweep claims, as violations (empty = all hold).
    claims: Callable[[List[Record]], List[str]]
    #: The file under ``benchmarks/results/`` the rows are committed to.
    bench_file: Optional[str] = None
    #: The sweep bounds a number rather than tracking a trend, so a
    #: baseline point (or the baseline file) going missing is an error.
    strict: bool = False

    def key_of(self, record: Record) -> Tuple:
        return tuple(record.get(field) for field in self.key)


def _scales(smoke: Dict, quick: Dict, paper: Dict) -> Dict[str, Dict]:
    return {"smoke": smoke, "quick": quick, "paper": paper}


def _has(record: Record, *fields: str) -> bool:
    return all(field in record for field in fields)


def _having(records: Sequence[Record], *fields: str) -> List[Record]:
    """The records that carry every named field."""
    return [r for r in records if _has(r, *fields)]


def _by(records: Sequence[Record], field: str) -> Dict[Any, List[Record]]:
    groups: Dict[Any, List[Record]] = {}
    for record in records:
        groups.setdefault(record.get(field), []).append(record)
    return groups


def _counter_snapshot(
    key: Tuple[str, ...], help_text: str, prefix: str = ""
) -> Callable[[Record], Dict]:
    """A record's NF counters as a snapshot labeled by its key fields."""

    def snapshot(record: Record) -> Dict:
        return snapshot_of_counters(
            {k: v for k, v in record["counters"].items() if isinstance(v, int)},
            labels={field: str(record[field]) for field in key},
            prefix=prefix,
            help_text=help_text,
        )

    return snapshot


#: The snapshot of a sweep whose records embed it (``"metrics"``).
_embedded_snapshot = itemgetter("metrics")

#: The paper's §6 cost structure, cheapest first.
PAPER_ORDER = ("noop", "unverified-nat", "verified-nat")
#: "≪": NetFilter costs at least this multiple of the verified NAT.
LINUX_COST_FACTOR = 2.5


def _misordered(value_by_nf: Dict[str, float], rising: bool = True) -> str:
    """Non-empty when the NFs present break the paper's ordering."""
    present = [nf for nf in PAPER_ORDER if nf in value_by_nf]
    values = [value_by_nf[nf] for nf in present]
    if not rising:
        values = [-v for v in values]
    if all(a < b for a, b in zip(values, values[1:])):
        return ""
    return ", ".join(f"{nf}={value_by_nf[nf]:.3g}" for nf in present)


# -- burst: DPDK's batching lever ----------------------------------------------
# The burst-mode data path must (a) cut per-packet cost as the burst
# grows, since the per-burst fixed work (expiry scan, env setup)
# amortizes, and (b) keep no-op < unverified < verified ≪ NetFilter at
# every burst size, so the §6 comparisons stay valid with batching on.


#: Fig. 14's single-packet headline rates (Mpps) and their tolerance.
PAPER_MPPS_AT_BURST_1 = {
    "unverified-nat": (2.0, 0.3),
    "verified-nat": (1.8, 0.3),
    "linux-nat": (0.6, 0.2),
}


def _burst_claims(records: List[Record]) -> List[str]:
    breaches: List[str] = []
    sizes = sorted({r["burst_size"] for r in records})
    cell = {(r["nf"], r["burst_size"]): r for r in records}
    nfs = sorted({r["nf"] for r in records})

    def cost(nf: str, burst: int) -> float:
        return cell[(nf, burst)]["per_packet_busy_ns"]

    largest = sizes[-1]
    for nf in nfs:
        fill = cell[(nf, largest)]["avg_burst_fill"]
        if fill <= largest * 0.9:
            breaches.append(
                f"{nf} @ burst {largest}: average fill {fill:.1f}; the load "
                f"does not saturate, so the sweep measures nothing"
            )
    # (a) the verified NAT's expiry scan is its amortizable share.
    verified = [cost("verified-nat", b) for b in sizes]
    if verified != sorted(verified, reverse=True) or not (
        verified[-1] < verified[0] * 0.80
    ):
        breaches.append(
            f"verified-nat per-packet cost {verified} ns over burst sizes "
            f"{sizes} does not fall monotonically and by >20% overall"
        )
    # (b) the relative cost structure holds at every burst size.
    for b in sizes:
        wrong = _misordered({nf: cost(nf, b) for nf in nfs})
        if wrong:
            breaches.append(f"NF cost ordering lost at burst {b}: {wrong}")
        if cost("linux-nat", b) <= LINUX_COST_FACTOR * cost("verified-nat", b):
            breaches.append(
                f"linux-nat at burst {b} costs under {LINUX_COST_FACTOR}x "
                f"the verified NAT"
            )
    # Burst size 1 reproduces the paper's single-packet service costs.
    for nf, (mpps, slack) in PAPER_MPPS_AT_BURST_1.items():
        got = cell[(nf, 1)]["implied_mpps"]
        if abs(got - mpps) >= slack:
            breaches.append(
                f"{nf} at burst 1 implies {got:.2f} Mpps; Fig. 14 has "
                f"~{mpps} (+/-{slack})"
            )
    return breaches


# -- shard: RSS-sharded scaling ------------------------------------------------
# The sharded data path must (a) scale aggregate throughput with the
# worker count (disjoint port-range shards share no state; steering is
# the only added per-packet cost), (b) keep the paper's ordering at
# every width, and (c) reproduce the burst sweep byte-identically at
# workers=1 — checked in benchmarks/test_sweeps.py, which needs a second
# sweep run to compare against.


def _shard_claims(records: List[Record]) -> List[str]:
    breaches: List[str] = []
    widths = sorted({r["workers"] for r in records})
    cell = {(r["nf"], r["workers"]): r for r in records}
    nfs = sorted({r["nf"] for r in records})

    def mpps(nf: str, workers: int) -> float:
        return cell[(nf, workers)]["aggregate_mpps"]

    # (a) monotone through 4 workers and near-linear: 4 workers deliver
    # at least 3x one (steering and hash imbalance eat the rest).
    scaling = [mpps("verified-nat", w) for w in widths if w <= 4]
    if scaling != sorted(set(scaling)):
        breaches.append(
            f"verified-nat aggregate throughput {scaling} Mpps does not "
            f"grow with worker count"
        )
    if {1, 4} <= set(widths) and not (
        mpps("verified-nat", 4) > 3.0 * mpps("verified-nat", 1)
    ):
        breaches.append(
            f"verified-nat at 4 workers delivers under 3x one worker: {scaling}"
        )
    # (b) the paper's ordering holds at every worker count.
    for w in widths:
        wrong = _misordered({nf: mpps(nf, w) for nf in nfs}, rising=False)
        if wrong:
            breaches.append(f"NF throughput ordering lost at {w} workers: {wrong}")
        if mpps("linux-nat", w) >= mpps("verified-nat", w) / LINUX_COST_FACTOR:
            breaches.append(
                f"linux-nat at {w} workers is within {LINUX_COST_FACTOR}x "
                f"of the verified NAT"
            )
    # Steering spreads load: no dead queue, no hot queue absorbing
    # everything (the hash-aliasing failure mode).
    widest = widths[-1]
    steered = cell[("verified-nat", widest)]["steered"]
    if len(steered) != widest or min(steered) <= sum(steered) / (widest * 4):
        breaches.append(
            f"verified-nat at {widest} workers steered {steered}; every "
            f"worker must serve a non-trivial share"
        )
    return breaches


# -- fastpath: the microflow cache across hit-rate regimes ---------------------
# The fast path must be (a) invisible: every emitted frame byte-identical
# to the cache-off run at every locality regime, object and wire-backed
# path alike; (b) order-preserving: it accelerates every NF, never
# reorders them; (c) worth it: at a 90%+ hit rate the verified NAT's
# replay of materialised packets (each hit serialized, then the
# closure) speeds up; (d) worth it compiled: every wrapped NF compiles
# and runs its closures cleanly, and on wire-backed packets through
# ``process_burst`` — the path ``launch()`` runs — the verified NAT
# beats the no-fast-path replay.
# The no-op forwarder has nothing to skip and is never wrapped
# (``build_nf``): its rows are the ordering's baseline, on ≡ off, and
# carry no ``hit_rate``/``counters`` for the cache's claims to read.

#: A point is "hot" at this hit rate or above.
HOT_HIT_RATE = 0.9
#: (c) wall-clock replay speedup the cache must reach on a hot
#: verified-nat point.
CACHE_MIN_SPEEDUP = 1.5
#: (d) compiled closures over the no-fast-path wire-backed replay, same
#: regime. A wall-clock ratio on one machine, so it holds on any runner
#: shape.
COMPILED_MIN_SPEEDUP = 1.3
#: In churning regimes every miss pays one extra flow-table consult on
#: the learn path; the modeled cost may rise by at most this factor.
CHURN_COST_SLACK = 1.03


def _fastpath_claims(records: List[Record]) -> List[str]:
    breaches: List[str] = []

    def where(r: Record) -> str:
        return f"{r['nf']} @ {r['flow_count']} flows"

    def listing(points: List[Record], field: str) -> str:
        return ", ".join(
            f"{r['flow_count']} flows -> {r.get(field, 0.0):.2f}x"
            for r in sorted(points, key=lambda r: r["flow_count"])
        )

    # (a) on the object path ...
    for r in records:
        if not r.get("identical", True):
            breaches.append(
                f"{where(r)}: cache-on replay lost byte-identity with the "
                f"cache-off replay"
            )
    # (b) with the cache off and on, at every locality regime.
    for field, cache in (
        ("modeled_busy_ns_off", "off"),
        ("modeled_busy_ns_on", "on"),
    ):
        by_flows = _by(_having(records, field), "flow_count")
        for flows, group in sorted(by_flows.items()):
            wrong = _misordered({r["nf"]: r[field] for r in group})
            if wrong:
                breaches.append(
                    f"NF cost ordering lost at {flows} flows (cache {cache}): "
                    f"{wrong} ns"
                )
    # The cache lowers every NF's modeled cost wherever it converges.
    for r in _having(records, "hit_rate", "modeled_busy_ns_off", "modeled_busy_ns_on"):
        off, on = r["modeled_busy_ns_off"], r["modeled_busy_ns_on"]
        if r["hit_rate"] >= HOT_HIT_RATE:
            costlier = on >= off
        else:
            costlier = on > off * CHURN_COST_SLACK
        if costlier:
            breaches.append(
                f"{where(r)}: modeled cost {off} -> {on} ns with the cache on "
                f"at a {r['hit_rate']:.1%} hit rate"
            )
    rated = _having(records, "hit_rate")
    hot = [
        r
        for r in rated
        if r["nf"] == "verified-nat" and r["hit_rate"] >= HOT_HIT_RATE
    ]
    if rated:
        # (c) the payoff at the high-locality end.
        if not hot:
            breaches.append(
                "no verified-nat point reached a 90% hit rate; the cache "
                "payoff claim has nowhere to gate"
            )
        elif max(r.get("wall_speedup", 0.0) for r in hot) < CACHE_MIN_SPEEDUP:
            breaches.append(
                f"verified-nat cached replay below {CACHE_MIN_SPEEDUP}x the "
                f"cache-off replay at every hot point: "
                + listing(hot, "wall_speedup")
            )
        hottest = min(r["flow_count"] for r in rated)
        for r in rated:
            if (
                r["flow_count"] == hottest
                and r["nf"] in PAPER_ORDER
                and r["hit_rate"] < HOT_HIT_RATE
            ):
                breaches.append(
                    f"{where(r)}: hit rate {r['hit_rate']:.1%} in the "
                    f"hottest regime; the cache is not converging"
                )
    for r in _having(records, "counters"):
        counters = r["counters"]
        consulted = counters.get("fastpath_hits", 0) + counters.get(
            "fastpath_misses", 0
        )
        if consulted <= 0 or counters.get("fastpath_learns", 0) < 1:
            breaches.append(f"{where(r)}: the cache saw no traffic: {counters}")

    # (a) ... and (d), on wire-backed packets. Records from before the
    # compiled axis (no ``wire_identical``) are exempt: a claim cannot
    # invent measurements a sweep never took.
    if not any("wire_identical" in r for r in records):
        return breaches
    for r in records:
        if not r.get("wire_identical", True):
            breaches.append(f"{where(r)} lost wire-backed byte-identity")
    # Every wrapped NF serves its hits through closures only.
    closures = _having(records, "compiled_counters")
    if not closures:
        breaches.append(
            "no record's NF compiles closures; the compiled-closure axis is "
            "not being measured"
        )
    for r in closures:
        compiled = r["compiled_counters"]
        # A rejection means the compiler and the slow path disagreed.
        if not (
            compiled.get("fastpath_compiles", 0) >= 1
            and compiled.get("fastpath_compiled_hits", 0) > 0
            and compiled.get("fastpath_compile_rejected", 0) == 0
        ):
            breaches.append(
                f"{where(r)}: compiled closures did not run cleanly: {compiled}"
            )
    if closures and hot and (
        max(r.get("compiled_speedup_over_off", 0.0) for r in hot)
        < COMPILED_MIN_SPEEDUP
    ):
        breaches.append(
            f"verified-nat compiled closures below {COMPILED_MIN_SPEEDUP}x "
            f"the no-fast-path wire-backed replay at every hot point: "
            + listing(hot, "compiled_speedup_over_off")
        )
    return breaches


# -- failover: a real SIGKILL under replication lag -----------------------------
# The resilience subsystem must honor (a) zero loss when synchronous: at
# lag 0 the shard rebuilt from its standby recovers every established
# flow — a kill loses the frames queued for the dead worker, never a
# flow; (b) asynchrony has a price, and only that price: flows lost grow
# (weakly) with the lag, never exceed the deltas the channel cut
# destroyed, and every recovered flow keeps translating (the
# post-recovery probe loses nothing beyond the replication loss); (c)
# bounded recovery at every lag, measured as wall time.

#: (c) hard ceiling on the measured rebuild of a dead shard: twice the
#: largest of forty smoke-grid recoveries (ten sweeps on a 2-vCPU
#: machine: 10.6 ms min, 14.3 ms median, 21.4 ms max), rounded up.
#: Respawning a worker process and rebuilding a 32,767-flow shard from
#: its frame does not fit the 10 ms the modeled blackout was held to.
RECOVERY_BUDGET_US = 50_000


def _failover_claims(records: List[Record]) -> List[str]:
    breaches: List[str] = []
    for r in records:
        where = f"{r['nf']} @ lag {r['lag']}"
        flows_lost = r.get("flows_lost", 0)
        # (a) the synchronous anchor.
        if r["lag"] == 0 and flows_lost > 0:
            breaches.append(
                f"{where}: {flows_lost} established flows lost on a "
                f"synchronous channel (budget 0)"
            )
        # (c)
        if r.get("recovery_us", 0) > RECOVERY_BUDGET_US:
            breaches.append(
                f"{where}: recovery took {r['recovery_us']}us "
                f"(budget {RECOVERY_BUDGET_US}us)"
            )
        # A failover actually happened, and it was not free.
        if _has(r, "flows_at_kill", "recovery_us", "packets_lost_queue"):
            if not (
                r["flows_at_kill"] > 0
                and r["recovery_us"] > 0
                and r["packets_lost_queue"] > 0
            ):
                breaches.append(
                    f"{where}: the kill cost nothing ({r['flows_at_kill']} "
                    f"flows at kill, {r['recovery_us']}us recovery, "
                    f"{r['packets_lost_queue']} queued packets lost); "
                    f"no failover ran"
                )
        # (b) recovered flows keep translating.
        if _has(r, "probe_offered", "probe_delivered"):
            probe_lost = r["probe_offered"] - r["probe_delivered"]
            if probe_lost > flows_lost:
                breaches.append(
                    f"{where}: {probe_lost} probe replies lost after recovery "
                    f"but only {flows_lost} flows were lost to replication"
                )
        # (b) the cut destroyed exactly its in-flight window, and flow
        # loss is bounded by it.
        if "deltas_lost" in r and not (
            flows_lost <= r["deltas_lost"] == r["lag"]
        ):
            breaches.append(
                f"{where}: the channel cut destroyed {r['deltas_lost']} "
                f"deltas and {flows_lost} flows; a lag-{r['lag']} channel "
                f"loses exactly {r['lag']} deltas and no more flows than that"
            )
    # (b) loss grows (weakly) with the lag.
    for nf, group in _by(_having(records, "flows_lost"), "nf").items():
        group.sort(key=lambda r: r["lag"])
        losses = [r["flows_lost"] for r in group]
        if losses != sorted(losses):
            breaches.append(
                f"{nf}: flows lost {losses} is not monotone in replication "
                f"lag {[r['lag'] for r in group]}"
            )
        if group[-1]["lag"] > 0 and losses[-1] == 0:
            breaches.append(
                f"{nf}: an asynchronous channel (lag {group[-1]['lag']}) "
                f"lost no flows; the sweep is not exercising the cut"
            )
    return breaches


# -- cgnat: memory flatness at 10x/100x flows ----------------------------------
# The deterministic CGNAT's value is a scaling claim, and a scaling
# claim needs a sweep that can falsify it: (a) at 1x/10x/100x flows the
# stateless det-nat holds zero flow-table entries and a flat checkpoint
# — its footprint is the config, not the traffic; (b) the stateful NATs
# driven by the same workload grow one entry per flow, so the comparison
# measures what it claims to; (c) replies to sampled translated ports
# reach the endpoints that originated them — statelessness must not cost
# the reverse mapping. The record names the forward rate
# ``replay_pps_off`` and the return-path verdict ``identical`` so the
# gate's throughput tolerance and byte-identity diff apply to them.

#: (a) allowed relative spread of det-nat's checkpoint size.
CGNAT_FLATNESS_SLACK = 0.10


def _cgnat_claims(records: List[Record]) -> List[str]:
    breaches: List[str] = []
    for r in records:
        where = f"{r['nf']} @ {r['flow_count']} flows"
        # (c)
        if not r.get("identical", True):
            breaches.append(
                f"{where}: return-path differential failed (reply did not "
                f"reach its originator)"
            )
        if r.get("replay_pps_off", 1.0) <= 0:
            breaches.append(f"{where}: the forward replay measured no rate")
    for nf, group in sorted(_by(records, "nf").items()):
        if len(_having(group, "state_entries", "checkpoint_bytes")) < len(group):
            breaches.append(f"{nf} records missing state_entries/checkpoint_bytes")
            continue
        group.sort(key=lambda r: r["flow_count"])
        flows = [r["flow_count"] for r in group]
        entries = [r["state_entries"] for r in group]
        sizes = [r["checkpoint_bytes"] for r in group]
        if nf == "det-nat":
            # (a)
            if any(entries):
                breaches.append(
                    f"det-nat reports state entries {entries}; the "
                    f"stateless NAT must hold zero flow state"
                )
            if max(sizes) > max(min(sizes), 1) * (1 + CGNAT_FLATNESS_SLACK):
                breaches.append(
                    f"det-nat checkpoint size not flat across flow counts: "
                    f"{sizes} bytes (>{CGNAT_FLATNESS_SLACK:.0%} spread)"
                )
            continue
        # (b)
        if len(group) > 1 and entries != sorted(set(entries)):
            breaches.append(
                f"{nf} state entries {entries} do not grow with flow "
                f"count; the stateful contrast is not being measured"
            )
        if entries != flows:
            breaches.append(
                f"{nf} state entries {entries} do not track flow counts "
                f"{flows} one for one"
            )
    return breaches


# -- procs: real cores behind the same semantics -------------------------------
# Scaling out must not change what the NF computes: (a) on the identical
# schedule every worker process emits the exact TX stream (and counters)
# the deterministic oracle's same-numbered worker emits, at every width,
# on both transports; (b) the warmed replay rate scales with worker
# processes where there are cores to scale onto. The machine shape is
# read off the record (``cores``), never assumed. The transport ablation
# rides the same sweep: with real parallelism shm must out-run pipe;
# on one core, where throughput cannot separate them, it must move
# bytes cheaper (the per-point ``transport_ns`` totals).

#: Below this many cores the workers share CPUs with a busy parent and
#: with each other, so rates say nothing about scaling; at or above it
#: the multi-core claims apply. The CI ``multicore-smoke`` lane keys on
#: the same number.
PROCS_MULTICORE = 4
#: (b) on a multi-core machine: the fraction of ``min(workers, cores)``
#: times the 1-worker rate a wider point must reach — 4 workers >= 2x.
PROCS_MIN_EFFICIENCY = 0.5
#: (b) on fewer cores: transport overhead must not eat the 1-worker rate.
#: Loose deliberately — 4 workers time-sharing one core see tens of
#: percent of scheduler jitter run to run.
PROCS_SINGLE_CORE_FLOOR = 0.25
#: On a multi-core machine the widest shm point must beat the
#: same-width pipe point by this factor — the shared-memory data plane's
#: whole reason to exist.
PROCS_SHM_SPEEDUP = 1.5


def _byte_cost_ns(record: Record) -> int:
    moved = record["transport_ns"]
    return moved.get("encode_ns", 0) + moved.get("copy_ns", 0)


def _procs_claims(records: List[Record]) -> List[str]:
    breaches: List[str] = []
    rows: Dict[Tuple, Dict[int, Record]] = {}
    for r in records:
        rows.setdefault((r["nf"], r.get("transport")), {})[r["workers"]] = r
    for (nf, transport), by_width in rows.items():
        base_pps = by_width.get(1, {}).get("replay_pps")
        if not base_pps:
            breaches.append(
                f"{nf}/{transport} is missing its 1-worker anchor point; "
                f"the scaling claim has nothing to scale from"
            )
        for workers, r in sorted(by_width.items()):
            where = f"{nf} @ {workers} workers / {transport}"
            # (a)
            if not r.get("identical", False):
                breaches.append(
                    f"{where}: process TX stream or counters lost "
                    f"byte-identity with the deterministic oracle"
                )
            if "transport_ns" in r and r["transport_ns"].get("copy_ns", 0) <= 0:
                breaches.append(f"{where}: no transport ablation counters")
            # (b)
            if workers == 1 or not base_pps:
                continue
            cores = r.get("cores") or 1
            if cores >= PROCS_MULTICORE:
                ideal = min(workers, cores)
                share = PROCS_MIN_EFFICIENCY * ideal
                shape = (
                    f"{PROCS_MIN_EFFICIENCY:.2f} x {ideal}x ideal "
                    f"on {cores} core(s)"
                )
            else:
                share = PROCS_SINGLE_CORE_FLOOR
                shape = (
                    f"single-core floor {share:.2f}, which holds below "
                    f"{PROCS_MULTICORE} cores"
                )
            required = share * base_pps
            pps = r.get("replay_pps") or 0.0
            if pps < required:
                breaches.append(
                    f"{where}: replay_pps {pps:,.0f} below required "
                    f"{required:,.0f} ({shape})"
                )
    # The transport ablation, wherever both transports ran.
    for nf in sorted({nf for nf, _ in rows}):
        pipe, shm = rows.get((nf, "pipe"), {}), rows.get((nf, "shm"), {})
        shared = sorted(w for w in pipe if w in shm)
        if shared and shared[-1] > 1:
            widest = shared[-1]
            cores = min(
                pipe[widest].get("cores") or 1, shm[widest].get("cores") or 1
            )
            pipe_pps = pipe[widest].get("replay_pps") or 0.0
            shm_pps = shm[widest].get("replay_pps") or 0.0
            if cores >= PROCS_MULTICORE and shm_pps < PROCS_SHM_SPEEDUP * pipe_pps:
                breaches.append(
                    f"{nf} @ {widest} workers shm replay_pps {shm_pps:,.0f} "
                    f"below {PROCS_SHM_SPEEDUP}x the pipe transport's "
                    f"{pipe_pps:,.0f} on {cores} core(s); the shared-memory "
                    f"data plane is not paying for itself"
                )
        for w in shared:
            pair = (shm[w], pipe[w])
            if all(_has(r, "transport_ns") and r.get("cores") == 1 for r in pair):
                shm_ns, pipe_ns = _byte_cost_ns(shm[w]), _byte_cost_ns(pipe[w])
                if shm_ns >= pipe_ns:
                    breaches.append(
                        f"{nf} @ {w} workers: shm spent {shm_ns} encode+copy "
                        f"ns vs pipe's {pipe_ns}; the zero-copy transport "
                        f"must move bytes cheaper"
                    )
    return breaches


# -- chain: the operational suite over firewall -> limiter -> NAT --------------
# Real deployments run NFs in chains and operate them live. The suite
# (warm upgrade via coordinated checkpoint/restore, active/standby stage
# promotion, seeded chaos soak) gates: (a) every declared SLA holds —
# measured availability, disruption window, mapping survival and
# post-disruption probe loss within each scenario's budget, which the
# record carries beside the measurements; (b) packets may die,
# connections may not: no NAT mapping observed before a disruption
# changes after it; (c) chaos is confined: the fault storm demonstrably
# fired, yet everything it cost happened inside its window.


def _run_chain(flows: int, rounds: int) -> List[Record]:
    spec = default_chain_spec(max_flows=max(64, 2 * flows))
    return chain_scenarios(spec, flows=flows, rounds=rounds)


def _chain_snapshot(record: Record) -> Dict:
    return snapshot_of_counters(
        {
            f"chain_scenario_{field}": record[field]
            for field in (
                "offered",
                "delivered",
                "lost",
                "disruption_us",
                "flows_lost",
                "probe_lost",
            )
        },
        labels={"nf": "chain", "scenario": record["scenario"]},
        help_text="chain-scenario measured disruption ledger",
    )


def _chain_claims(records: List[Record]) -> List[str]:
    breaches: List[str] = []
    for r in records:
        scenario = r.get("scenario", "?")
        details = r.get("details", {})
        flows, tick = r.get("flows_total"), details.get("tick_us")
        measured = flows is not None and tick is not None
        # (a) budgets are declared in the same record, so the verdict
        # holds on any runner shape.
        if not r.get("sla_ok", False):
            breaches.append(
                f"{scenario} breached its declared SLA "
                f"(availability {r.get('availability')}, "
                f"disruption {r.get('disruption_us')}us, "
                f"flows_lost {r.get('flows_lost')}, "
                f"probe_lost {r.get('probe_lost')})"
            )
        # The ledger adds up: real traffic was offered every round.
        if r["delivered"] + r["lost"] != r["offered"] or (
            flows is not None
            and "rounds" in details
            and r["offered"] != flows * details["rounds"]
        ):
            breaches.append(
                f"{scenario} ledger does not add up: offered {r['offered']}, "
                f"delivered {r['delivered']}, lost {r['lost']}"
            )
        # (b) and the recovered chain must serve the probes.
        if r.get("flows_lost", 0) != 0:
            breaches.append(
                f"{scenario} lost {r['flows_lost']} NAT mapping(s); control "
                f"actions and chaos alike must carry state"
            )
        if r.get("probe_lost", 0) != 0 or r.get("probe_offered", 1) <= 0:
            breaches.append(
                f"{scenario} dropped {r.get('probe_lost')} of "
                f"{r.get('probe_offered')} post-disruption probe packet(s)"
            )
        # The upgrade abandons exactly one in-flight round; the promoted
        # stage was down for the configured rounds and not one more.
        rounds_down = {
            "warm-upgrade": 1,
            "promote-stage": details.get("down_rounds"),
        }.get(scenario)
        if measured and rounds_down is not None:
            expected = (rounds_down * flows, rounds_down * tick)
            if (r["lost"], r["disruption_us"]) != expected:
                breaches.append(
                    f"{scenario} lost {r['lost']} packets over "
                    f"{r['disruption_us']}us; {rounds_down} round(s) of "
                    f"{flows} flows at {tick}us each were down"
                )
        if scenario == "chaos-soak":
            # (c) a plan that never applied a fault would "pass" its SLA
            # without soaking anything.
            applied = details.get("faults_applied", {})
            if sum(applied.values()) == 0:
                breaches.append(
                    f"{scenario} applied no faults; the soak measured an "
                    f"undisturbed chain"
                )
            elif applied.get("reorder", 0) == 0:
                breaches.append(
                    f"{scenario} never exercised the reordering link "
                    f"(faults applied: {applied})"
                )
            if measured and "window_us" in details:
                start, end = details["window_us"]
                if r["disruption_us"] > end - start + tick:
                    breaches.append(
                        f"{scenario} disruption {r['disruption_us']}us "
                        f"outlasted its {end - start}us fault window"
                    )
    return breaches


# -- the descriptions ----------------------------------------------------------
SWEEPS: Dict[str, Sweep] = {
    sweep.name: sweep
    for sweep in (
        Sweep(
            name="burst",
            grids=_scales(
                smoke=dict(burst_sizes=(1, 4, 32), packet_count=6_000),
                quick=dict(burst_sizes=(1, 2, 4, 8, 16, 32), packet_count=6_000),
                paper=dict(
                    burst_sizes=(1, 2, 4, 8, 16, 32, 64, 128), packet_count=20_000
                ),
            ),
            run=burst_size_sweep,
            render=reporting.render_burst_sweep,
            snapshot=_counter_snapshot(
                ("nf", "burst_size"), "burst-sweep NF counters", "burst_sweep_"
            ),
            key=("nf", "burst_size"),
            claims=_burst_claims,
        ),
        Sweep(
            name="shard",
            # packet_count is per worker: the budget scales with width.
            grids=_scales(
                smoke=dict(worker_counts=(1, 2, 4), packet_count=4_000),
                quick=dict(worker_counts=(1, 2, 4, 8), packet_count=4_000),
                paper=dict(worker_counts=(1, 2, 4, 8, 16), packet_count=10_000),
            ),
            run=shard_sweep,
            render=reporting.render_shard_sweep,
            snapshot=_counter_snapshot(
                ("nf", "workers"),
                "shard-sweep aggregated NF counters",
                "shard_sweep_",
            ),
            key=("nf", "workers"),
            claims=_shard_claims,
        ),
        Sweep(
            name="fastpath",
            # Few flows -> near-100% hit rate; flow counts approaching
            # the packet budget -> the cache never converges.
            grids=_scales(
                smoke=dict(flow_counts=(64, 1_024), packet_count=4_000),
                quick=dict(flow_counts=(64, 1_024, 4_096), packet_count=6_000),
                paper=dict(
                    flow_counts=(64, 1_024, 4_096, 16_384), packet_count=20_000
                ),
            ),
            run=fastpath_sweep,
            render=reporting.render_fastpath_sweep,
            snapshot=_embedded_snapshot,
            key=("nf", "flow_count"),
            claims=_fastpath_claims,
            bench_file="BENCH_fastpath.json",
        ),
        Sweep(
            name="failover",
            grids=_scales(
                smoke=dict(lags=(0, 8), flow_count=96),
                quick=dict(lags=(0, 8, 64), flow_count=192),
                paper=dict(lags=(0, 2, 8, 32, 128), flow_count=1_024),
            ),
            run=failover_sweep,
            render=reporting.render_failover,
            snapshot=_embedded_snapshot,
            key=("nf", "lag"),
            claims=_failover_claims,
            bench_file="BENCH_failover.json",
            strict=True,
        ),
        Sweep(
            name="cgnat",
            # The same grid at every scale: the whole claim is the 100x
            # point, the committed baseline covers all three, and the
            # strict gate wants every baseline point matched. One packet
            # per flow keeps even 100x seconds-scale.
            grids=dict.fromkeys(
                ("smoke", "quick", "paper"),
                dict(flow_counts=(512, 5_120, 51_200)),
            ),
            run=cgnat_sweep,
            render=reporting.render_cgnat_sweep,
            snapshot=_counter_snapshot(
                ("nf", "flow_count"), "cgnat-sweep op counters"
            ),
            key=("nf", "flow_count"),
            claims=_cgnat_claims,
            bench_file="BENCH_cgnat.json",
            strict=True,
        ),
        Sweep(
            name="procs",
            # Every grid keeps the 4-worker point: the multi-core
            # scaling claim lives there.
            grids=_scales(
                smoke=dict(worker_counts=(1, 2, 4), packet_count=2_000),
                quick=dict(worker_counts=(1, 2, 4), packet_count=4_000),
                paper=dict(worker_counts=(1, 2, 4, 8), packet_count=12_000),
            ),
            run=procs_sweep,
            render=reporting.render_procs_sweep,
            snapshot=_embedded_snapshot,
            key=("nf", "workers", "transport"),
            claims=_procs_claims,
            bench_file="BENCH_procs.json",
            strict=True,
        ),
        Sweep(
            name="chain",
            # The warm-upgrade SLA needs enough rounds that the one
            # abandoned in-flight round stays under the 10% loss floor;
            # 16 is the minimum comfortable margin, so smoke keeps it.
            grids=_scales(
                smoke=dict(flows=24, rounds=16),
                quick=dict(flows=64, rounds=16),
                paper=dict(flows=256, rounds=48),
            ),
            run=_run_chain,
            render=reporting.render_chain_scenarios,
            snapshot=_chain_snapshot,
            key=("nf", "scenario"),
            claims=_chain_claims,
            bench_file="BENCH_chain.json",
            strict=True,
        ),
    )
}
