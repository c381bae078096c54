"""Benchmark-regression gate: diff fresh BENCH_*.json against baselines.

Usage::

    python benchmarks/compare_bench.py --baseline DIR --fresh DIR \
        [--tolerance 0.25] [--select BENCH_foo.json,BENCH_bar.json]

``--select`` restricts the gate to the named ``BENCH_*.json`` files —
the CI benchmark matrix runs one sweep per job, so each job gates only
the file(s) its sweep produced. The budget-gated "baseline must exist"
rule then applies only to selected files; an unselected baseline is
someone else's job. Without ``--select`` every baseline is gated (the
local / full-run behavior).

Both directories hold ``BENCH_*.json`` files as written by the sweep
benchmarks (a list of per-point records). For every baseline file with
a fresh counterpart, records are matched by ``(nf, flow_count)`` — or
by ``(nf, lag)`` for records carrying a ``lag`` field (the failover
availability sweep), or by ``(nf, workers, transport)`` for records
carrying a ``workers`` field without a ``flow_count`` (the
process-runtime scaling sweep) — and the gate fails (exit 1) when any
matched point:

- regresses more than ``tolerance`` (default 25%) in replay throughput
  (``replay_pps_off``, ``replay_pps_on`` or ``replay_pps``) — skipped
  when the two runs report different ``cores`` counts, since absolute
  rates are not comparable across machine shapes,
- regresses more than ``tolerance`` in a lower-is-better recovery
  metric (``recovery_us``), or loses flows a synchronous baseline
  kept (``flows_lost`` grew from zero), or
- lost the differential byte-identity (``identical`` went false).

Independently of the baseline, every fresh file must preserve the
paper's NF cost ordering — noop < unverified-nat < verified-nat in
modeled per-packet busy time — at every flow count it covers.

Points present only in the baseline (e.g. the CI smoke scale sweeps
fewer flow counts) are reported but do not fail the gate; a fresh file
sharing *no* point with its baseline does, since the gate would
otherwise pass vacuously.

Budget-gating sweeps are stricter. The failover availability sweep and
the cgnat memory-flatness sweep exist to *bound* a number (recovery
budget, state growth), so for their files a baseline-only point — or a
missing baseline file altogether — is a hard error: silently dropping
points (say, by deleting the committed baseline) must not green CI.

``BENCH_procs.json`` carries its own fresh-file invariants, all
machine-shape-aware: every point must keep oracle byte-identity, and
each multi-worker point must reach ``PROCS_MIN_EFFICIENCY`` of the
core-aware ideal — ``min(workers, cores)`` times the matching
transport's 1-worker rate — so the "4 workers ≥ 2x" claim gates
exactly on boxes with ≥4 cores while a 1-core runner only enforces
the overhead floor. The transports are also gated against each other:
on a runner with ≥4 cores the widest shm point must reach
``PROCS_SHM_SPEEDUP`` (1.5x) the same-width pipe rate — the
shared-memory data plane's acceptance claim — while a 1-core runner
proves the same ablation via the in-file ``transport_ns`` byte-cost
counters (asserted by the sweep benchmark itself, where the pps
comparison would be noise).

``BENCH_cgnat.json`` additionally carries its own fresh-file invariant:
the stateless ``det-nat`` must report zero state entries and a flat
checkpoint size at every flow count, while the stateful NATs it is
benchmarked against must show state growing with flow count — if they
do not, the sweep is not measuring what it claims to.

``BENCH_fastpath.json`` carries the compiled-closure acceptance
invariants on its fresh results (machine-independent ratios, so they
gate on any runner shape): every raw-capable point keeps raw/compiled
byte-identity; the verified NAT's compiled closures reach
``COMPILED_MIN_SPEEDUP`` (1.3x) over the no-fast-path raw replay at
some 90%+ hit-rate point; and the no-op forwarder's compiled path never
loses to running with no fast path at all.

``BENCH_chain.json`` (records keyed by ``(nf, scenario)``) gates the
operational scenario suite: every fresh record must report
``sla_ok`` — the measured availability, disruption window, mapping
survival and probe loss all inside their declared budgets; the warm
upgrade and the stage promotion must not cost a single NAT mapping
(``flows_lost == 0``) and their post-disruption probes must be
lossless; and the chaos soak's fault ledger must show the storm
actually fired (including the reordering link). Against the baseline,
``disruption_us`` rides the lower-is-better recovery gate and
``flows_lost`` the 0 -> >0 transition gate, like the failover sweep.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Dict, List, Tuple

ORDERED_NFS = ("noop", "unverified-nat", "verified-nat")

THROUGHPUT_FIELDS = (
    "replay_pps_off",
    "replay_pps_on",
    "replay_pps",
    "raw_pps_off",
    "raw_pps_compiled",
)

#: Lower is better: a fresh value *above* baseline is the regression.
#: (``flows_lost`` is gated separately — nonzero losses scale with the
#: workload, so only its 0 -> >0 transition fails the gate.)
RECOVERY_FIELDS = ("recovery_us", "disruption_us")

#: Sweeps that gate a budget rather than track a trend: every baseline
#: point must be matched, and the baseline file itself must exist.
BUDGET_GATED = (
    "BENCH_failover.json",
    "BENCH_cgnat.json",
    "BENCH_procs.json",
    "BENCH_chain.json",
)

#: Fraction of the core-aware ideal (min(workers, cores) x the
#: 1-worker rate) every multi-worker procs point must reach; on a
#: single core the ideal is 1x and only the overhead floor applies.
PROCS_MIN_EFFICIENCY = 0.5
#: Kept loose deliberately: 4 workers time-sharing one core see tens
#: of percent of scheduler jitter run to run.
PROCS_SINGLE_CORE_FLOOR = 0.25

#: On a multi-core runner, the widest shm sweep point must beat the
#: same-width pipe point by this factor — the shared-memory data
#: plane's whole reason to exist. Not applied on 1-core runners, where
#: the transports time-share a CPU and pps separation is noise (the
#: sweep benchmark gates the transport_ns byte costs there instead).
PROCS_SHM_SPEEDUP = 1.5

#: Allowed relative spread of a "flat" series (det-nat checkpoint
#: bytes): max may exceed min by at most this fraction.
FLATNESS_SLACK = 0.10

#: Compiled closures must beat the no-fast-path raw replay by this
#: factor on the verified NAT's hottest raw-path point — the compiled
#: fast path's acceptance claim. A wall-clock ratio on one machine, so it gates on
#: every runner shape.
COMPILED_MIN_SPEEDUP = 1.3


def _key_of(record: Dict) -> Tuple:
    """Records with a ``scenario`` field (chain suite) key on it;
    records with a ``lag`` field (failover sweep) key on it; records
    with ``workers`` but no ``flow_count`` (procs sweep) key on the
    worker count plus transport; the throughput sweeps key on
    ``flow_count``."""
    if "scenario" in record:
        return (record["nf"], record["scenario"])
    if "lag" in record:
        return (record["nf"], record["lag"])
    if "workers" in record and "flow_count" not in record:
        # ``transport`` defaults to pipe for pre-shm baselines so old
        # and new files still share keys on the pipe rows.
        return (
            record["nf"],
            record["workers"],
            record.get("transport", "pipe"),
        )
    return (record["nf"], record["flow_count"])


def _load(path: pathlib.Path) -> Dict[Tuple, Dict]:
    records = json.loads(path.read_text())
    return {_key_of(r): r for r in records}


def compare_file(
    baseline_path: pathlib.Path,
    fresh_path: pathlib.Path,
    tolerance: float,
) -> List[str]:
    """Compare one benchmark file pair; returns failure messages."""
    failures: List[str] = []
    baseline = _load(baseline_path)
    fresh = _load(fresh_path)
    name = fresh_path.name

    common = sorted(set(baseline) & set(fresh))
    if not common:
        return [f"{name}: no common (nf, flow_count) points with baseline"]
    for key in sorted(set(baseline) - set(fresh)):
        if name in BUDGET_GATED:
            # A budget gate with a missing point is no gate at all.
            failures.append(
                f"{name}: baseline point {key} missing from fresh results "
                f"(budget-gating sweep; every baseline point must be matched)"
            )
        else:
            print(f"  {name}: baseline-only point {key} (skipped)")

    for key in common:
        base, new = baseline[key], fresh[key]
        if base.get("identical", True) and not new.get("identical", True):
            failures.append(f"{name}: {key} lost differential byte-identity")
        base_cores, new_cores = base.get("cores"), new.get("cores")
        cores_differ = (
            base_cores is not None
            and new_cores is not None
            and base_cores != new_cores
        )
        for field in THROUGHPUT_FIELDS:
            old_value = base.get(field)
            new_value = new.get(field)
            if not old_value or new_value is None:
                continue
            if cores_differ:
                # Absolute rates measured on different machine shapes
                # say nothing about regressions; the per-file scaling
                # invariants still gate the fresh results.
                print(
                    f"  {name}: {key[0]}@{key[1]} {field} skipped "
                    f"(baseline on {base_cores} core(s), "
                    f"fresh on {new_cores})"
                )
                continue
            change = (new_value - old_value) / old_value
            marker = ""
            if change < -tolerance:
                failures.append(
                    f"{name}: {key} {field} regressed "
                    f"{-change:.1%} (> {tolerance:.0%} tolerance): "
                    f"{old_value:.0f} -> {new_value:.0f}"
                )
                marker = "  << REGRESSION"
            print(
                f"  {name}: {key[0]}@{key[1]} {field} "
                f"{old_value:.0f} -> {new_value:.0f} ({change:+.1%}){marker}"
            )
        for field in RECOVERY_FIELDS:
            old_value = new_value = None
            if field in base and field in new:
                old_value, new_value = base[field], new[field]
            if old_value is None or new_value is None:
                continue
            if old_value == 0:
                # A synchronous baseline lost nothing; any fresh loss
                # is a correctness regression, not a percentage.
                if new_value > 0:
                    failures.append(
                        f"{name}: {key} {field} regressed from 0 "
                        f"to {new_value}"
                    )
                continue
            change = (new_value - old_value) / old_value
            marker = ""
            if change > tolerance:
                failures.append(
                    f"{name}: {key} {field} regressed "
                    f"{change:.1%} (> {tolerance:.0%} tolerance): "
                    f"{old_value:.0f} -> {new_value:.0f}"
                )
                marker = "  << REGRESSION"
            print(
                f"  {name}: {key[0]}@{key[1]} {field} "
                f"{old_value:.0f} -> {new_value:.0f} ({change:+.1%}){marker}"
            )
        if "flows_lost" in base and "flows_lost" in new:
            # Nonzero flow loss scales with the workload, so only the
            # 0 -> >0 transition (a lossless point starting to lose
            # flows) gates, not a percentage.
            if base["flows_lost"] == 0 and new["flows_lost"] > 0:
                failures.append(
                    f"{name}: {key} flows_lost regressed from 0 "
                    f"to {new['flows_lost']}"
                )

    # NF ordering within the fresh results: modeled per-packet cost must
    # keep the paper's structure at every flow count the file covers.
    by_flow: Dict[int, Dict[str, float]] = {}
    for key, record in fresh.items():
        busy = record.get("modeled_busy_ns_off")
        if busy is not None:
            by_flow.setdefault(key[1], {})[key[0]] = busy
    for flow_count, busy_by_nf in sorted(by_flow.items()):
        present = [nf for nf in ORDERED_NFS if nf in busy_by_nf]
        costs = [busy_by_nf[nf] for nf in present]
        if costs != sorted(costs):
            failures.append(
                f"{name}: NF cost ordering lost at {flow_count} flows: "
                + ", ".join(f"{nf}={busy_by_nf[nf]:.0f}ns" for nf in present)
            )
    if name == "BENCH_cgnat.json":
        failures.extend(_cgnat_invariants(name, fresh))
    if name == "BENCH_procs.json":
        failures.extend(_procs_invariants(name, fresh))
    if name == "BENCH_fastpath.json":
        failures.extend(_fastpath_invariants(name, fresh))
    if name == "BENCH_chain.json":
        failures.extend(_chain_invariants(name, fresh))
    return failures


def _chain_invariants(name: str, fresh: Dict[Tuple, Dict]) -> List[str]:
    """Operational-suite acceptance on the fresh chain results.

    SLA verdicts are measured against budgets declared in the same
    record, so they gate on any runner shape. The chaos soak must also
    prove the storm fired: a fault plan that never applied a fault
    would trivially "pass" its SLA without soaking anything.
    """
    failures: List[str] = []
    for key, record in sorted(fresh.items()):
        scenario = record.get("scenario", "?")
        if not record.get("sla_ok", False):
            failures.append(
                f"{name}: {key} breached its declared SLA "
                f"(availability {record.get('availability')}, "
                f"disruption {record.get('disruption_us')}us, "
                f"flows_lost {record.get('flows_lost')}, "
                f"probe_lost {record.get('probe_lost')})"
            )
        if scenario in ("warm-upgrade", "promote-stage"):
            # Packets may die during the control action; connections
            # may not, and the recovered chain must serve the probes.
            if record.get("flows_lost", 0) != 0:
                failures.append(
                    f"{name}: {key} lost {record['flows_lost']} NAT "
                    f"mapping(s); upgrades/promotions must carry state"
                )
            if record.get("probe_lost", 0) != 0:
                failures.append(
                    f"{name}: {key} dropped {record['probe_lost']} "
                    f"post-disruption probe packet(s)"
                )
        if scenario == "chaos-soak":
            applied = record.get("details", {}).get("faults_applied", {})
            if sum(applied.values()) == 0:
                failures.append(
                    f"{name}: {key} applied no faults; the soak "
                    f"measured an undisturbed chain"
                )
            elif applied.get("reorder", 0) == 0:
                failures.append(
                    f"{name}: {key} never exercised the reordering "
                    f"link (faults applied: {applied})"
                )
    return failures


def _fastpath_invariants(
    name: str, fresh: Dict[Tuple, Dict]
) -> List[str]:
    """Compiled-closure acceptance on the fresh fastpath results.

    Ratios, not absolute rates, so they are checked regardless of the
    baseline's machine shape. Records from before the compiled axis
    (no ``supports_raw`` field) are exempt — the gate cannot invent
    measurements a sweep never took.
    """
    failures: List[str] = []
    raw_points = [r for r in fresh.values() if r.get("supports_raw")]
    if not any("supports_raw" in r for r in fresh.values()):
        return failures
    if not raw_points:
        return [
            f"{name}: no record exercised the raw byte path; the "
            f"compiled-closure axis is not being measured"
        ]
    for record in raw_points:
        if not record.get("raw_identical", True):
            failures.append(
                f"{name}: ({record['nf']}, {record['flow_count']}) lost "
                f"raw/compiled byte-identity"
            )
    hot = [
        r
        for r in raw_points
        if r["nf"] == "verified-nat" and r.get("hit_rate", 0.0) >= 0.9
    ]
    if not hot:
        failures.append(
            f"{name}: no raw-capable verified-nat point at a 90%+ hit "
            f"rate; the compiled speedup claim has nowhere to gate"
        )
    elif (
        max(r.get("compiled_speedup_over_off", 0.0) for r in hot)
        < COMPILED_MIN_SPEEDUP
    ):
        failures.append(
            f"{name}: verified-nat compiled closures below "
            f"{COMPILED_MIN_SPEEDUP}x the no-fast-path replay at every hot "
            f"point: "
            + ", ".join(
                f"{r['flow_count']} flows -> "
                f"{r.get('compiled_speedup_over_off', 0.0):.2f}x"
                for r in sorted(hot, key=lambda r: r["flow_count"])
            )
        )
    for record in raw_points:
        if record["nf"] != "noop":
            continue
        ratio = record.get("compiled_speedup_over_off", 0.0)
        if ratio < 1.0:
            failures.append(
                f"{name}: noop compiled path {ratio:.2f}x the "
                f"no-fast-path baseline at {record['flow_count']} flows; "
                f"the compiled fast path may not cost more than it saves"
            )
    return failures


def _cgnat_invariants(name: str, fresh: Dict[Tuple[str, int], Dict]) -> List[str]:
    """Memory-flatness invariant of the cgnat sweep's fresh results.

    The stateless NAT's whole claim is that its footprint does not move
    with flow count; the stateful NATs are in the sweep precisely to
    show theirs does. Checked here (not only in the benchmark) so a
    sweep whose numbers stop meaning anything fails the gate even if
    every point matched its baseline.
    """
    failures: List[str] = []
    by_nf: Dict[str, List[Tuple[int, Dict]]] = {}
    for (nf, flow_count), record in fresh.items():
        by_nf.setdefault(nf, []).append((flow_count, record))
    for nf, points in sorted(by_nf.items()):
        points.sort()
        entries = [r.get("state_entries") for _, r in points]
        ckpt = [r.get("checkpoint_bytes") for _, r in points]
        if any(v is None for v in entries) or any(v is None for v in ckpt):
            failures.append(
                f"{name}: {nf} records missing state_entries/checkpoint_bytes"
            )
            continue
        if nf == "det-nat":
            if any(entries):
                failures.append(
                    f"{name}: det-nat reports state entries {entries}; "
                    f"the stateless NAT must hold zero flow state"
                )
            low, high = min(ckpt), max(ckpt)
            if high > max(low, 1) * (1 + FLATNESS_SLACK):
                failures.append(
                    f"{name}: det-nat checkpoint size not flat across flow "
                    f"counts: {ckpt} bytes (>{FLATNESS_SLACK:.0%} spread)"
                )
        elif len(points) > 1:
            if not all(a < b for a, b in zip(entries, entries[1:])):
                failures.append(
                    f"{name}: {nf} state entries {entries} do not grow with "
                    f"flow count; the stateful contrast is not being measured"
                )
    return failures


def _procs_invariants(name: str, fresh: Dict[Tuple, Dict]) -> List[str]:
    """Byte-identity, core-aware scaling and transport ablation.

    Checked against the fresh file alone (the committed baseline may
    come from a differently-shaped machine): every point must match the
    deterministic oracle byte for byte, and each multi-worker point
    must reach ``PROCS_MIN_EFFICIENCY`` of ``min(workers, cores)``
    times its (NF, transport)'s 1-worker rate — on a >=4-core runner
    that is the "4 workers >= 2x" acceptance claim; a single core only
    enforces ``PROCS_SINGLE_CORE_FLOOR`` (transport overhead must not
    eat the rate). On >=4-core runners the widest shm point must also
    reach ``PROCS_SHM_SPEEDUP`` times the same-width pipe point.
    """
    failures: List[str] = []
    by_row: Dict[Tuple[str, str], List[Tuple[int, Dict]]] = {}
    for key, record in fresh.items():
        nf, workers = key[0], key[1]
        transport = key[2] if len(key) > 2 else "pipe"
        by_row.setdefault((nf, transport), []).append((workers, record))
    for (nf, transport), points in sorted(by_row.items()):
        points.sort(key=lambda item: item[0])
        for workers, record in points:
            if not record.get("identical", False):
                failures.append(
                    f"{name}: {nf}@{workers} workers/{transport} lost "
                    f"byte-identity with the deterministic oracle"
                )
        anchor = dict(points).get(1)
        if anchor is None or not anchor.get("replay_pps"):
            failures.append(
                f"{name}: {nf}/{transport} is missing its 1-worker anchor "
                f"point; the scaling gate has nothing to scale from"
            )
            continue
        base_pps = anchor["replay_pps"]
        for workers, record in points:
            if workers == 1:
                continue
            pps = record.get("replay_pps") or 0.0
            cores = record.get("cores") or 1
            ideal = min(workers, cores)
            if ideal > 1:
                required = PROCS_MIN_EFFICIENCY * ideal * base_pps
                shape = (
                    f"{PROCS_MIN_EFFICIENCY:.2f} x {ideal}x ideal "
                    f"on {cores} core(s)"
                )
            else:
                required = PROCS_SINGLE_CORE_FLOOR * base_pps
                shape = f"single-core floor {PROCS_SINGLE_CORE_FLOOR:.2f}"
            if pps < required:
                failures.append(
                    f"{name}: {nf}@{workers} workers/{transport} replay_pps "
                    f"{pps:.0f} below required {required:.0f} ({shape})"
                )
    failures.extend(_procs_transport_ablation(name, by_row))
    return failures


def _procs_transport_ablation(
    name: str, by_row: Dict[Tuple[str, str], List[Tuple[int, Dict]]]
) -> List[str]:
    """Gate shm against pipe at the widest width, where cores >= 4.

    The shared-memory transport's acceptance claim is a >=
    ``PROCS_SHM_SPEEDUP`` replay-rate win over the pipe transport at
    the widest multi-core width. Files from 1-core runners (or with
    only one transport) are exempt here — the sweep benchmark gates the
    per-byte ``transport_ns`` costs in that regime instead.
    """
    failures: List[str] = []
    nfs = {nf for nf, _ in by_row}
    for nf in sorted(nfs):
        pipe = dict(by_row.get((nf, "pipe"), []))
        shm = dict(by_row.get((nf, "shm"), []))
        shared_widths = [w for w in pipe if w in shm and w > 1]
        if not shared_widths:
            continue
        widest = max(shared_widths)
        pipe_rec, shm_rec = pipe[widest], shm[widest]
        cores = min(pipe_rec.get("cores") or 1, shm_rec.get("cores") or 1)
        if cores < 4:
            continue
        pipe_pps = pipe_rec.get("replay_pps") or 0.0
        shm_pps = shm_rec.get("replay_pps") or 0.0
        if shm_pps < PROCS_SHM_SPEEDUP * pipe_pps:
            failures.append(
                f"{name}: {nf}@{widest} workers shm replay_pps "
                f"{shm_pps:.0f} below {PROCS_SHM_SPEEDUP}x the pipe "
                f"transport's {pipe_pps:.0f} on {cores} core(s); the "
                f"shared-memory data plane is not paying for itself"
            )
    return failures


def compare_dirs(
    baseline_dir: pathlib.Path,
    fresh_dir: pathlib.Path,
    tolerance: float,
    select: List[str] | None = None,
) -> List[str]:
    """Compare every baseline BENCH_*.json with its fresh counterpart.

    With ``select``, only the named files are gated (each CI matrix job
    runs one sweep, so its gate must not demand the others' fresh
    results — nor their baselines, for the budget-gated rule).
    """
    baselines = sorted(baseline_dir.glob("BENCH_*.json"))
    if select is not None:
        known = {path.name for path in baselines}
        baselines = [path for path in baselines if path.name in select]
        for name in sorted(set(select) - known):
            # Selecting a file is claiming responsibility for gating
            # it; a missing committed baseline must not pass silently.
            return [
                f"{name}: selected but no committed baseline in "
                f"{baseline_dir}"
            ]
    if not baselines:
        return [f"no BENCH_*.json baselines found in {baseline_dir}"]
    failures: List[str] = []
    present = {path.name for path in baselines}
    for required in BUDGET_GATED:
        if select is not None and required not in select:
            continue
        # A deleted baseline must read as a gate failure, not as "one
        # fewer file to compare".
        if required not in present:
            failures.append(
                f"{required}: budget-gating baseline missing from "
                f"{baseline_dir}; restore the committed baseline"
            )
    for baseline_path in baselines:
        fresh_path = fresh_dir / baseline_path.name
        if not fresh_path.exists():
            failures.append(f"{baseline_path.name}: missing from fresh results")
            continue
        print(f"comparing {baseline_path.name}:")
        failures.extend(compare_file(baseline_path, fresh_path, tolerance))
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline", required=True, help="directory of committed baselines"
    )
    parser.add_argument(
        "--fresh", required=True, help="directory of freshly produced results"
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed fractional throughput regression (default 0.25)",
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated BENCH_*.json names to gate (default: all)",
    )
    args = parser.parse_args(argv)

    select = None
    if args.select:
        select = [name.strip() for name in args.select.split(",") if name.strip()]
    failures = compare_dirs(
        pathlib.Path(args.baseline),
        pathlib.Path(args.fresh),
        args.tolerance,
        select=select,
    )
    if failures:
        print("\nbenchmark regression gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nbenchmark regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
