"""Benchmark-regression gate: diff fresh BENCH_*.json against baselines.

Usage::

    PYTHONPATH=src python benchmarks/compare_bench.py --baseline DIR \
        --fresh DIR [--tolerance 0.25] [--select BENCH_foo.json,...]

Both directories hold ``BENCH_*.json`` files as the sweep benchmarks
write them: a list of per-point records. What a file *means* — which
record fields key a point, whether a missing baseline point is an
error, and every claim its records must meet on their own — is the
file's sweep description in :mod:`repro.eval.sweeps` (table in
``docs/TOOLCHAIN.md`` §8). This script owns only the comparison of two
runs. For every selected baseline file, records are matched on the
description's key and the gate fails (exit 1) when a matched point

- regresses more than ``tolerance`` (default 25%) in a replay
  throughput field — skipped when the two runs report different
  ``cores`` counts, since absolute rates are not comparable across
  machine shapes (the description's claims still judge the fresh file);
- regresses more than ``tolerance`` in the chain's lower-is-better
  ``disruption_us``, or moves it (or ``flows_lost``) from zero to
  nonzero: a lossless baseline starting to lose is a correctness
  regression, not a percentage; or
- lost the differential byte-identity (``identical`` went false);

when the fresh file breaks one of its description's claims; or when it
shares no point with its baseline, since the gate would otherwise pass
vacuously. A baseline-only point (smoke scale sweeps fewer points) is
reported and skipped — unless the description is ``strict``: such a
sweep bounds a number rather than tracking a trend, so a dropped point,
or a deleted baseline file, must not green CI.

``--select`` restricts the gate to the named files: the CI matrix runs
one sweep per job, so each job gates only what its sweep wrote, and the
strict "baseline must exist" rule applies only to selected files.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Dict, List, Tuple

from repro.eval.sweeps import SWEEPS, Sweep

BY_FILE: Dict[str, Sweep] = {
    sweep.bench_file: sweep for sweep in SWEEPS.values() if sweep.bench_file
}

THROUGHPUT_FIELDS = (
    "replay_pps_off",
    "replay_pps_on",
    "replay_pps",
    "wire_pps_off",
    "wire_pps_compiled",
)

#: Lower is better: a fresh value *above* baseline is the regression,
#: and any move off a zero baseline fails outright. ``flows_lost`` shares
#: only the zero rule — nonzero losses scale with the workload. The
#: failover sweep's ``recovery_us`` is not diffed: it is wall time on a
#: shared runner (why ``cores_differ`` skips throughput), and the
#: sweep's recovery budget claim bounds it.
RECOVERY_FIELDS = ("disruption_us",)


def _load(path: pathlib.Path) -> List[Dict]:
    return json.loads(path.read_text())


def _label(name: str, key: Tuple) -> str:
    """A log-line prefix naming the file and the point's whole key."""
    return f"{name}: " + "@".join(str(part) for part in key)


def _diff(
    name: str, key: Tuple, field: str, old: float, new: float, limit: float
) -> List[str]:
    """Log one matched field; fail a relative move past ``limit``
    (negative: higher is better, positive: lower is better)."""
    change = (new - old) / old
    worse = change < limit if limit < 0 else change > limit
    marker = "  << REGRESSION" if worse else ""
    print(
        f"  {_label(name, key)} {field} "
        f"{old:.0f} -> {new:.0f} ({change:+.1%}){marker}"
    )
    if not worse:
        return []
    return [
        f"{name}: {key} {field} regressed {abs(change):.1%} "
        f"(> {abs(limit):.0%} tolerance): {old:.0f} -> {new:.0f}"
    ]


def compare_file(
    baseline_path: pathlib.Path,
    fresh_path: pathlib.Path,
    tolerance: float,
) -> List[str]:
    """Compare one benchmark file pair; returns failure messages."""
    name = fresh_path.name
    sweep = BY_FILE.get(name)
    if sweep is None:
        return [f"{name}: no sweep description in repro.eval.sweeps owns it"]
    failures: List[str] = []
    fresh_records = _load(fresh_path)
    baseline = {sweep.key_of(r): r for r in _load(baseline_path)}
    fresh = {sweep.key_of(r): r for r in fresh_records}

    common = sorted(set(baseline) & set(fresh))
    if not common:
        return [
            f"{name}: no common ({', '.join(sweep.key)}) points with baseline"
        ]
    for key in sorted(set(baseline) - set(fresh)):
        if sweep.strict:
            # A bound with a missing point bounds nothing.
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
                # say nothing about regressions; the description's
                # claims still judge the fresh results.
                print(
                    f"  {_label(name, key)} {field} skipped (baseline "
                    f"on {base_cores} core(s), fresh on {new_cores})"
                )
                continue
            failures.extend(
                _diff(name, key, field, old_value, new_value, -tolerance)
            )
        for field in RECOVERY_FIELDS + ("flows_lost",):
            if field not in base or field not in new:
                continue
            old_value, new_value = base[field], new[field]
            if old_value == 0:
                # A baseline that lost nothing: any fresh loss is a
                # correctness regression, not a percentage.
                if new_value > 0:
                    failures.append(
                        f"{name}: {key} {field} regressed from 0 "
                        f"to {new_value}"
                    )
                continue
            if field in RECOVERY_FIELDS:
                failures.extend(
                    _diff(name, key, field, old_value, new_value, tolerance)
                )

    failures.extend(f"{name}: {claim}" for claim in sweep.claims(fresh_records))
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
    results — nor their baselines, for the strict rule).
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
    for required, sweep in BY_FILE.items():
        if not sweep.strict or (select is not None and required not in select):
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
