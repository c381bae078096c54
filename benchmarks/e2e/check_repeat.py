"""Do two result sets of one commit and seed agree?

    python3 benchmarks/e2e/check_repeat.py A.json B.json

Compares the sets ``run.py --out`` writes, metric by metric, against the
bounds in ``BENCHMARK.json``: prints each side, the ratio B/A (A is the
base) and the run's own ``driver.segment_iqr``, and exits non-zero when

- an end-to-end metric differs, in either direction, by more than its
  bound (a repeat that reads *better* by more than the bound is as much a
  disagreement as one that reads worse);
- a counter that must repeat exactly differs;
- ``ledger.reconcile_error`` or ``ledger.unattributed_share`` exceeds its
  limit in either set;
- any frame failed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List

from metricdefs import LEDGER_LIMITS, PER_LAYER

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_bounds() -> Dict[str, Dict]:
    spec = json.loads(BENCHMARK_JSON.read_text())
    return {metric["name"]: metric for metric in spec["end_to_end"]}


def _worsening(metric: Dict, base: float, other: float) -> float:
    """Share of ``base`` by which ``other`` is worse (negative: better)."""
    change = (other - base) / base
    return change if metric["better"] == "lower" else -change


def compare(a: Dict, b: Dict) -> int:
    """Print the comparison; return the number of disagreements."""
    bounds = load_bounds()
    exact = [metric.name for metric in PER_LAYER if metric.exact]
    problems: List[str] = []
    for name, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(name)
        if entry_b is None:
            problems.append(f"{name}: missing from the second set")
            continue
        iqr = entry_a["per_layer"].get("driver.segment_iqr", float("nan"))
        print(f"{name}  (driver.segment_iqr {iqr:.3f})")
        for metric in bounds.values():
            key = metric["name"]
            va, vb = entry_a["end_to_end"].get(key), entry_b["end_to_end"].get(key)
            if va is None or vb is None:
                problems.append(f"{name} {key}: not measured")
                continue
            apart = max(_worsening(metric, va, vb), _worsening(metric, vb, va))
            verdict = "ok" if apart <= metric["bound"] else "OUTSIDE BOUND"
            print(f"  {key:16s} A={va:<14.6g} B={vb:<14.6g} B/A={vb / va:.4f} "
                  f"bound={metric['bound']:g} {metric['unit']:9s} {verdict}")
            if verdict != "ok":
                problems.append(f"{name} {key}: {apart:.3f} apart, bound {metric['bound']:g}")
        for key in exact:
            va, vb = entry_a["per_layer"].get(key), entry_b["per_layer"].get(key)
            if va != vb:
                problems.append(f"{name} {key}: exact counter {va} != {vb}")
        for side, entry in (("A", entry_a), ("B", entry_b)):
            for key, limit in LEDGER_LIMITS.items():
                value = entry["per_layer"].get(key)
                if value is None or value > limit:
                    problems.append(f"{name} {key} ({side}): {value} over {limit:g}")
            for frames in (entry["end_to_end_frames"], entry["per_layer_frames"]):
                if frames["failed"]:
                    problems.append(f"{name} ({side}): {frames['failed']} frames failed")
    for problem in problems:
        print("FAIL", problem)
    print(f"{len(problems)} disagreement(s)")
    return len(problems)


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    return 1 if compare(a, b) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
