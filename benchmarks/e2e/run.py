"""End-to-end benchmark: wire frame in -> launch(spec) -> wire frame out.

Two ways to call it, one measurement underneath.

The gated form, recorded in ``BENCHMARK.json`` — one workload per call::

    python3 benchmarks/e2e/run.py --workload nat-hot --seed 7 --seconds 10 --trace 0

prints every end-to-end metric (``--trace 1``: every per-layer metric) by
name with its unit and ends with one JSON line.

The survey form — every workload, untraced then traced, one result set::

    python3 benchmarks/e2e/run.py [--seed N] [--seconds S] [--out set.json] [--repeat 2]

Each measurement runs in a child interpreter (``child.py``); a workload
whose child dies counts every frame as failed and the survey carries on.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from metricdefs import END_TO_END, PER_LAYER
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
DEFAULT_SEED = 20170821  # SIGCOMM '17 opened on this day
#: Fresh interpreters that only launch and warm up; with the measuring
#: child's own set-up, ``setup_s`` is the median of five.
EXTRA_SETUPS = 4
CHILD_TIMEOUT_S = 170


class ChildFailed(RuntimeError):
    pass


def spawn_child(workload: str, seed: int, seconds: float, *flags: str) -> Dict:
    """Run ``child.py`` to completion and return the object it printed."""
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        *flags,
    ]
    try:
        done = subprocess.run(
            command, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{workload}: child timed out") from exc
    if done.returncode != 0:
        raise ChildFailed(f"{workload}: child exited with {done.returncode}")
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise ChildFailed(f"{workload}: child printed no result") from exc


def measure(workload: str, seed: int, seconds: float, trace: bool) -> Dict:
    """One workload's metrics: end-to-end untraced, or per-layer traced."""
    if trace:
        child = spawn_child(workload, seed, seconds, "--trace", "1")
        metrics = {metric.name: 0.0 for metric in PER_LAYER}
        metrics.update(child["layer"])
    else:
        setups = [
            spawn_child(workload, seed, seconds, "--setup-only")["setup_s"]
            for _ in range(EXTRA_SETUPS)
        ]
        child = spawn_child(workload, seed, seconds)
        setups.append(child["setup_s"])
        metrics = {
            "fwd_pps": child["fwd_pps"],
            "probe_p50_us": child["probe_p50_us"],
            "delivered_share": 1.0 - child["failed"] / child["attempted"],
            "setup_s": statistics.median(setups),
            "peak_rss_mib": child["peak_rss_mib"],
        }
    return {
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
        "env": child["env"],
        "samples": {key: child[key] for key in ("segments", "probes")},
    }


def print_metrics(workload: str, metrics: Dict[str, float], definitions) -> None:
    for metric in definitions:
        value = metrics[metric.name]
        print(f"{workload:13s} {metric.name:28s} {value:>16.6g} {metric.unit}")


def contract_result(measurement: Dict, definitions) -> Dict:
    """The driver's shape: correct/attempted/failed/metrics, nothing else."""
    return {
        "correct": measurement["correct"],
        "attempted": measurement["attempted"],
        "failed": measurement["failed"],
        "metrics": {
            m.name: {"value": measurement["metrics"][m.name], "unit": m.unit}
            for m in definitions
        },
    }


# -- the survey ------------------------------------------------------------------

def _git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "-C", str(REPO), "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _dead_workload() -> Dict:
    """A workload that died: every frame failed, no other number claimed."""
    return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def survey(seed: int, seconds: float) -> Dict:
    """Every workload, untraced then traced."""
    result_set: Dict = {
        "meta": {
            "seed": seed,
            "seconds": seconds,
            "git_sha": _git_sha(),
            "started_unix": time.time(),
        },
        "workloads": {},
    }
    for workload in WORKLOADS:
        entry: Dict = {"path": f"no link: {workload.path}"}
        for trace, key, definitions in (
            (False, "end_to_end", END_TO_END),
            (True, "per_layer", PER_LAYER),
        ):
            try:
                measurement = measure(workload.name, seed, seconds, trace)
            except ChildFailed as failure:
                print(f"{workload.name}: {failure}", file=sys.stderr)
                measurement = _dead_workload()
            else:
                print_metrics(workload.name, measurement["metrics"], definitions)
                result_set["meta"].update(measurement["env"])
            entry[key] = measurement["metrics"]
            entry[f"{key}_frames"] = {
                "attempted": measurement["attempted"],
                "failed": measurement["failed"],
                **measurement.get("samples", {}),
            }
        if entry["per_layer"] and workload.path != "in-process":
            print(f"{workload.name}: worker-side layers are invisible from outside; "
                  "procrun.turn_wait_ns is the worker's whole turn")
        result_set["workloads"][workload.name] = entry
    return result_set


def fail_shares(result_set: Dict) -> Dict[str, float]:
    shares = {}
    for name, entry in result_set["workloads"].items():
        attempted = failed = 0
        for key in ("end_to_end_frames", "per_layer_frames"):
            attempted += entry[key]["attempted"]
            failed += entry[key]["failed"]
        shares[name] = failed / attempted
    return shares


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=[w.name for w in WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="survey: write the result set here")
    parser.add_argument("--repeat", type=int, default=1, choices=(1, 2),
                        help="survey: run the set twice and compare (check_repeat)")
    args = parser.parse_args(argv)

    if not (REPO / "src" / "repro").is_dir():
        print("run.py: no src/repro beside the benchmark; nothing to measure",
              file=sys.stderr)
        return 2

    if args.workload:
        definitions = PER_LAYER if args.trace else END_TO_END
        try:
            measurement = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        except ChildFailed as failure:
            print(f"run.py: {failure}", file=sys.stderr)
            return 1
        print_metrics(args.workload, measurement["metrics"], definitions)
        print(json.dumps(contract_result(measurement, definitions)))
        return 0

    sets = [survey(args.seed, args.seconds) for _ in range(args.repeat)]
    status = 0
    for result_set in sets:
        for name, share in fail_shares(result_set).items():
            print(f"{name:13s} fail_share {share:.6g}")
            status |= share > 0
    if args.out:
        for i, result_set in enumerate(sets):
            path = args.out if i == 0 else args.out.with_suffix(f".{i + 1}.json")
            path.write_text(json.dumps(result_set, indent=1) + "\n")
    if args.repeat == 2:
        from check_repeat import compare

        status |= compare(sets[0], sets[1]) > 0
    return status


if __name__ == "__main__":
    sys.exit(main())
