"""Isolation and teardown, checked where they happen: in a real child."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from child import Checker, fingerprints, mismatches

E2E = Path(__file__).resolve().parents[1]


def run_child(*args):
    done = subprocess.run(
        [sys.executable, str(E2E / "child.py"), "--seed", "2", "--seconds", "0.3", *args],
        stdout=subprocess.PIPE, text=True, timeout=170, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_child_leaves_no_wrapper_worker_or_ring_behind(trace):
    """The child raises on its way out if a wrapped attribute, a worker
    process or a /dev/shm ring of its own survives; check=True sees that."""
    rings_before = {n for n in os.listdir("/dev/shm") if n.startswith("repro-ring-")}
    result = run_child("--workload", "nat-proc", "--trace", trace)
    assert result["failed"] == 0 and result["attempted"] > 0
    assert {n for n in os.listdir("/dev/shm") if n.startswith("repro-ring-")} <= rings_before
    if trace == "1":
        assert result["layer"]["packets.parse_calls"] == 2.0
        assert result["layer"]["nat.compiled_hit_ratio"] == 0.0


def test_exact_counters_repeat_for_one_seed():
    first = run_child("--workload", "nat-churn", "--trace", "1")["layer"]
    second = run_child("--workload", "nat-churn", "--trace", "1")["layer"]
    from metricdefs import PER_LAYER

    for metric in PER_LAYER:
        if metric.exact:
            assert first[metric.name] == second[metric.name], metric.name
    assert first["nat.fastpath_hit_ratio"] < 0.10


def test_mismatches_counts_missing_extra_and_altered_frames():
    sent = fingerprints([(1, b"aa"), (1, b"bb"), (0, b"cc")])
    assert mismatches(sent, sent) == 0
    assert mismatches(sent, fingerprints([(1, b"aa"), (0, b"cc")])) == 1  # lost
    assert mismatches(sent, fingerprints([(1, b"aa"), (1, b"bb"), (1, b"cc")])) == 1  # wrong port
    assert mismatches(sent, fingerprints([(1, b"aa"), (1, b"bX"), (0, b"cc")])) == 1  # altered
    assert mismatches(sent, sent + fingerprints([(0, b"dd")])) == 1  # extra


def test_checker_holds_every_lap_to_the_warmup_lap_and_the_prefix_to_the_oracle():
    from workloads import LAP_BURSTS

    lap = [[(1, bytes([i]))] for i in range(LAP_BURSTS)]
    checker = Checker(stable=True, prefix_timed=2)
    for outputs in lap:
        checker.warmup_burst([(0, b"in")], outputs)
    checker.warmup_done()
    checker.timed_burst(0, [(0, b"in")], lap[0])
    checker.timed_burst(1, [(0, b"in")], [(1, b"wrong")])
    checker.timed_burst(LAP_BURSTS + 2, [(0, b"in")], lap[2])  # next lap, same burst
    assert (checker.offered, checker.failed) == (LAP_BURSTS + 3, 1)

    oracle = [fingerprints(outputs) for outputs in lap] + [fingerprints(lap[0])] * 2
    checker.against_oracle(oracle)
    assert checker.failed == 2  # the altered frame also differs from the oracle's
