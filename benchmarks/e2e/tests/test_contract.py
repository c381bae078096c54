"""BENCHMARK.json, metricdefs, the README and the printed output name one set."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import run
from metricdefs import END_TO_END, LEDGER_LIMITS, PER_LAYER
from workloads import WORKLOADS

E2E = Path(__file__).resolve().parents[1]
SPEC = json.loads((E2E.parents[1] / "BENCHMARK.json").read_text())
README = (E2E / "README.md").read_text()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_has_exactly_the_contract_keys():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert SPEC["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60


def test_workloads_match_and_say_why():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS
    ]
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert NAME.fullmatch(workload["name"])
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200


def test_end_to_end_metrics_match_with_unit_direction_and_bound():
    assert SPEC["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    for metric in END_TO_END:
        assert metric.bound is not None and 0 < metric.bound <= 0.25
    (setup,) = [m for m in END_TO_END if m.name == "setup_s"]
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in END_TO_END)


def test_per_layer_metrics_match_with_unit_and_direction():
    assert SPEC["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]
    assert len(PER_LAYER) <= 128
    assert set(LEDGER_LIMITS) <= {m.name for m in PER_LAYER}


def test_every_name_and_unit_is_well_formed_and_used_once():
    metrics = END_TO_END + PER_LAYER
    names = [m.name for m in metrics] + [w.name for w in WORKLOADS]
    assert len(names) == len(set(names))
    for metric in metrics:
        assert NAME.fullmatch(metric.name), metric.name
        assert UNIT.fullmatch(metric.unit), metric.unit
        assert metric.better in ("lower", "higher")


def test_readme_glossary_names_the_same_workloads_and_metrics():
    documented = set(re.findall(r"^\| `([^`]+)` \|", README, flags=re.MULTILINE))
    expected = {m.name for m in END_TO_END + PER_LAYER} | {w.name for w in WORKLOADS}
    assert documented == expected


@pytest.mark.parametrize("trace, definitions", [(0, END_TO_END), (1, PER_LAYER)])
def test_printed_output_and_last_line_carry_exactly_the_defined_metrics(trace, definitions):
    done = subprocess.run(
        [sys.executable, str(E2E / "run.py"), "--workload", "noop-64",
         "--seed", "1", "--seconds", "0.5", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=170, check=True,
    )
    *table, last = done.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m.name: m.unit for m in definitions}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    printed = {line.split()[1]: line.split()[-1] for line in table}
    assert printed == expected


def test_a_workload_that_dies_fails_every_frame_and_the_survey_carries_on(monkeypatch):
    def spawn(workload, seed, seconds, *flags):
        if workload == "nat-proc":
            raise run.ChildFailed("nat-proc: child exited with 1")
        return {
            "setup_s": 0.1, "fwd_pps": 1.0, "probe_p50_us": 1.0, "peak_rss_mib": 1.0,
            "attempted": 10, "failed": 0, "layer": {}, "env": {}, "segments": 1, "probes": 25,
        }

    monkeypatch.setattr(run, "spawn_child", spawn)
    shares = run.fail_shares(run.survey(seed=1, seconds=0.1))
    assert shares.pop("nat-proc") == 1.0
    assert set(shares.values()) == {0.0} and len(shares) == len(WORKLOADS) - 1
