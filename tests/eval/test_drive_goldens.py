"""What every schedule ``repro.eval`` drives through a launched runtime
produces, pinned field by field.

Three drivers feed a runtime over a schedule: the failover sweep's
establish/steady/probe phases, the procs sweep's differential pass and
``collect_sharded_metrics``. Each case runs one small cell of one of
them and holds every record field that does not read a wall clock to a
golden:

- a failover cell: both replicable NFs, lags 0 and 8, 96 flows, every
  field but ``recovery_us`` (the measured rebuild time);
- the procs sweep at 1 and 2 workers on both transports, one timed
  pass: ``identical`` and ``counters`` with the cell's keys (``cores``
  reads the machine, ``replay_pps``, ``speedup_vs_1``, ``transport_ns``
  and ``metrics`` the clock);
- every sample of ``collect_sharded_metrics(workers=2)`` on the threaded
  runtime.

A golden that moves means a driver now turns differently: which frames
share a turn, or at what time. Print the canonical values with
``PYTHONPATH=src python -m tests.eval.test_drive_goldens``.
"""

import functools
import hashlib
import json

import pytest

from repro.eval.experiments import (
    collect_sharded_metrics,
    failover_sweep,
    procs_sweep,
)


def _samples(snapshot):
    """A snapshot's samples as ``{"name{label=value,...}": value}``."""
    flat = {}
    for metric in snapshot["metrics"]:
        for sample in metric["samples"]:
            labels = ",".join(f"{k}={v}" for k, v in sorted(sample["labels"].items()))
            flat[f"{metric['name']}{{{labels}}}"] = sample["value"]
    return flat


@functools.lru_cache(maxsize=None)
def failover_cells():
    records = failover_sweep(lags=(0, 8), flow_count=96)
    return [
        dict(
            {k: v for k, v in record.items() if k not in ("recovery_us", "metrics")},
            metrics=_samples(record["metrics"]),
        )
        for record in records
    ]


@functools.lru_cache(maxsize=None)
def procs_cells():
    records = procs_sweep(worker_counts=(1, 2), packet_count=2_000, repeats=1)
    keys = ("nf", "transport", "workers", "packets", "identical", "counters")
    return [{key: record[key] for key in keys} for record in records]


@functools.lru_cache(maxsize=None)
def sharded_samples():
    return _samples(collect_sharded_metrics(workers=2))


CASES = {
    "failover": failover_cells,
    "procs": procs_cells,
    "sharded_metrics": sharded_samples,
}

#: SHA-256 of each case's canonical JSON (sorted keys, no spaces).
GOLDEN = {
    "failover": "1a114f84881c2fe964946fd1fa3636a1e2fcbaee0743cf524666cad3d500479e",
    "procs": "9c29f8d40b13e5cde746181d1106548404ca4e3343a91e13176cf09f4e847a4f",
    "sharded_metrics": "930d8f53ef6679f6060e22faea1cfae3bd121c9d3f710351da365489e83a2003",
}


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("case", sorted(CASES))
def test_driver_records_match_golden(case):
    text = canonical(CASES[case]())
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == GOLDEN[case], text


def test_the_cells_exercise_what_they_pin():
    """The goldens are not of degenerate runs: the kill lost queued
    frames, lag 0 lost no flow, and the process fleet matched the
    oracle in every procs cell."""
    failover = failover_cells()
    assert {(cell["nf"], cell["lag"]) for cell in failover} == {
        (nf, lag) for nf in ("unverified-nat", "verified-nat") for lag in (0, 8)
    }
    assert all(cell["packets_lost_queue"] > 0 for cell in failover)
    assert all(cell["flows_lost"] == 0 for cell in failover if cell["lag"] == 0)
    assert all(cell["identical"] for cell in procs_cells())


if __name__ == "__main__":
    for name in sorted(CASES):
        text = canonical(CASES[name]())
        print(f'"{name}": "{hashlib.sha256(text.encode("utf-8")).hexdigest()}",')
        print(text)
