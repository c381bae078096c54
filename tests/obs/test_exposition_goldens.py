"""The three renderings of a metrics snapshot, pinned byte for byte.

``repro metrics`` prints a snapshot as Prometheus text
(``render_prometheus``), as JSON (``render_json``) or as a table
(``render_metrics``), and ``--output`` writes the first two to files
(``write_snapshot_files``). Each case renders one snapshot all three
ways and holds each rendering to the SHA-256 of its bytes:

- ``sharded``: the threaded ``collect_sharded_metrics(workers=2)``
  snapshot, every sample of which is deterministic;
- ``escaped``: a hand-built snapshot whose label value needs escaping
  (``"``, ``\\``, newline), with a ``merge="max"`` gauge merged from two
  snapshots;
- ``empty``: the snapshot of an empty registry.

A digest that moves means what an operator reads changed. Print the
canonical digests with
``PYTHONPATH=src python -m tests.obs.test_exposition_goldens``.
"""

import functools
import hashlib

import pytest

from repro.eval.experiments import collect_sharded_metrics
from repro.eval.reporting import render_metrics
from repro.obs.expo import render_json, render_prometheus, write_snapshot_files
from repro.obs.registry import MERGE_MAX, MetricsRegistry, merge_snapshots


def escaped_snapshot():
    def worker(high_water, drops):
        registry = MetricsRegistry()
        registry.gauge_fn(
            "pool_high_water",
            lambda: high_water,
            'the "worst" pool',
            merge=MERGE_MAX,
        )
        registry.counter_fn(
            "drops_total",
            lambda: drops,
            "drops\\by cause",
            labels={"cause": 'say "no"\\\nthen\tdrop'},
        )
        return registry.snapshot()

    return merge_snapshots([worker(10, 3), worker(7, 4)])


@functools.lru_cache(maxsize=None)
def sharded_snapshot():
    return collect_sharded_metrics(workers=2)


CASES = {
    "sharded": sharded_snapshot,
    "escaped": escaped_snapshot,
    "empty": lambda: MetricsRegistry().snapshot(),
}

RENDERERS = {
    "prom": render_prometheus,
    "json": render_json,
    "table": render_metrics,
}

#: SHA-256 of each case's renderings, as UTF-8 bytes.
GOLDEN = {
    "empty": {
        "json": "95d1f492cd593bd3315f62ad89b232cc6600605477521ab5dc0a63d67f5cbc79",
        "prom": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "table": "786912cfed60a6edf9b5dedde71f4cb6ec31cf25e54f21597524a5165b5656ba",
    },
    "escaped": {
        "json": "27dfc6678c0eff08f6b923c88e0736a48249e86d9a86835ac067876cc61f5296",
        "prom": "73476f0edf3bfbd2588db24f2e4627fabf13c85f4964fca980bab2fd3ee6515b",
        "table": "2766663adde3107cd59c765e3b07c453a2a7caaea58ab424be7ba1dc010d0157",
    },
    "sharded": {
        "json": "d895ba54b6573a0de2807a4eb7f10c1beb4390c71c990a929220cb33ff66e674",
        "prom": "238e65d186c3dc447ebbbfa2de514088d4bed04337f43b8ff7e176bdb786473c",
        "table": "9ae2ae38d689bfb45d28c42e9a3e66b2642e03ba3c511b2a0a08a2a95b33a531",
    },
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("rendering", sorted(RENDERERS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_rendering_matches_golden(case, rendering):
    text = RENDERERS[rendering](CASES[case]())
    assert digest(text) == GOLDEN[case][rendering], text


@pytest.mark.parametrize("case", sorted(CASES))
def test_snapshot_files_hold_the_renderings(case, tmp_path):
    snapshot = CASES[case]()
    paths = write_snapshot_files(snapshot, tmp_path / "out", "metrics")
    assert paths == {
        "json": str(tmp_path / "out" / "metrics.metrics.json"),
        "prom": str(tmp_path / "out" / "metrics.prom"),
    }
    for rendering, path in paths.items():
        with open(path, encoding="utf-8") as handle:
            assert digest(handle.read()) == GOLDEN[case][rendering]


def test_the_cases_exercise_what_they_pin():
    """The sharded case has both kinds and both workers, the escaped case
    merged its max gauge to the larger value and escaped its label, and
    the empty case renders no series."""
    sharded = CASES["sharded"]()
    assert {m["kind"] for m in sharded["metrics"]} == {"counter", "gauge"}
    samples = [s for m in sharded["metrics"] for s in m["samples"]]
    assert {s["labels"].get("worker") for s in samples} >= {"0", "1"}
    escaped = CASES["escaped"]()
    by_name = {m["name"]: m for m in escaped["metrics"]}
    assert by_name["pool_high_water"]["samples"] == [{"labels": {}, "value": 10}]
    assert by_name["drops_total"]["samples"][0]["value"] == 7
    assert 'cause="say \\"no\\"\\\\\\nthen\tdrop"' in render_prometheus(escaped)
    assert render_prometheus(CASES["empty"]()) == ""


if __name__ == "__main__":
    for case in sorted(CASES):
        print(f'"{case}": {{')
        for rendering in sorted(RENDERERS):
            text = RENDERERS[rendering](CASES[case]())
            print(f'    "{rendering}": "{digest(text)}",')
        print("},")
