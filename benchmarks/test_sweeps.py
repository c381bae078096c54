"""The seven sweeps, run from their descriptions (repro.eval.sweeps).

One parametrised test: run the sweep on the ``REPRO_EVAL_SCALE`` grid,
publish its table, metrics snapshot and ``BENCH_*.json`` under
``benchmarks/results/``, then require every claim of the description to
hold on the records just written — the same ``claims`` function
``repro experiments <sweep>`` prints and ``compare_bench.py`` applies
to the files. The sweep's ``run`` returns the records, and everything
here takes them as returned. What one run's records cannot show (a
second sweep run to compare against) or no claim gates (raw counters,
the wall clock of a control action) stays below as a per-sweep extra.
"""

import json
import math

import pytest

from benchmarks.conftest import RESULTS_DIR, scale
from repro.eval.experiments import burst_size_sweep, failover_sweep
from repro.eval.sweeps import SWEEPS
from repro.obs import merge_snapshots


def _write_fastpath_divergence(records) -> None:
    """Persist first-divergence wire bytes for the CI failure artifact.

    An all-identical sweep leaves a one-line marker instead, so the CI
    step can upload unconditionally.
    """
    sections = []
    for record in records:
        for axis, field in (
            ("object-path cache", "divergence"),
            ("wire-backed", "wire_divergence"),
        ):
            if record[field] is not None:
                sections.append(
                    f"== {record['nf']} @ {record['flow_count']} flows ({axis}) ==\n"
                    + record[field]
                )
    text = "\n\n".join(sections) if sections else (
        "no divergence: every replay byte-identical at every point"
    )
    (RESULTS_DIR / "fastpath_divergence.txt").write_text(text + "\n")


def _shard_extra(records, grid):
    # workers=1 is byte-identical to the burst-mode data path: sharding
    # is a strict superset of it, not a reinterpretation.
    burst_records = burst_size_sweep(
        burst_sizes=(records[0]["burst_size"],), packet_count=grid["packet_count"]
    )
    single = {r["nf"]: r for r in records if r["workers"] == 1}
    for burst_record in burst_records:
        assert (
            single[burst_record["nf"]]["per_packet_busy_ns"]
            == burst_record["per_packet_busy_ns"]
        ), burst_record["nf"]


def _failover_extra(records, grid):
    # With the fast path on, a rebuilt shard's cache starts empty and its
    # recovered flows learn again on their next packets: the probe after
    # a synchronous recovery still loses nothing. (That each recovered
    # flow learns exactly once is tests/resil/test_failover.py's
    # test_promotion_starts_the_cache_cold.)
    cached_records = failover_sweep(
        lags=(0,), flow_count=min(64, grid["flow_count"]), fastpath="compiled"
    )
    for record in cached_records:
        assert record["flows_recovered"] > 0, record["nf"]
        assert record["probe_delivered"] == record["probe_offered"], record


def _procs_extra(records, grid):
    # The NF actually processed the schedule in every worker.
    for record in records:
        assert sum(record["counters"].values()) > 0, record


def _chain_extra(records, grid):
    # Reported, never gated — but the upgrade must have been timed.
    upgrade = next(r for r in records if r["scenario"] == "warm-upgrade")
    assert upgrade["action_wall_us"] > 0


EXTRAS = {
    "shard": _shard_extra,
    "failover": _failover_extra,
    "procs": _procs_extra,
    "chain": _chain_extra,
}


@pytest.mark.parametrize("name", list(SWEEPS))
def test_sweep(name, benchmark, publish, publish_snapshot):
    sweep = SWEEPS[name]
    grid = sweep.grids[scale()]
    records = benchmark.pedantic(
        lambda: sweep.run(**grid), rounds=1, iterations=1
    )
    publish(f"{name}_sweep", sweep.render(records))
    publish_snapshot(
        f"{name}_sweep", merge_snapshots([sweep.snapshot(r) for r in records])
    )
    if sweep.bench_file:
        (RESULTS_DIR / sweep.bench_file).write_text(
            json.dumps(records, indent=2) + "\n"
        )
    if name == "fastpath":
        _write_fastpath_divergence(records)
    # Evidence before judgment: everything is on disk before the first
    # assert can end the test.

    assert sweep.claims(records) == []

    # The grid came out whole: one record per cell of the cross product
    # of the key fields' values.
    keys = [sweep.key_of(r) for r in records]
    assert len(set(keys)) == len(keys)
    assert len(keys) == math.prod(len(set(axis)) for axis in zip(*keys)), keys

    if name in EXTRAS:
        EXTRAS[name](records, grid)
