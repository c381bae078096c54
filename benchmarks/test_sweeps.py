"""The seven sweeps, run from their descriptions (repro.eval.sweeps).

One parametrised test: run the sweep on the ``REPRO_EVAL_SCALE`` grid,
publish its table, metrics snapshot and ``BENCH_*.json`` under
``benchmarks/results/``, then require every claim of the description to
hold on the records just written — the same ``claims`` function
``repro experiments <sweep>`` prints and ``compare_bench.py`` applies
to the files. What a record does not carry (a second sweep run to
compare against, a point's raw counters, wall-clock of a control
action) stays below as a per-sweep extra.
"""

import json
import math

import pytest

from benchmarks.conftest import RESULTS_DIR, scale
from repro.eval.experiments import burst_size_sweep, failover_sweep
from repro.eval.sweeps import SWEEPS
from repro.obs import merge_snapshots


def _write_fastpath_divergence(points) -> None:
    """Persist first-divergence wire bytes for the CI failure artifact.

    An all-identical sweep leaves a one-line marker instead, so the CI
    step can upload unconditionally.
    """
    sections = []
    for point in points:
        for axis, diff in (
            ("object-path cache", point.divergence),
            ("wire-backed", point.wire_divergence),
        ):
            if diff is not None:
                sections.append(
                    f"== {point.nf} @ {point.flow_count} flows ({axis}) ==\n"
                    + diff.render()
                )
    text = "\n\n".join(sections) if sections else (
        "no divergence: every replay byte-identical at every point"
    )
    (RESULTS_DIR / "fastpath_divergence.txt").write_text(text + "\n")


def _shard_extra(points, grid):
    # workers=1 is byte-identical to the burst-mode data path: sharding
    # is a strict superset of it, not a reinterpretation.
    burst_points = burst_size_sweep(
        burst_sizes=(points[0].burst_size,), packet_count=grid["packet_count"]
    )
    single = {p.nf: p for p in points if p.workers == 1}
    for burst_point in burst_points:
        assert (
            single[burst_point.nf].per_packet_busy_ns
            == burst_point.per_packet_busy_ns
        ), burst_point.nf


def _failover_extra(points, grid):
    # A promoted standby with the fast path on must not serve its first
    # packets cold: promotion rebuilds both directions of every
    # recovered flow into the cache.
    warm_points = failover_sweep(
        lags=(0,), flow_count=min(64, grid["flow_count"]), fastpath="compiled"
    )
    for point in warm_points:
        assert point.flows_recovered > 0, point.nf
        assert point.fastpath_warmed == 2 * point.flows_recovered, (
            point.nf,
            point.fastpath_warmed,
            point.flows_recovered,
        )


def _procs_extra(points, grid):
    # The NF actually processed the schedule in every worker.
    for point in points:
        assert sum(point.counters.values()) > 0, (point.nf, point.workers)


def _chain_extra(reports, grid):
    # Reported, never gated — but the upgrade must have been timed.
    upgrade = next(r for r in reports if r.scenario == "warm-upgrade")
    assert upgrade.action_wall_us > 0


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
    points = benchmark.pedantic(
        lambda: sweep.run(**grid), rounds=1, iterations=1
    )
    publish(f"{name}_sweep", sweep.render(points))
    publish_snapshot(
        f"{name}_sweep", merge_snapshots([sweep.snapshot(p) for p in points])
    )
    records = [sweep.record(p) for p in points]
    if sweep.bench_file:
        (RESULTS_DIR / sweep.bench_file).write_text(
            json.dumps(records, indent=2) + "\n"
        )
    if name == "fastpath":
        _write_fastpath_divergence(points)
    # Evidence before judgment: everything is on disk before the first
    # assert can end the test.

    assert sweep.claims(records) == []

    # The grid came out whole: one record per cell of the cross product
    # of the key fields' values.
    keys = [sweep.key_of(r) for r in records]
    assert len(set(keys)) == len(keys)
    assert len(keys) == math.prod(len(set(axis)) for axis in zip(*keys)), keys

    if name in EXTRAS:
        EXTRAS[name](points, grid)
