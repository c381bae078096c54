"""The metrics registry: callback metrics, label families, snapshot merging."""

import pytest

from repro.obs.registry import (
    MERGE_MAX,
    SNAPSHOT_SCHEMA,
    MetricsRegistry,
    merge_snapshots,
)


def constant(value):
    return lambda: value


def test_counter_basics():
    """A counter is an int its owner bumps and the registry reads."""

    class Component:
        requests = 0

    component = Component()
    registry = MetricsRegistry()
    registry.counter_fn("requests_total", lambda: component.requests, "help")
    component.requests += 1
    component.requests += 4
    (metric,) = registry.snapshot()["metrics"]
    assert (metric["kind"], metric["merge"], metric["help"]) == (
        "counter",
        "sum",
        "help",
    )
    assert metric["samples"] == [{"labels": {}, "value": 5}]


def test_same_name_other_labels_is_another_sample():
    registry = MetricsRegistry()
    registry.counter_fn("x_total", constant(1), labels={"nf": "nat"})
    registry.counter_fn("x_total", constant(2), labels={"nf": "noop"})
    with pytest.raises(ValueError):
        registry.counter_fn("x_total", constant(3), labels={"nf": "nat"})
    (metric,) = registry.snapshot()["metrics"]
    assert [(s["labels"], s["value"]) for s in metric["samples"]] == [
        ({"nf": "nat"}, 1),
        ({"nf": "noop"}, 2),
    ]


def test_label_order_is_irrelevant():
    registry = MetricsRegistry()
    registry.gauge_fn("g", constant(1), labels={"a": "1", "b": "2"})
    with pytest.raises(ValueError, match="already has a child"):
        registry.gauge_fn("g", constant(2), labels={"b": "2", "a": "1"})


def test_kind_conflict_raises():
    registry = MetricsRegistry()
    registry.counter_fn("busy", constant(0))
    with pytest.raises(ValueError):
        registry.gauge_fn("busy", constant(0))


def test_callback_reregistration_raises():
    registry = MetricsRegistry()
    registry.counter_fn("cb_total", lambda: 1)
    with pytest.raises(ValueError):
        registry.counter_fn("cb_total", lambda: 2)


def test_callbacks_read_live_values():
    registry = MetricsRegistry()
    state = {"drops": 0}
    registry.counter_fn("drops_total", lambda: state["drops"])
    assert registry.snapshot()["metrics"][0]["samples"][0]["value"] == 0
    state["drops"] = 7
    assert registry.snapshot()["metrics"][0]["samples"][0]["value"] == 7


def test_snapshot_shape_and_ordering():
    registry = MetricsRegistry()
    registry.counter_fn("z_total", constant(1), "last")
    registry.gauge_fn("a_gauge", constant(3), "first", merge=MERGE_MAX)
    snapshot = registry.snapshot()
    assert snapshot["schema"] == SNAPSHOT_SCHEMA
    names = [m["name"] for m in snapshot["metrics"]]
    assert names == sorted(names)
    by_name = {m["name"]: m for m in snapshot["metrics"]}
    assert by_name["a_gauge"]["merge"] == "max"


def test_merge_snapshots_sums_counters_and_maxes_watermarks():
    def worker_snapshot(drops, high_water):
        registry = MetricsRegistry()
        registry.counter_fn("drops_total", constant(drops))
        registry.gauge_fn("pool_high_water", constant(high_water), merge=MERGE_MAX)
        return registry.snapshot()

    merged = merge_snapshots([worker_snapshot(3, 10), worker_snapshot(4, 7)])
    by_name = {m["name"]: m for m in merged["metrics"]}
    assert by_name["drops_total"]["samples"][0]["value"] == 7
    assert by_name["pool_high_water"]["samples"][0]["value"] == 10


def test_merge_snapshots_keeps_distinct_labels_apart():
    def labeled(worker, value):
        registry = MetricsRegistry()
        registry.counter_fn("x_total", constant(value), labels={"worker": worker})
        return registry.snapshot()

    merged = merge_snapshots([labeled("0", 1), labeled("1", 2)])
    samples = merged["metrics"][0]["samples"]
    assert [(s["labels"]["worker"], s["value"]) for s in samples] == [
        ("0", 1),
        ("1", 2),
    ]


class TestWithLabels:
    """Stamping identity labels at the source (repro.net.procrun's
    per-worker snapshots) so merges cannot silently sum gauges."""

    def _unlabeled(self, occupancy):
        registry = MetricsRegistry()
        registry.gauge_fn("flow_table_occupancy", constant(occupancy), "live flows")
        registry.counter_fn("packets_total", constant(10), "served")
        return registry.snapshot()

    def test_stamps_every_sample(self):
        from repro.obs.registry import with_labels

        stamped = with_labels(self._unlabeled(5), {"worker": "2"})
        for metric in stamped["metrics"]:
            for sample in metric["samples"]:
                assert sample["labels"]["worker"] == "2"

    def test_original_snapshot_untouched(self):
        from repro.obs.registry import with_labels

        original = self._unlabeled(5)
        with_labels(original, {"worker": "2"})
        for metric in original["metrics"]:
            for sample in metric["samples"]:
                assert "worker" not in sample["labels"]

    def test_colliding_unlabeled_gauges_would_sum(self):
        """The failure mode the stamp exists for: two workers' identical
        unlabeled snapshots merge into one summed gauge sample —
        5 flows + 7 flows reads as a 12-flow table that exists nowhere."""
        merged = merge_snapshots([self._unlabeled(5), self._unlabeled(7)])
        by_name = {m["name"]: m for m in merged["metrics"]}
        samples = by_name["flow_table_occupancy"]["samples"]
        assert len(samples) == 1
        assert samples[0]["value"] == 12  # the lie

    def test_stamped_gauges_stay_apart(self):
        from repro.obs.registry import with_labels

        merged = merge_snapshots(
            [
                with_labels(self._unlabeled(5), {"worker": "0"}),
                with_labels(self._unlabeled(7), {"worker": "1"}),
            ]
        )
        by_name = {m["name"]: m for m in merged["metrics"]}
        samples = by_name["flow_table_occupancy"]["samples"]
        values = {
            s["labels"]["worker"]: s["value"] for s in samples
        }
        assert values == {"0": 5, "1": 7}
        # Counters also stay attributable per worker.
        packet_samples = by_name["packets_total"]["samples"]
        assert len(packet_samples) == 2

    def test_conflicting_existing_label_raises(self):
        from repro.obs.registry import with_labels

        registry = MetricsRegistry()
        registry.counter_fn(
            "packets_total", constant(1), "served", labels={"worker": "3"}
        )
        snapshot = registry.snapshot()
        with pytest.raises(ValueError, match="worker"):
            with_labels(snapshot, {"worker": "4"})
        # Stamping the same value is a no-op, not a conflict.
        again = with_labels(snapshot, {"worker": "3"})
        assert again["metrics"][0]["samples"][0]["labels"]["worker"] == "3"

    def test_non_string_label_values_raise(self):
        from repro.obs.registry import with_labels

        with pytest.raises(ValueError):
            with_labels(self._unlabeled(1), {"worker": 2})
