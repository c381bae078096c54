"""The metrics registry: named callback instruments, label sets, snapshots.

Design rules, in the spirit of DPDK xstats and the Prometheus client
data model, sized for a simulated data path:

- **A counter is an int someone reads.** Components (the mbuf pool, NIC
  ports, the runtimes, the NFs, the microflow cache) keep their counts
  as ordinary attributes and bump them however their hot loop likes —
  locally per burst, once per packet; the registry never sees a write.
- **Collection pulls, it is never pushed.** ``register_metrics`` hands
  the registry a *callback* per metric (``counter_fn`` / ``gauge_fn`` /
  ``histogram_fn``) and the value is read at snapshot time — wiring the
  telemetry layer through the stack adds zero work per packet, enabled
  or not. There is no second kind of instrument.
- **Merging is explicit.** Counters and histograms merge by addition;
  each gauge declares its merge strategy (``sum`` for occupancy-like
  values, ``max`` for watermark-like values such as the pool
  high-water mark, which is not additive across workers).

Snapshots are plain dicts (the JSON schema shared with ``BENCH_*.json``
files); :mod:`repro.obs.expo` renders them as Prometheus text.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.histogram import LatencyHistogram

SNAPSHOT_SCHEMA = "repro-obs/v1"

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"

#: Gauge merge strategies.
MERGE_SUM = "sum"
MERGE_MAX = "max"

LabelValues = Tuple[str, ...]


class _Family:
    """One named metric: kind, help text, and one callback per label set."""

    __slots__ = ("name", "kind", "help", "merge", "children")

    def __init__(self, name: str, kind: str, help_text: str, merge: str):
        self.name = name
        self.kind = kind
        self.help = help_text
        self.merge = merge
        self.children: Dict[LabelValues, Callable[[], object]] = {}


def _label_key(labels: Optional[Dict[str, str]]) -> LabelValues:
    if not labels:
        return ()
    return tuple(f"{k}={labels[k]}" for k in sorted(labels))


def _key_labels(key: LabelValues) -> Dict[str, str]:
    return dict(pair.split("=", 1) for pair in key)


class MetricsRegistry:
    """A namespace of callback metrics, snapshottable and mergeable.

    Labels are passed per call site as plain dicts; children are keyed
    by their sorted label items, so ``{"worker": "0", "port": "1"}`` and
    ``{"port": "1", "worker": "0"}`` address the same child.
    """

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}

    # -- registration ------------------------------------------------------
    def counter_fn(
        self,
        name: str,
        fn: Callable[[], float],
        help_text: str = "",
        labels: Optional[Dict[str, str]] = None,
    ) -> None:
        """A counter whose value is pulled from ``fn`` at snapshot time."""
        self._callback(name, COUNTER, MERGE_SUM, fn, help_text, labels)

    def gauge_fn(
        self,
        name: str,
        fn: Callable[[], float],
        help_text: str = "",
        labels: Optional[Dict[str, str]] = None,
        merge: str = MERGE_SUM,
    ) -> None:
        """A gauge whose value is pulled from ``fn`` at snapshot time."""
        self._callback(name, GAUGE, merge, fn, help_text, labels)

    def histogram_fn(
        self,
        name: str,
        fn: Callable[[], LatencyHistogram],
        help_text: str = "",
        labels: Optional[Dict[str, str]] = None,
    ) -> None:
        """A histogram pulled from ``fn`` (a LatencyHistogram) on collect."""
        self._callback(name, HISTOGRAM, MERGE_SUM, fn, help_text, labels)

    def _callback(self, name, kind, merge, fn, help_text, labels):
        family = self._families.get(name)
        if family is None:
            family = self._families[name] = _Family(name, kind, help_text, merge)
        elif family.kind != kind:
            raise ValueError(
                f"metric {name!r} is a {family.kind}, not a {kind}"
            )
        key = _label_key(labels)
        if key in family.children:
            raise ValueError(
                f"metric {name!r} already has a child for labels {key}"
            )
        family.children[key] = fn

    # -- collection ---------------------------------------------------------
    def snapshot(self) -> Dict:
        """The registry's current state as the shared JSON schema."""
        metrics: List[Dict] = []
        for name in sorted(self._families):
            family = self._families[name]
            samples: List[Dict] = []
            for key in sorted(family.children):
                value = family.children[key]()
                sample: Dict = {"labels": _key_labels(key)}
                if family.kind == HISTOGRAM:
                    sample["histogram"] = value.to_dict()
                else:
                    sample["value"] = value
                samples.append(sample)
            metrics.append(
                {
                    "name": family.name,
                    "kind": family.kind,
                    "help": family.help,
                    "merge": family.merge,
                    "samples": samples,
                }
            )
        return {"schema": SNAPSHOT_SCHEMA, "metrics": metrics}


def with_labels(snapshot: Dict, extra: Dict[str, str]) -> Dict:
    """A copy of ``snapshot`` with ``extra`` labels stamped on every sample.

    This is the cross-process merge guard: :func:`merge_snapshots`
    combines same-name same-label samples, so two workers that each
    collected an *unlabeled* snapshot of their private runtime would
    silently sum (or max) into one sample on merge. Stamping a
    ``worker`` label at the source keeps their samples distinct forever
    after. A sample that already carries one of ``extra``'s keys with a
    *different* value raises — relabeling would silently rewrite
    someone else's identity.
    """
    for key, value in extra.items():
        if not isinstance(value, str):
            raise ValueError(f"label {key!r} must be a string, got {value!r}")
    metrics: List[Dict] = []
    for metric in snapshot.get("metrics", []):
        copied = dict(metric)
        samples: List[Dict] = []
        for sample in metric.get("samples", []):
            labels = dict(sample.get("labels", {}))
            for key, value in extra.items():
                if key in labels and labels[key] != value:
                    raise ValueError(
                        f"sample of {metric['name']!r} already has "
                        f"{key}={labels[key]!r}; refusing to relabel to {value!r}"
                    )
                labels[key] = value
            restamped = dict(sample)
            restamped["labels"] = labels
            samples.append(restamped)
        copied["samples"] = samples
        metrics.append(copied)
    return {"schema": snapshot.get("schema", SNAPSHOT_SCHEMA), "metrics": metrics}


def merge_snapshots(snapshots: Sequence[Dict]) -> Dict:
    """Merge snapshots into one: same-name same-label samples combine.

    Counters and histograms add; gauges follow their declared merge
    strategy (``sum`` by default, ``max`` for watermarks). Samples with
    distinct label sets stay distinct — merging two workers' snapshots
    keeps per-worker samples apart unless they share labels.
    """
    merged: Dict[str, Dict] = {}
    for snapshot in snapshots:
        for metric in snapshot.get("metrics", []):
            name = metric["name"]
            target = merged.get(name)
            if target is None:
                target = merged[name] = {
                    "name": name,
                    "kind": metric["kind"],
                    "help": metric.get("help", ""),
                    "merge": metric.get("merge", MERGE_SUM),
                    "samples": [],
                }
            elif target["kind"] != metric["kind"]:
                raise ValueError(
                    f"metric {name!r} has conflicting kinds: "
                    f"{target['kind']} vs {metric['kind']}"
                )
            by_labels = {
                _label_key(s["labels"]): s for s in target["samples"]
            }
            for sample in metric["samples"]:
                key = _label_key(sample["labels"])
                existing = by_labels.get(key)
                if existing is None:
                    copied = dict(sample)
                    copied["labels"] = dict(sample["labels"])
                    target["samples"].append(copied)
                    by_labels[key] = copied
                    continue
                if target["kind"] == HISTOGRAM:
                    combined = LatencyHistogram.from_dict(
                        existing["histogram"]
                    ).merge(LatencyHistogram.from_dict(sample["histogram"]))
                    existing["histogram"] = combined.to_dict()
                elif (
                    target["kind"] == GAUGE
                    and target["merge"] == MERGE_MAX
                ):
                    existing["value"] = max(existing["value"], sample["value"])
                else:
                    existing["value"] = existing["value"] + sample["value"]
    metrics = [merged[name] for name in sorted(merged)]
    for metric in metrics:
        metric["samples"].sort(key=lambda s: _label_key(s["labels"]))
    return {"schema": SNAPSHOT_SCHEMA, "metrics": metrics}


__all__ = [
    "COUNTER",
    "GAUGE",
    "HISTOGRAM",
    "MERGE_MAX",
    "MERGE_SUM",
    "SNAPSHOT_SCHEMA",
    "MetricsRegistry",
    "merge_snapshots",
    "with_labels",
]
