"""``repro.obs`` — the unified observability layer.

Three pieces (see ``docs/OBSERVABILITY.md``):

- :mod:`repro.obs.registry` — a metrics registry of named, labeled
  counters, gauges and histograms. Components keep their counts as
  ordinary ints and expose them through *callbacks* read at snapshot
  time, so the wiring costs nothing per packet.
- :mod:`repro.obs.histogram` — log2-bucketed latency histograms with
  exact, associative merging (per-worker → box-wide) and monotone
  percentile extraction (p50/p99/p99.9).
- :mod:`repro.obs.flight` — a bounded flight-recorder ring of
  per-packet trace events (rx/steer/slow-path/fastpath-hit/tx/drop
  with reason codes) that dumps the last N events, captured packets
  as pcap.

**The module-level recorder.** Per-packet *event* observability (trace
events into the flight recorder) routes through one module-level
recorder. By default it is the no-op recorder: ``recorder().active``
is False and data paths skip their trace calls entirely, so a sweep
with observability off is byte-identical to one with the layer never
imported. ``enable_observability()`` (or ``REPRO_OBS=1`` in the
environment; ``0``, ``false``, ``no``, ``off`` or empty, in any case,
leave it off) swaps in a live recorder with a flight-recorder ring.

Structural metrics (pool, NIC, runtime, fastpath, flow table) do not
depend on the recorder at all: they are collected by *snapshotting* a
component, which registers callback instruments and reads them once —
enabled or not, the hot path is untouched.
"""

from __future__ import annotations

import os
from typing import Optional, Union

from repro.obs.expo import (
    render_json,
    render_prometheus,
    sample_value,
    total_value,
    write_snapshot_files,
)
from repro.obs.flight import (
    FlightRecorder,
    TraceDiff,
    TraceEvent,
    first_divergence,
)
from repro.obs.histogram import LatencyHistogram
from repro.obs.registry import (
    MERGE_MAX,
    MERGE_SUM,
    SNAPSHOT_SCHEMA,
    MetricsRegistry,
    merge_snapshots,
    with_labels,
)


class Recorder:
    """A live event recorder: trace events flow into a flight ring."""

    active = True

    def __init__(self, ring_capacity: int = 1024) -> None:
        self.flight = FlightRecorder(ring_capacity)

    def trace(
        self,
        stage: str,
        t_us: int = 0,
        worker: int = 0,
        reason: str = "",
        detail: Union[str, int] = "",
        wire: Optional[bytes] = None,
    ) -> None:
        self.flight.record(
            stage, t_us=t_us, worker=worker, reason=reason, detail=detail, wire=wire
        )


class _NullRecorder:
    """The default: every observation is a no-op, ``active`` is False.

    Data paths check ``recorder().active`` once per burst and skip all
    trace calls when it is off, so disabled observability costs one
    attribute read per burst — nothing per packet.
    """

    active = False
    flight = None

    def trace(self, *args, **kwargs) -> None:
        pass


NULL_RECORDER = _NullRecorder()
_RECORDER = NULL_RECORDER


def recorder():
    """The module-level recorder (the no-op recorder unless enabled)."""
    return _RECORDER


def observability_enabled() -> bool:
    return _RECORDER.active


def enable_observability(ring_capacity: int = 1024) -> Recorder:
    """Swap in a live recorder; returns it (idempotent per call)."""
    global _RECORDER
    _RECORDER = Recorder(ring_capacity)
    return _RECORDER


def disable_observability() -> None:
    """Restore the no-op recorder."""
    global _RECORDER
    _RECORDER = NULL_RECORDER


_SWITCH = os.environ.get("REPRO_OBS", "").strip().lower()
if _SWITCH not in ("", "0", "false", "no", "off"):
    enable_observability()


def snapshot_of_counters(
    counters, *, labels=None, prefix: str = "", help_text: str = ""
):
    """A one-off snapshot from a flat ``{name: value}`` counter dict.

    Convenience for publishing legacy ``op_counters()``-style mappings
    (the sweeps' per-point counters) in the shared snapshot schema.
    """
    registry = MetricsRegistry()
    for name, value in counters.items():
        registry.counter_fn(
            f"{prefix}{name}", lambda v=value: v, help_text, labels
        )
    return registry.snapshot()


__all__ = [
    "FlightRecorder",
    "LatencyHistogram",
    "MERGE_MAX",
    "MERGE_SUM",
    "MetricsRegistry",
    "NULL_RECORDER",
    "Recorder",
    "SNAPSHOT_SCHEMA",
    "TraceDiff",
    "TraceEvent",
    "disable_observability",
    "enable_observability",
    "first_divergence",
    "merge_snapshots",
    "with_labels",
    "observability_enabled",
    "recorder",
    "render_json",
    "render_prometheus",
    "sample_value",
    "snapshot_of_counters",
    "total_value",
    "write_snapshot_files",
]
