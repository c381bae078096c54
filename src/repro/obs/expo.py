"""Exposition: render metric snapshots as Prometheus text or JSON.

The Prometheus text format is the lingua franca of NF telemetry (DPDK's
telemetry socket, sonic-mgmt's counter polling, every scrape pipeline);
rendering our snapshots in it means any standard tooling can consume a
sweep's metrics without bespoke parsing. The JSON form is the snapshot
dict itself (schema ``repro-obs/v1``), the same shape embedded in
``BENCH_*.json`` benchmark records.
"""

from __future__ import annotations

import json
import re
from typing import Dict, List

from repro.obs.registry import COUNTER, GAUGE

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_RE = re.compile(r"[^a-zA-Z0-9_]")


def _metric_name(name: str) -> str:
    name = _NAME_RE.sub("_", name)
    if name and name[0].isdigit():
        name = "_" + name
    return name


def _label_pairs(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{_LABEL_RE.sub("_", key)}="{_escape(str(value))}"'
        for key, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def render_prometheus(snapshot: Dict) -> str:
    """The snapshot in the Prometheus text exposition format.

    Metric names pass through (they already carry their unit/suffix
    conventions), and each sample is one line, exactly as a scrape
    endpoint would serve it.
    """
    lines: List[str] = []
    for metric in snapshot.get("metrics", []):
        name = _metric_name(metric["name"])
        kind = metric["kind"]
        if metric.get("help"):
            lines.append(f"# HELP {name} {_escape(metric['help'])}")
        lines.append(f"# TYPE {name} {kind}")
        for sample in metric["samples"]:
            lines.append(
                f"{name}{_label_pairs(sample.get('labels', {}))} "
                f"{_format_value(sample['value'])}"
            )
    return "\n".join(lines) + ("\n" if lines else "")


def render_json(snapshot: Dict, indent: int = 2) -> str:
    """The snapshot as pretty JSON (the ``repro-obs/v1`` schema)."""
    return json.dumps(snapshot, indent=indent, sort_keys=False) + "\n"


def write_snapshot_files(snapshot: Dict, directory, stem: str) -> Dict[str, str]:
    """Persist a snapshot as ``<stem>.metrics.json`` + ``<stem>.prom``."""
    import pathlib

    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    json_path = directory / f"{stem}.metrics.json"
    prom_path = directory / f"{stem}.prom"
    json_path.write_text(render_json(snapshot))
    prom_path.write_text(render_prometheus(snapshot))
    return {"json": str(json_path), "prom": str(prom_path)}


def sample_value(snapshot: Dict, name: str, labels: Dict[str, str] | None = None):
    """Look one sample's value up in a snapshot.

    Returns None when the metric or label set is absent — convenient
    for tests and for the benchmark-regression comparator.
    """
    wanted = dict(labels or {})
    for metric in snapshot.get("metrics", []):
        if metric["name"] != name:
            continue
        for sample in metric["samples"]:
            if sample.get("labels", {}) == wanted:
                return sample["value"]
    return None


__all__ = [
    "COUNTER",
    "GAUGE",
    "render_json",
    "render_prometheus",
    "sample_value",
    "write_snapshot_files",
]
