"""Shared benchmark configuration.

Every benchmark regenerates one table/figure of the paper's evaluation
(§6) or verification statistics (§5). Results are printed and saved
under ``benchmarks/results/``.

Scale is controlled by ``REPRO_EVAL_SCALE``:

- ``quick`` (default): minutes-scale runs preserving every claimed shape;
- ``paper``: the paper's full parameter grid (tens of minutes);
- ``smoke``: the CI smoke grid — fewer sweep points at unchanged
  per-point fidelity, so the ordering/scaling claims still bite.

The seven sweeps' grids at each scale live in their descriptions
(:mod:`repro.eval.sweeps`); only the paper's own figures are sized here.
"""

import os
import pathlib

import pytest

from repro.eval.experiments import EvalSettings

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def scale() -> str:
    return os.environ.get("REPRO_EVAL_SCALE", "quick")


def latency_settings(expiration_seconds: float = 2.0) -> EvalSettings:
    if scale() == "paper":
        return EvalSettings(
            background_pps=100_000,
            measure_seconds=2.0,
            probe_flows=1_000,
            probe_pps=0.47,
            expiration_seconds=expiration_seconds,
        )
    return EvalSettings(
        background_pps=100_000,
        measure_seconds=0.5,
        probe_flows=1_000,
        probe_pps=0.47,
        expiration_seconds=expiration_seconds,
    )


def latency_occupancies() -> tuple:
    if scale() == "paper":
        return (1_000, 10_000, 20_000, 30_000, 40_000, 50_000, 60_000, 64_000)
    return (1_000, 10_000, 30_000, 60_000, 64_000)


def throughput_settings() -> EvalSettings:
    if scale() == "paper":
        return EvalSettings(
            expiration_seconds=60.0,
            throughput_packets=50_000,
            throughput_iterations=9,
        )
    return EvalSettings(
        expiration_seconds=60.0,
        throughput_packets=20_000,
        throughput_iterations=7,
    )


def throughput_flow_counts() -> tuple:
    if scale() == "paper":
        return (1_000, 10_000, 20_000, 30_000, 40_000, 50_000, 60_000, 64_000)
    return (1_000, 32_000, 64_000)


@pytest.fixture
def publish():
    """Print a result table and persist it under benchmarks/results/."""

    def _publish(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print(f"\n{text}\n")

    return _publish


@pytest.fixture
def publish_snapshot():
    """Persist a metrics snapshot as ``<name>.metrics.json`` + ``.prom``.

    Every sweep emits one alongside its rendered table, in the shared
    ``repro-obs/v1`` schema (see ``docs/OBSERVABILITY.md``).
    """

    def _publish(name: str, snapshot) -> None:
        from repro.obs.expo import write_snapshot_files

        write_snapshot_files(snapshot, RESULTS_DIR, name)

    return _publish
