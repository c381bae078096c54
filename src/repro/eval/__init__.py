"""Experiment runners regenerating every figure of the paper's §6.

- :func:`repro.eval.experiments.latency_vs_occupancy` — Fig. 12,
- :func:`repro.eval.experiments.latency_ccdf` — Fig. 13,
- :func:`repro.eval.experiments.throughput_sweep` — Fig. 14,
- :func:`repro.eval.verification_stats.collect` — the §5 verification
  statistics (path/trace counts, proof outcomes),
- :mod:`repro.eval.reporting` — table rendering for all of the above,
- :mod:`repro.eval.sweeps` — the seven sweeps beyond the paper's
  figures, each described once (grid, run, render, snapshot, key,
  claims — ``run`` returns the records); the CLI, the benchmark test
  and the CI gate are derived from ``SWEEPS``.
"""

from repro.eval.experiments import (
    EvalSettings,
    LatencyPoint,
    default_nf_factories,
    latency_ccdf,
    latency_vs_occupancy,
    throughput_sweep,
)
from repro.eval.sweeps import SWEEPS, Sweep
from repro.eval.verification_stats import VerificationStats, collect

__all__ = [
    "EvalSettings",
    "LatencyPoint",
    "SWEEPS",
    "Sweep",
    "VerificationStats",
    "collect",
    "default_nf_factories",
    "latency_ccdf",
    "latency_vs_occupancy",
    "throughput_sweep",
]
