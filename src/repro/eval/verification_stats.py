"""Verification statistics: the reproduction's analogue of §5's numbers.

The paper reports 108 execution paths through VigNAT's stateless code
and 431 traces (paths plus prefixes), verified in 38 single-core
minutes. Our stateless NF is leaner (one packet per iteration, no
batching, two devices), so the absolute counts are smaller; what must
hold is the *structure*: exhaustive exploration terminates quickly, the
trace count exceeds the path count (prefix accounting), and every
sub-proof P1-P5 discharges.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.nat.config import NatConfig
from repro.verif.proofs import nat_proof
from repro.verif.report import ProofReport


@dataclass
class VerificationStats:
    """Everything §5 reports about verifying VigNAT, for our pipeline."""

    paths: int
    traces: int
    solver_queries: int
    explore_seconds: float
    validate_seconds: float
    obligations: int
    report: ProofReport

    @property
    def verified(self) -> bool:
        return self.report.verified


def collect(config: NatConfig | None = None) -> VerificationStats:
    """Run the full Vigor pipeline on VigNat and gather the statistics."""
    import time

    started = time.monotonic()
    report, result = nat_proof(config).prove()
    # The engine times its own stage; the rest of the proof is validation.
    explore_seconds = result.stats.wall_seconds
    validate_seconds = time.monotonic() - started - explore_seconds

    obligations = sum(v.obligations for v in report.verdicts())
    return VerificationStats(
        paths=report.paths,
        traces=report.traces,
        solver_queries=report.solver_queries,
        explore_seconds=explore_seconds,
        validate_seconds=validate_seconds,
        obligations=obligations,
        report=report,
    )
