"""Proof reports: the Fig. 7 structure, rendered.

A :class:`ProofReport` aggregates the verdicts of the five sub-proofs:

- P1 — semantic properties (Validator + proof checker),
- P2 — low-level properties (symbolic execution engine),
- P3 — libVig implementation vs. contracts (refinement checking),
- P4 — stateless code uses libVig per the contracts (Validator),
- P5 — libVig models faithful to the contracts (Validator),

plus the exploration statistics the paper reports in §5.2 (path count,
trace count, timing).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import List


@dataclass
class PropertyVerdict:
    """Outcome of one sub-proof."""

    name: str
    title: str
    proven: bool
    obligations: int = 0
    failures: List[str] = field(default_factory=list)
    note: str = ""

    def summary(self) -> str:
        status = "PROVEN" if self.proven else "FAILED"
        text = f"{self.name} {status:6s} {self.title} ({self.obligations} obligations"
        if self.failures:
            text += f", {len(self.failures)} failed"
        text += ")"
        if self.note:
            text += f" — {self.note}"
        return text


@dataclass
class ProofReport:
    """The stitched proof of Fig. 7 plus exploration statistics.

    ``properties`` holds the five verdicts in order, P1 first.
    """

    nf_name: str
    properties: List[PropertyVerdict]
    paths: int = 0
    traces: int = 0
    solver_queries: int = 0
    wall_seconds: float = 0.0

    p1 = property(lambda self: self.properties[0])
    p2 = property(lambda self: self.properties[1])
    p3 = property(lambda self: self.properties[2])
    p4 = property(lambda self: self.properties[3])
    p5 = property(lambda self: self.properties[4])

    @property
    def verified(self) -> bool:
        """True when every sub-proof succeeded — the NF is verified."""
        return all(p.proven for p in self.properties)

    def verdicts(self) -> List[PropertyVerdict]:
        return list(self.properties)

    def to_dict(self) -> dict:
        """JSON-serializable form (used by the CLI's proof cache)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ProofReport":
        """Inverse of :meth:`to_dict`."""
        verdicts = [PropertyVerdict(**p) for p in data["properties"]]
        return cls(**dict(data, properties=verdicts))

    def render(self) -> str:
        header = (
            f"Vigor proof report for {self.nf_name!r}: "
            + ("VERIFIED" if self.verified else "NOT VERIFIED")
        )
        lines = [header, "=" * len(header)]
        lines.extend(verdict.summary() for verdict in self.verdicts())
        lines.append(
            f"paths: {self.paths}, traces (paths + prefixes): {self.traces}, "
            f"solver queries: {self.solver_queries}, "
            f"wall time: {self.wall_seconds:.2f}s"
        )
        for verdict in self.verdicts():
            for failure in verdict.failures[:20]:
                lines.append(f"  [{verdict.name}] {failure}")
            if len(verdict.failures) > 20:
                lines.append(
                    f"  [{verdict.name}] ... {len(verdict.failures) - 20} more"
                )
        return "\n".join(lines)
