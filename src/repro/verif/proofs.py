"""Every NF proof the repository holds, one entry each.

A :class:`Proof` is what the pipeline needs to prove an NF: the body the
engine explores (the deployed stateless function bound to a symbolic
environment), the specification the Validator weaves into each trace,
and the name on the report. :data:`PROOFS` maps the name ``repro verify``
takes to the factory of that NF's proof; the CLI, the evaluation, the
examples, the benchmarks and the tests all build their proofs here, so
"what is proven about NF X" is one entry plus the cases of its
specification.

The stateless CGNAT is not here: its claim is an arithmetic bijection,
not a refinement of a specification, and it keeps its own report
(:func:`repro.verif.nf_env_cgnat.verify_cgnat`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.nat.bridge import BridgeConfig, bridge_loop_iteration
from repro.nat.config import NatConfig
from repro.nat.core_logic import nat_loop_iteration
from repro.nat.firewall import firewall_loop_iteration
from repro.nat.limiter import LimiterConfig, limiter_loop_iteration
from repro.verif.engine import ExhaustiveSymbolicEngine, ExplorationResult, NfBody
from repro.verif.models.ring import (
    GoodRingModel,
    OverApproximateRingModel,
    UnderApproximateRingModel,
)
from repro.verif.nf_env import (
    SymbolicFlowTableEnv,
    discard_symbolic_body,
    symbolic_body,
)
from repro.verif.nf_env_bridge import BridgeSemantics, SymbolicBridgeEnv
from repro.verif.nf_env_limiter import LimiterSemantics, SymbolicLimiterEnv
from repro.verif.report import ProofReport
from repro.verif.semantics import DiscardSemantics, FirewallSemantics, NatSemantics
from repro.verif.validator import SemanticProperty, Validator


@dataclass(frozen=True)
class Proof:
    """One NF's proof, ready to run."""

    name: str
    body: NfBody
    semantics: SemanticProperty

    def prove(self) -> Tuple[ProofReport, ExplorationResult]:
        """Explore every path, validate every trace; the Fig. 7 report
        and the exploration it was stitched from."""
        result = ExhaustiveSymbolicEngine().explore(self.body)
        return Validator(self.semantics).validate(result, self.name), result


def nat_proof(config: NatConfig | None = None) -> Proof:
    cfg = config if config is not None else NatConfig()
    return Proof(
        "VigNat",
        symbolic_body(SymbolicFlowTableEnv, nat_loop_iteration, cfg),
        NatSemantics(cfg),
    )


def firewall_proof(config: NatConfig | None = None) -> Proof:
    cfg = config if config is not None else NatConfig()
    return Proof(
        "VigFirewall",
        symbolic_body(SymbolicFlowTableEnv, firewall_loop_iteration, cfg),
        FirewallSemantics(cfg),
    )


def bridge_proof(config: BridgeConfig | None = None) -> Proof:
    cfg = config if config is not None else BridgeConfig()
    return Proof(
        "VigBridge",
        symbolic_body(SymbolicBridgeEnv, bridge_loop_iteration, cfg),
        BridgeSemantics(cfg),
    )


def limiter_proof(config: LimiterConfig | None = None) -> Proof:
    cfg = config if config is not None else LimiterConfig()
    return Proof(
        "VigLimiter",
        symbolic_body(SymbolicLimiterEnv, limiter_loop_iteration, cfg),
        LimiterSemantics(cfg),
    )


#: The three ring models of Fig. 4, by the name ``--model`` takes.
RING_MODELS = {
    "good": GoodRingModel,
    "over": OverApproximateRingModel,
    "under": UnderApproximateRingModel,
}


def discard_proof(model: str = "good") -> Proof:
    """The §3 worked example over one of the Fig. 4 ring models."""
    return Proof(
        f"discard({model})",
        discard_symbolic_body(RING_MODELS[model]),
        DiscardSemantics(),
    )


PROOFS: Dict[str, Callable[..., Proof]] = {
    "nat": nat_proof,
    "firewall": firewall_proof,
    "bridge": bridge_proof,
    "limiter": limiter_proof,
    "discard": discard_proof,
}
