"""Parallel trace validation produces bit-identical reports (§5.2.2)."""

from repro.nat.bridge import BridgeConfig
from repro.nat.config import NatConfig
from repro.verif.engine import ExhaustiveSymbolicEngine
from repro.verif.nf_env_bridge import BridgeSemantics
from repro.verif.proofs import bridge_proof, nat_proof
from repro.verif.semantics import NatSemantics
from repro.verif.validator import Validator


class TestParallelValidation:
    def test_identical_reports_nat(self):
        cfg = NatConfig()
        result = ExhaustiveSymbolicEngine().explore(nat_proof(cfg).body)
        validator = Validator(NatSemantics(cfg))
        sequential = validator.validate(result, "nat", processes=1)
        parallel = validator.validate(result, "nat", processes=3)
        assert parallel.render() == sequential.render()
        assert parallel.verified

    def test_identical_reports_bridge(self):
        cfg = BridgeConfig()
        result = ExhaustiveSymbolicEngine().explore(bridge_proof(cfg).body)
        validator = Validator(BridgeSemantics(cfg))
        sequential = validator.validate(result, "bridge", processes=1)
        parallel = validator.validate(result, "bridge", processes=2)
        assert parallel.render() == sequential.render()

    def test_failures_survive_parallelism(self):
        """A failing proof fails identically in parallel."""
        from repro.verif.models.ring import OverApproximateRingModel
        from repro.verif.nf_env import discard_symbolic_body
        from repro.verif.semantics import DiscardSemantics

        result = ExhaustiveSymbolicEngine().explore(
            discard_symbolic_body(OverApproximateRingModel)
        )
        validator = Validator(DiscardSemantics())
        sequential = validator.validate(result, "d", processes=1)
        parallel = validator.validate(result, "d", processes=2)
        assert not parallel.verified
        assert sorted(parallel.p1.failures) == sorted(sequential.p1.failures)
