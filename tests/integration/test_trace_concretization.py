"""Concrete replay of every symbolic path on the real VigNat.

The reverse direction of model validation: each explored path's witness
is realized as an actual packet + flow-table state, the *deployed* NAT
processes it, and the concrete behaviour must match what the trace
promised (forward vs drop, output device, source rewriting).
"""

import pytest

from repro.nat.config import NatConfig
from repro.verif.concretize import replay_all
from repro.verif.engine import ExhaustiveSymbolicEngine
from repro.verif.proofs import nat_proof

CFG = NatConfig(max_flows=8, expiration_time=2_000_000, start_port=1000)


@pytest.fixture(scope="module")
def outcomes():
    result = ExhaustiveSymbolicEngine().explore(nat_proof(CFG).body)
    return replay_all(result.tree.paths, CFG)


class TestConcreteReplay:
    def test_no_mismatches(self, outcomes):
        mismatches = [o for o in outcomes if o.status == "mismatch"]
        assert not mismatches, [
            (o.path_id, o.detail) for o in mismatches
        ]

    def test_most_paths_concretizable(self, outcomes):
        matched = [o for o in outcomes if o.status == "match"]
        assert len(matched) >= len(outcomes) // 2

    def test_model_only_paths_are_documented_overapproximation(self, outcomes):
        """Flag combos only the model can exhibit are allowed, and few."""
        model_only = [o for o in outcomes if o.status == "model_only"]
        assert len(model_only) <= len(outcomes) // 3

    def test_every_path_classified(self, outcomes):
        assert all(
            o.status in ("match", "mismatch", "model_only", "skipped")
            for o in outcomes
        )
        assert len(outcomes) >= 12
