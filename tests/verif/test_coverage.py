"""Branch coverage from exhaustive symbolic execution."""

from repro.nat.config import NatConfig
from repro.verif.engine import ExhaustiveSymbolicEngine
from repro.verif.proofs import nat_proof


class TestBranchCoverage:
    def test_every_stateless_branch_covered_both_ways(self):
        """Exhaustiveness, observably: every branch of core_logic.py is
        taken in both directions across the explored paths."""
        result = ExhaustiveSymbolicEngine().explore(
            nat_proof(NatConfig()).body
        )
        core_sites = [
            site for site in result.coverage if "core_logic.py" in site
        ]
        assert len(core_sites) >= 5  # expiry guard, eth, proto, 2 devices...
        for site in core_sites:
            assert result.coverage[site] == {True, False}, site
        assert result.one_sided_branches() == []

    def test_dead_branch_is_one_sided(self):
        def body(ctx):
            x = ctx.fresh("x", 8)
            if x < 300:  # always true for u8: the else side is dead
                pass

        result = ExhaustiveSymbolicEngine().explore(body)
        assert len(result.one_sided_branches()) == 1

    def test_coverage_render(self):
        result = ExhaustiveSymbolicEngine().explore(
            nat_proof(NatConfig()).body
        )
        text = result.render_coverage()
        assert "core_logic.py" in text
        assert "both" in text

    def test_sites_point_at_nf_code_not_toolchain(self):
        result = ExhaustiveSymbolicEngine().explore(
            nat_proof(NatConfig()).body
        )
        for site in result.coverage:
            assert "symbols.py" not in site
            assert "context.py" not in site
