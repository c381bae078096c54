"""Unit tests for the limiter's obligations and CLI experiment smoke."""

from repro.cli import main
from repro.nat.limiter import LimiterConfig
from repro.verif.engine import ExhaustiveSymbolicEngine
from repro.verif.nf_env_limiter import LimiterSemantics
from repro.verif.proofs import limiter_proof

CFG = LimiterConfig()


class TestLimiterObligations:
    def test_every_path_has_obligations(self):
        result = ExhaustiveSymbolicEngine().explore(limiter_proof(CFG).body)
        semantics = LimiterSemantics(CFG)
        names = set()
        for trace in result.tree.paths:
            obligations = semantics.obligations(trace)
            assert obligations
            names.update(o.name for o in obligations)
        assert "fixed-window-no-rejuvenation" in names
        assert "bump-increments-by-one" in names
        assert "forward-justified" in names
        assert "drop-justified" in names

    def test_bump_paths_carry_budget_guard(self):
        result = ExhaustiveSymbolicEngine().explore(limiter_proof(CFG).body)
        semantics = LimiterSemantics(CFG)
        seen = 0
        for trace in result.tree.paths:
            if any(c.fn == "counter_bump" for c in trace.calls):
                names = [o.name for o in semantics.obligations(trace)]
                assert "bump-only-under-budget" in names
                seen += 1
        assert seen >= 1

    def test_limiter_paths_cover_both_directions(self):
        result = ExhaustiveSymbolicEngine().explore(limiter_proof(CFG).body)
        sites = [s for s in result.coverage if "limiter.py" in s]
        assert sites
        assert all(result.coverage[s] == {True, False} for s in sites)


class TestCliVerifyLimiter:
    def test_verify_limiter(self, capsys):
        assert main(["verify", "limiter"]) == 0
        assert "VigLimiter" in capsys.readouterr().out

    def test_coverage_flag(self, capsys):
        assert main(["verify", "limiter", "--coverage"]) == 0
        out = capsys.readouterr().out
        assert "Branch coverage" in out
        assert "limiter.py" in out
