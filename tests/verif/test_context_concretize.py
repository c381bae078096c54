"""Exploration-context behaviours and concrete-replay classification."""

import pytest

from repro.nat.config import NatConfig
from repro.verif.concretize import ReplayOutcome, replay_path
from repro.verif.context import ExplorationContext, PathAbort
from repro.verif.engine import ExhaustiveSymbolicEngine
from repro.verif.expr import eq, IntExpr
from repro.verif.proofs import nat_proof


class TestContext:
    def test_assume_false_aborts_path(self):
        from repro.verif.expr import FALSE
        from repro.verif.symbols import SymBool

        ctx = ExplorationContext()
        with pytest.raises(PathAbort):
            ctx.assume(SymBool(FALSE, ctx))

    def test_assume_true_is_noop(self):
        from repro.verif.expr import TRUE
        from repro.verif.symbols import SymBool

        ctx = ExplorationContext()
        ctx.assume(SymBool(TRUE, ctx))
        assert ctx.pc == []

    def test_fresh_names_unique(self):
        ctx = ExplorationContext()
        a = ctx.fresh("x", 8)
        b = ctx.fresh("x", 8)
        assert str(a.expr) != str(b.expr)
        assert set(ctx.widths) == {"x", "x#1"}

    def test_planned_branches_replay(self):
        ctx = ExplorationContext(plan=[False])
        x = ctx.fresh("x", 8)
        taken = bool(x == 3)
        assert taken is False
        assert len(ctx.pc) == 1  # the negated constraint was recorded

    def test_forced_branch_not_scheduled(self):
        ctx = ExplorationContext()
        x = ctx.fresh("x", 8)
        ctx.assume(x <= 10)
        taken = bool(x < 200)  # only True is feasible
        assert taken is True
        assert ctx.decisions[-1].forced
        assert not ctx.decisions[-1].flip_feasible

    def test_symint_truthiness_rejected(self):
        ctx = ExplorationContext()
        x = ctx.fresh("x", 8)
        with pytest.raises(TypeError):
            bool(x)

    def test_check_records_counterexample(self):
        ctx = ExplorationContext()
        x = ctx.fresh("x", 8)
        proven = ctx.check(eq(x.expr, IntExpr.const(3)), "assert")
        assert not proven
        assert ctx.checks[-1].counterexample is not None
        assert ctx.checks[-1].counterexample["x"] != 3


class TestConcretizeClassification:
    @pytest.fixture(scope="class")
    def traces(self):
        cfg = NatConfig(max_flows=8, start_port=1000)
        result = ExhaustiveSymbolicEngine().explore(nat_proof(cfg).body)
        return cfg, result.tree.paths

    def test_idle_paths_skipped(self, traces):
        cfg, paths = traces
        idle = [t for t in paths if not t.calls or all(
            c.fn != "receive" or "device" not in c.rets for c in t.calls
        )]
        for trace in idle:
            outcome = replay_path(trace, cfg)
            assert outcome.status == "skipped"

    def test_outcomes_carry_path_ids(self, traces):
        cfg, paths = traces
        outcome = replay_path(paths[0], cfg)
        assert isinstance(outcome, ReplayOutcome)
        assert outcome.path_id == paths[0].path_id

    def test_forward_paths_match(self, traces):
        cfg, paths = traces
        matched = 0
        for trace in paths:
            if trace.sends:
                outcome = replay_path(trace, cfg)
                assert outcome.status in ("match", "model_only"), outcome.detail
                matched += outcome.status == "match"
        assert matched >= 2
