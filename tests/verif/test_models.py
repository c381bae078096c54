"""The symbolic models: call recording, contracts, constraint tagging."""

from repro.verif.context import ExplorationContext
from repro.verif.contracts import CONTRACTS, ContractContext
from repro.verif.engine import ExhaustiveSymbolicEngine
from repro.verif.models.nat import NatModelState
from repro.verif.proofs import PROOFS


def fresh_models(plan=None):
    ctx = ExplorationContext(plan=plan if plan is not None else [])
    models = NatModelState(ctx, capacity=100, start_port=1000)
    return ctx, models


class TestCallRecording:
    def test_loop_invariant_recorded_first(self):
        ctx, _models = fresh_models()
        assert ctx.calls[0].fn == "loop_invariant_produce"
        assert "size" in ctx.calls[0].rets

    def test_invariant_constraint_tagged_assume(self):
        ctx, _models = fresh_models()
        assert ctx.pc_tags[0] == "assume"
        assert "table_size" in str(ctx.pc[0])

    def test_lookup_found_branch_records_selector(self):
        ctx, models = fresh_models(plan=[True])  # force the found branch
        key = {"src_ip": 1, "src_port": 2, "dst_ip": 3, "dst_port": 4, "protocol": 17}
        index = models.dmap_get_by_first_key(key)
        assert index is not None
        call = ctx.calls[-1]
        assert call.fn == "dmap_get_by_first_key"
        assert call.selector_indices  # the found==1 branch
        assert call.model_constraints  # index bounds, non-empty table

    def test_lookup_missing_branch_has_no_output_constraints(self):
        ctx, models = fresh_models(plan=[False])
        key = {"src_ip": 1, "src_port": 2, "dst_ip": 3, "dst_port": 4, "protocol": 17}
        assert models.dmap_get_by_first_key(key) is None
        call = ctx.calls[-1]
        assert not call.model_constraints

    def test_contract_instantiated_on_record(self):
        ctx, models = fresh_models(plan=[True])
        key = {"src_ip": 1, "src_port": 2, "dst_ip": 3, "dst_port": 4, "protocol": 17}
        models.dmap_get_by_first_key(key)
        call = ctx.calls[-1]
        assert call.post  # Fig. 8-style postcondition present

    def test_trusted_models_carry_no_contract(self):
        ctx, models = fresh_models(plan=[True])
        models.receive()
        call = ctx.calls[-1]
        assert not call.pre and not call.post
        assert CONTRACTS["receive"].trusted

    def test_get_value_assumes_loop_invariant(self):
        ctx, models = fresh_models(plan=[True])
        key = {"src_ip": 1, "src_port": 2, "dst_ip": 3, "dst_port": 4, "protocol": 17}
        index = models.dmap_get_by_first_key(key)
        models.dmap_get_value(index)
        call = ctx.calls[-1]
        assert any("entry_ext_port" in str(c) for c in call.model_constraints)

    def test_allocation_selector_is_occupancy(self):
        ctx, models = fresh_models(plan=[True])
        now = models.current_time()
        index = models.dchain_allocate_new_index(now)
        assert index is not None
        call = ctx.calls[-1]
        selector_exprs = [str(ctx.pc[i]) for i in call.selector_indices]
        assert any("table_size" in s for s in selector_exprs)


class TestContractRegistry:
    #: The registry as imported, before any model has been constructed:
    #: nothing may add to it later.
    STATIC = frozenset(CONTRACTS)

    def test_every_nat_model_call_has_a_registry_entry(self):
        """...and every other NF's: each entry of PROOFS, not only the NAT."""
        for nf, proof in PROOFS.items():
            result = ExhaustiveSymbolicEngine().explore(proof().body)
            called = {c.fn for t in result.tree.paths for c in t.calls}
            assert called <= self.STATIC, f"{nf}: {called - self.STATIC} uncontracted"
        assert frozenset(CONTRACTS) == self.STATIC

    def test_contract_context_carries_config(self):
        cc = ContractContext(capacity=42, start_port=7)
        clauses = CONTRACTS["dmap_put"].pre(
            {
                "index": __import__("repro.verif.expr", fromlist=["IntExpr"]).IntExpr.var("i", 32),
                "size": __import__("repro.verif.expr", fromlist=["IntExpr"]).IntExpr.var("s", 32),
            },
            {},
            cc,
        )
        assert any("42" in str(c) for c in clauses)
