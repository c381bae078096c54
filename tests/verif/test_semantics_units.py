"""Unit tests for the obligation builders in repro.verif.semantics."""

from repro.nat.config import NatConfig
from repro.verif.engine import ExhaustiveSymbolicEngine
from repro.verif.expr import eq, IntExpr
from repro.verif.proofs import nat_proof
from repro.verif.semantics import FirewallSemantics, NatSemantics
from repro.verif.solver import Solver

CFG = NatConfig()


def explore():
    return ExhaustiveSymbolicEngine().explore(nat_proof(CFG).body)


def classify(trace):
    """Reproduce the path classification the semantics module performs."""
    solver = Solver(trace.widths)
    calls = {}
    for call in trace.calls:
        calls.setdefault(call.fn, call)
    recv = calls.get("receive")
    if recv is None:
        return "no-receive"
    received = recv.rets["received"]
    if solver.entails(trace.pc, eq(received, IntExpr.const(0))):
        return "idle"
    if trace.sends:
        return "forward"
    return "drop"


class TestObligationConstruction:
    def test_every_path_gets_obligations(self):
        result = explore()
        semantics = NatSemantics(CFG)
        for trace in result.tree.paths:
            obligations = semantics.obligations(trace)
            assert obligations, f"path {trace.path_id} has no obligations"

    def test_idle_paths_get_silence_obligation(self):
        result = explore()
        semantics = NatSemantics(CFG)
        for trace in result.tree.paths:
            if classify(trace) == "idle":
                names = [o.name for o in semantics.obligations(trace)]
                assert "silent-when-idle" in names

    def test_forward_paths_get_forward_obligation(self):
        result = explore()
        semantics = NatSemantics(CFG)
        seen = 0
        for trace in result.tree.paths:
            if classify(trace) == "forward":
                names = [o.name for o in semantics.obligations(trace)]
                assert "forward-justified" in names
                seen += 1
        assert seen >= 3  # out-created, out-found, in-found at least

    def test_drop_paths_get_drop_obligation(self):
        result = explore()
        semantics = NatSemantics(CFG)
        seen = 0
        for trace in result.tree.paths:
            if classify(trace) == "drop":
                names = [o.name for o in semantics.obligations(trace)]
                assert "drop-justified" in names
                seen += 1
        assert seen >= 4

    def test_creation_paths_get_port_rule(self):
        result = explore()
        semantics = NatSemantics(CFG)
        seen = 0
        for trace in result.tree.paths:
            if any(c.fn == "dmap_put" for c in trace.calls):
                names = [o.name for o in semantics.obligations(trace)]
                assert "create-respects-port-rule" in names
                assert "create-only-internal" in names
                assert "create-only-when-room" in names
                seen += 1
        assert seen >= 1

    def test_expiry_threshold_on_every_receiving_path(self):
        result = explore()
        semantics = NatSemantics(CFG)
        for trace in result.tree.paths:
            if any(c.fn == "expire_items" for c in trace.calls):
                names = [o.name for o in semantics.obligations(trace)]
                assert "expiry-threshold" in names

    def test_structural_failure_for_double_send(self):
        """Two sends for one arrival is flagged without a proof attempt."""
        result = explore()
        trace = next(t for t in result.tree.paths if t.sends)
        trace.sends.append(trace.sends[0])  # corrupt the trace
        semantics = NatSemantics(CFG)
        obligations = semantics.obligations(trace)
        broken = [o for o in obligations if not o.structural_ok]
        assert broken and broken[0].name == "at-most-one-send"


class TestFirewallSemanticsDiffers:
    def test_nat_spec_rejects_identity_forwarding(self):
        """Swapping the specs must break the proofs: the firewall's
        identity forwarding violates the NAT spec and vice versa."""
        from repro.verif.proofs import firewall_proof
        from repro.verif.validator import Validator

        fw_result = ExhaustiveSymbolicEngine().explore(firewall_proof(CFG).body)
        # The firewall verified under its own spec...
        own = Validator(FirewallSemantics(CFG)).validate(fw_result, "fw")
        assert own.p1.proven
        # ...fails under the NAT's spec (it never rewrites sources).
        crossed = Validator(NatSemantics(CFG)).validate(fw_result, "fw-as-nat")
        assert not crossed.p1.proven

    def test_firewall_spec_rejects_rewriting(self):
        from repro.verif.validator import Validator

        nat_result = explore()
        crossed = Validator(FirewallSemantics(CFG)).validate(nat_result, "nat-as-fw")
        assert not crossed.p1.proven

    def test_port_rule_is_nat_specific(self):
        nat_result = explore()
        fw_sem_names = set()
        from repro.verif.proofs import firewall_proof

        fw_result = ExhaustiveSymbolicEngine().explore(firewall_proof(CFG).body)
        for trace in fw_result.tree.paths:
            fw_sem_names.update(
                o.name for o in FirewallSemantics(CFG).obligations(trace)
            )
        nat_sem_names = set()
        for trace in nat_result.tree.paths:
            nat_sem_names.update(o.name for o in NatSemantics(CFG).obligations(trace))
        assert "create-respects-port-rule" in nat_sem_names
        assert "create-respects-port-rule" not in fw_sem_names
