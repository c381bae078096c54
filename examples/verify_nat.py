#!/usr/bin/env python3
"""Run the full Vigor verification pipeline on VigNat (§5).

Performs exhaustive symbolic execution of the *actual* stateless NAT
logic against the libVig models, then runs the lazy-proofs Validator:
model validity (P5), contract usage (P4), low-level properties (P2),
libVig refinement (P3), and RFC 3022 semantics (P1). Prints the Fig. 7
proof report and one symbolic trace in the Fig. 9 style.

Run:  python examples/verify_nat.py
"""

from repro.verif.engine import ExhaustiveSymbolicEngine
from repro.verif.proofs import PROOFS
from repro.verif.validator import Validator


def main() -> None:
    # The proof's two stages, run apart; ``proof.prove()`` is both.
    proof = PROOFS["nat"]()

    print("Step 2 — exhaustive symbolic execution of the stateless code...")
    engine = ExhaustiveSymbolicEngine()
    result = engine.explore(proof.body)
    print(
        f"  {result.stats.paths} feasible paths, "
        f"{result.tree.trace_count()} traces (paths + prefixes), "
        f"{result.stats.solver_queries} solver queries, "
        f"{result.stats.wall_seconds:.2f}s"
    )

    print("\nStep 3 — lazy proofs: validating models, contracts, semantics...")
    report = Validator(proof.semantics).validate(result, proof.name)
    print()
    print(report.render())

    # Show one interesting trace: an outbound packet creating a flow.
    print("\nA symbolic trace (Fig. 9 style) — outbound flow creation:")
    for trace in result.tree.paths:
        fns = [c.fn for c in trace.calls]
        if "dmap_put" in fns and trace.sends:
            print(trace.render())
            witness = ", ".join(
                f"{k}={v}" for k, v in sorted(trace.witness.items())
            )
            print(f"--- example input driving this path ---\n{witness}")
            break

    if not report.verified:
        raise SystemExit("verification FAILED")
    print("\nVigNat is VERIFIED: P1 ∧ P2 ∧ P3 ∧ P4 ∧ P5 all hold.")


if __name__ == "__main__":
    main()
