#!/usr/bin/env python3
"""The §3 worked example: verifying the discard-protocol NF.

Runs the discard NF concretely, then verifies it symbolically under the
three ring models of Fig. 4, reproducing the paper's taxonomy of model
(in)validity:

- model (a), the good one: everything proves;
- model (b), over-approximate: P5 passes but the semantic property P1
  cannot be proven;
- model (c), under-approximate: P1 holds trivially but model validation
  P5 rejects the model.

Run:  python examples/discard_protocol.py
"""

from repro.nat.discard import DiscardNF
from repro.packets import make_udp_packet
from repro.verif.proofs import RING_MODELS, discard_proof


def run_concrete() -> None:
    print("Concrete run: forwarding everything except port 9...")
    nf = DiscardNF()
    emitted = []
    for i, dport in enumerate([80, 9, 443, 9, 53]):
        packet = make_udp_packet("10.0.0.1", "10.0.0.2", 1000 + i, dport, device=0)
        emitted.extend(nf.process(packet, now=i))
    ports = [p.l4.dst_port for p in emitted]
    print(f"  emitted target ports: {ports} (never 9)")
    print(f"  counters: {nf.op_counters()}")


def verify_under(model: str) -> None:
    report, _ = discard_proof(model).prove()
    label = RING_MODELS[model].__name__
    verdicts = "  ".join(
        f"{v.name}={'ok' if v.proven else 'FAIL'}" for v in report.verdicts()
    )
    print(f"  {label:>28s}: {verdicts}  -> "
          f"{'VERIFIED' if report.verified else 'not verified'}")
    for verdict in report.verdicts():
        for failure in verdict.failures[:1]:
            print(f"{'':>32s}{verdict.name} example failure: {failure}")


def main() -> None:
    run_concrete()
    print("\nSymbolic verification under the three Fig. 4 ring models:")
    for model in RING_MODELS:
        verify_under(model)
    print(
        "\nAs in the paper: an invalid model can make a proof fail,"
        " but never produces an incorrect proof."
    )


if __name__ == "__main__":
    main()
