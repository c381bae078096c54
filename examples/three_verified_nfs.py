#!/usr/bin/env python3
"""Four NFs, one library, one toolchain (the §9 amortization claim).

Runs the complete Vigor pipeline on the NAT, the stateful firewall,
the MAC-learning bridge and the rate limiter — four different state
shapes (double-keyed flow table, session table, station table with port
rebinding, per-source counters) — and prints one summary table. The verified library and the
Validator are shared; each new NF costs only its stateless logic and a
semantic specification.

Run:  python examples/three_verified_nfs.py
"""

from repro.verif.proofs import PROOFS


def main() -> None:
    print(f"{'NF':>12s}  {'paths':>5s}  {'traces':>6s}  {'obligations':>11s}  verdict")
    all_verified = True
    for nf in ("nat", "firewall", "bridge", "limiter"):
        report, _ = PROOFS[nf]().prove()
        name = report.nf_name
        obligations = sum(v.obligations for v in report.verdicts())
        verdict = "VERIFIED" if report.verified else "NOT VERIFIED"
        all_verified &= report.verified
        print(
            f"{name:>12s}  {report.paths:>5d}  {report.traces:>6d}  "
            f"{obligations:>11d}  {verdict}"
        )
    if not all_verified:
        raise SystemExit(1)
    print("\nSame libVig, same models, same Validator — four proofs.")


if __name__ == "__main__":
    main()
