"""Fig. 7: the five-part proof structure, end to end, plus the §3 table.

Reproduces (a) the full lazy-proof pipeline on VigNat with every
sub-proof P1-P5 discharging, and (b) the §3 worked example's outcome
matrix for the three ring models of Fig. 4 — which sub-proof fails for
which kind of invalid model.
"""

from repro.verif.proofs import PROOFS, RING_MODELS, discard_proof


def test_fig7_proof_structure(benchmark, publish):
    def run():
        return PROOFS["nat"]().prove()[0]

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    publish("fig7_proof_structure", report.render())
    assert report.verified
    for verdict in report.verdicts():
        assert verdict.proven, verdict.summary()


def test_sec9_generalization_matrix(benchmark, publish):
    """§9: four NFs verified by the shared pipeline, one table."""

    def run():
        lineup = ("nat", "firewall", "bridge", "limiter")
        reports = [PROOFS[nf]().prove()[0] for nf in lineup]
        return [(report.nf_name, report) for report in reports]

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["§9 generalization — four NFs, one toolchain"]
    lines.append(f"{'NF':>12s}  {'paths':>5s}  {'traces':>6s}  {'obligations':>11s}  verdict")
    for name, report in rows:
        obligations = sum(v.obligations for v in report.verdicts())
        lines.append(
            f"{name:>12s}  {report.paths:>5d}  {report.traces:>6d}  "
            f"{obligations:>11d}  {'VERIFIED' if report.verified else 'FAILED'}"
        )
    publish("sec9_generalization", "\n".join(lines))
    assert all(report.verified for _name, report in rows)


def test_sec3_model_validity_matrix(benchmark, publish):
    def run():
        return {
            ring.__name__: discard_proof(model).prove()[0]
            for model, ring in RING_MODELS.items()
        }

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["§3 worked example — model validity matrix (Fig. 4)"]
    lines.append(f"{'model':>28s}  P1    P2    P4    P5    verified")
    for name, report in rows.items():
        lines.append(
            f"{name:>28s}  "
            + "  ".join(
                "ok " if v.proven else "FAIL"
                for v in (report.p1, report.p2, report.p4, report.p5)
            )
            + f"    {report.verified}"
        )
    publish("sec3_model_matrix", "\n".join(lines))

    assert rows["GoodRingModel"].verified
    assert not rows["OverApproximateRingModel"].p1.proven
    assert rows["OverApproximateRingModel"].p5.proven
    assert rows["UnderApproximateRingModel"].p1.proven
    assert not rows["UnderApproximateRingModel"].p5.proven
