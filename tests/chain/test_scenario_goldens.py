"""The chain scenario suite's records, pinned field by field.

One case runs the chain sweep on its smoke grid (firewall -> limiter ->
NAT; warm upgrade, stage promotion, chaos soak) and holds every record
field, and the order of the fields, to a golden, with
``action_wall_us`` zeroed: it is the only field that reads a wall
clock. The records must also meet the sweep's claims.

A golden that moves means a scenario now offers, turns, meters or judges
differently. Print the canonical value with
``PYTHONPATH=src python -m tests.chain.test_scenario_goldens``.
"""

import functools
import hashlib
import json

from repro.eval.sweeps import SWEEPS

#: SHA-256 of the smoke records' canonical JSON. Keys stay in record
#: order, the order ``BENCH_chain.json`` commits them in.
GOLDEN = "fa2f6f271903fa4a0f778c64d93172bee0e77d7f995bb5c2860d01b13d844405"


@functools.lru_cache(maxsize=None)
def smoke_records():
    sweep = SWEEPS["chain"]
    return sweep.run(**sweep.grids["smoke"])


def canonical(records) -> str:
    return json.dumps(
        [dict(record, action_wall_us=0) for record in records],
        separators=(",", ":"),
    )


def test_records_match_golden():
    text = canonical(smoke_records())
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN, text


def test_records_meet_the_sweep_claims():
    assert SWEEPS["chain"].claims(list(smoke_records())) == []


def test_the_suite_exercises_what_it_pins():
    """The golden is not of a degenerate run: each scenario lost what
    its disruption costs, and the soak's faults fired."""
    records = smoke_records()
    assert [r["scenario"] for r in records] == [
        "warm-upgrade",
        "promote-stage",
        "chaos-soak",
    ]
    assert all(r["lost"] > 0 and r["sla_ok"] for r in records)
    assert sum(records[2]["details"]["faults_applied"].values()) > 0


if __name__ == "__main__":
    text = canonical(smoke_records())
    print(hashlib.sha256(text.encode("utf-8")).hexdigest())
    print(text)
