"""What each proof proves, pinned: its tree, its obligations, its bytes.

One case per NF ``repro verify`` can prove through the Validator (and
the three Fig. 4 ring models of the discard NF). Each case runs the
proof the way a user does — ``repro verify <nf> --cache D --emit-tasks
F`` — and holds it to two goldens:

- the report: paths, traces, solver queries, and per sub-proof P1-P5 the
  obligation count and the verdict;
- the SHA-256 of the emitted verification tasks, which spell out every
  path's calls, assumes, P4/P5 asserts and woven P1 obligations. The
  rendering is deterministic, so an equal digest means the *same proof*,
  symbol for symbol — not merely another green one.

A digest that moves means the proof changed: regenerate it with
``repro verify <nf> --emit-tasks FILE && sha256sum FILE`` and say in the
commit what is now proven differently. EXPERIMENTS.md §9 is this table.
"""

import argparse
import hashlib
import json

import pytest

from repro.cli import build_parser, main

#: (nf, ring model) -> (paths, traces, solver queries,
#:                      obligations P1..P5, proven P1..P5, tasks digest)
GOLDEN = {
    ("nat", None): (
        18, 35, 60, (64, 26, 1, 26, 52), (True,) * 5,
        "2272afc4ef5ebc1797a31d9dbf2a96d43262c71b07f5f098e08cfdef3f68ff88",
    ),
    ("firewall", None): (
        18, 35, 52, (62, 18, 1, 14, 46), (True,) * 5,
        "f110279a7041c6d36320c94cc528f9535a61821de5416229001209e86e45869c",
    ),
    ("bridge", None): (
        68, 135, 202, (298, 68, 1, 16, 184), (True,) * 5,
        "7ee81ca62d3c0726a4885c69726900d88a35d757070771758a521e92298c2ff2",
    ),
    ("limiter", None): (
        16, 31, 48, (70, 18, 1, 14, 46), (True,) * 5,
        "d3b7ba8085b58eb03cccd54f9130da12c95c9cefb90b13ab6f957f2b26b12f95",
    ),
    ("discard", "good"): (
        10, 21, 28, (4, 6, 1, 8, 14), (True,) * 5,
        "5068dcaa6e6f0de7d8b1b35b670b7cf3b4922cc7c8b7a82423770df1063ea5a8",
    ),
    # Fig. 4(b): too abstract a model passes validation, loses P1.
    ("discard", "over"): (
        10, 21, 28, (4, 6, 1, 8, 10), (False, True, True, True, True),
        "150f103c1c1ad9b1c4826d392c9d12d59a18ee2e9bc76b42dbb50ba6ba17f034",
    ),
    # Fig. 4(c): too specific a model keeps P1, fails validation (P5).
    ("discard", "under"): (
        10, 21, 28, (4, 6, 1, 8, 14), (True, True, True, True, False),
        "fd97db9c5898568e5d2899c6310facd0a8fa379abcc7e4f8c12242ab1af87547",
    ),
}


def _verify_choices():
    commands = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    nf = next(a for a in commands.choices["verify"]._actions if a.dest == "nf")
    return set(nf.choices)


def test_every_validator_proof_has_a_golden():
    # cgnat's bijectivity proof has its own report type and its own
    # tests (tests/verif/test_cgnat_verif.py).
    assert _verify_choices() - {"cgnat"} == {nf for nf, _ in GOLDEN}


@pytest.mark.parametrize(
    "nf, model", list(GOLDEN), ids=[f"{nf}-{m}" if m else nf for nf, m in GOLDEN]
)
def test_proof_is_the_pinned_proof(nf, model, tmp_path, capsys):
    paths, traces, queries, obligations, proven, digest = GOLDEN[(nf, model)]
    tasks = tmp_path / "tasks.c"
    argv = ["verify", nf, "--cache", str(tmp_path / "proofs")]
    argv += ["--emit-tasks", str(tasks)]
    if model is not None:
        argv += ["--model", model]
    assert main(argv) == (0 if all(proven) else 1)
    capsys.readouterr()

    (cached,) = (tmp_path / "proofs").glob("*.json")
    report = json.loads(cached.read_text())
    assert (report["paths"], report["traces"], report["solver_queries"]) == (
        paths,
        traces,
        queries,
    )
    assert [p["name"] for p in report["properties"]] == ["P1", "P2", "P3", "P4", "P5"]
    assert tuple(p["obligations"] for p in report["properties"]) == obligations
    assert tuple(p["proven"] for p in report["properties"]) == proven
    assert hashlib.sha256(tasks.read_bytes()).hexdigest() == digest
