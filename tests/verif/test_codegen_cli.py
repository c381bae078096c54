"""Verification-task codegen and the command-line interface."""

import os
import subprocess
import sys

import pytest

from repro.cli import main
from repro.nat.config import NatConfig
from repro.verif.codegen import render_all_tasks, render_verification_task
from repro.verif.engine import ExhaustiveSymbolicEngine
from repro.verif.proofs import nat_proof
from repro.verif.semantics import NatSemantics


@pytest.fixture(scope="module")
def nat_result():
    return ExhaustiveSymbolicEngine().explore(nat_proof(NatConfig()).body)


class TestCodegen:
    def test_every_path_renders(self, nat_result):
        semantics = NatSemantics(NatConfig())
        text = render_all_tasks(nat_result.tree.paths, semantics, "VigNat")
        assert text.count("void verification_task") == nat_result.stats.paths

    def test_task_structure(self, nat_result):
        trace = next(t for t in nat_result.tree.paths if t.sends)
        semantics = NatSemantics(NatConfig())
        text = render_verification_task(trace, semantics.obligations(trace))
        assert "//@ assume(" in text
        assert "P5: model vs contract" in text
        assert "Semantic properties woven in" in text
        assert "send(" in text

    def test_declarations_cover_symbols(self, nat_result):
        trace = nat_result.tree.paths[0]
        text = render_verification_task(trace)
        for name in trace.widths:
            if any(name in str(c) for c in trace.pc):
                assert name.replace("#", "_") in text

    def test_assumes_follow_call_order(self, nat_result):
        trace = next(t for t in nat_result.tree.paths if len(t.calls) > 3)
        text = render_verification_task(trace)
        # The receive() call appears before constraints about the packet.
        recv_pos = text.index("receive()")
        assume_pos = text.index("assume((pkt_ethertype")
        assert recv_pos < assume_pos


class TestCli:
    def test_verify_nat_exit_zero(self, capsys):
        assert main(["verify", "nat"]) == 0
        out = capsys.readouterr().out
        assert "VERIFIED" in out

    def test_verify_firewall_exit_zero(self, capsys):
        assert main(["verify", "firewall"]) == 0

    def test_verify_discard_models(self, capsys):
        assert main(["verify", "discard", "--model", "good"]) == 0
        assert main(["verify", "discard", "--model", "over"]) == 1
        assert main(["verify", "discard", "--model", "under"]) == 1

    def test_emit_tasks(self, tmp_path, capsys):
        target = tmp_path / "tasks.c"
        assert main(["verify", "nat", "--emit-tasks", str(target)]) == 0
        assert "verification_task" in target.read_text()

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "cgnat", "--cache", "D"],
            ["verify", "cgnat", "--emit-tasks", "F"],
            ["verify", "nat", "--model", "over"],
        ],
        ids=["cgnat-cache", "cgnat-emit-tasks", "nat-model"],
    )
    def test_flags_the_nf_cannot_honour_are_rejected(self, argv, tmp_path, capsys):
        argv = [str(tmp_path / a) if a in ("D", "F") else a for a in argv]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "error:" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_a_closed_pipe_is_not_a_traceback(self):
        """``repro verify bridge | head -1``: the reader leaves early."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "verify", "bridge"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        proc.stdout.close()  # gone before the report is written
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141  # 128 + SIGPIPE, as a shell reports it
        assert stderr == b""

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        assert "translated" in capsys.readouterr().out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
