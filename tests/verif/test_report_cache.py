"""Proof-report serialization and the CLI proof cache."""

import json
import pathlib

import pytest

import repro
from repro import cli
from repro.cli import _proof_cache_key, main
from repro.verif import proofs
from repro.verif.report import ProofReport


def make_report():
    report, _ = proofs.nat_proof().prove()
    return report


class TestSerialization:
    def test_roundtrip(self):
        report = make_report()
        data = json.loads(json.dumps(report.to_dict()))
        restored = ProofReport.from_dict(data)
        assert restored.verified == report.verified
        assert restored.paths == report.paths
        assert restored.traces == report.traces
        assert [v.name for v in restored.verdicts()] == ["P1", "P2", "P3", "P4", "P5"]
        assert restored.render() == report.render()

    def test_failures_survive_roundtrip(self):
        report = make_report()
        report.p1.failures.append("synthetic failure")
        report.p1.proven = False
        restored = ProofReport.from_dict(report.to_dict())
        assert not restored.verified
        assert restored.p1.failures == report.p1.failures


SRC = pathlib.Path(repro.__file__).parent


def edit_on_disk(monkeypatch, relative, old=b"", new=b"# edited\n"):
    """Make the fingerprint's reader see ``relative`` with ``old`` replaced
    by ``new`` (appended when ``old`` is empty), as after a real edit."""
    target = SRC / relative
    read = cli._source_bytes

    def edited(path):
        data = read(path)
        if path != target:
            return data
        assert old in data
        return data.replace(old, new) if old else data + new

    monkeypatch.setattr(cli, "_source_bytes", edited)


class TestProofCache:
    @pytest.mark.parametrize(
        "relative",
        [
            "nat/limiter.py",
            "verif/nf_env_limiter.py",
            "verif/proofs.py",
            "verif/expr.py",
        ],
    )
    def test_key_moves_with_every_source_the_proof_rests_on(
        self, relative, monkeypatch
    ):
        # Three files the hand-kept module list used to leave out.
        before = _proof_cache_key("limiter")
        edit_on_disk(monkeypatch, relative)
        assert _proof_cache_key("limiter") != before

    def test_a_warm_cache_does_not_outlive_the_code_it_proved(
        self, tmp_path, capsys, monkeypatch
    ):
        """Cache a proof of the limiter, break its budget guard, verify
        again: the cached VERIFIED must not be served."""
        cache = str(tmp_path / "proofs")
        assert main(["verify", "limiter", "--cache", cache]) == 0
        assert main(["verify", "limiter", "--cache", cache]) == 0
        assert "loaded from cache" in capsys.readouterr().out

        guard = b"if count < config.max_packets:"
        broken = b"if count <= config.max_packets:"
        edit_on_disk(monkeypatch, "nat/limiter.py", guard, broken)
        namespace = {"__name__": "repro.nat.limiter"}
        source = cli._source_bytes(SRC / "nat/limiter.py")
        exec(compile(source, "limiter.py (edited)", "exec"), namespace)
        # The PROOFS entry reads the function where proofs.py bound it.
        monkeypatch.setattr(
            proofs,
            "limiter_loop_iteration",
            namespace["limiter_loop_iteration"],
        )

        assert main(["verify", "limiter", "--cache", cache]) == 1
        out = capsys.readouterr().out
        assert "loaded from cache" not in out
        assert "bump-only-under-budget not provable" in out

    def test_key_stable_within_a_session(self):
        assert _proof_cache_key("nat") == _proof_cache_key("nat")

    def test_key_differs_per_nf(self):
        assert _proof_cache_key("nat") != _proof_cache_key("firewall")

    def test_cache_roundtrip(self, tmp_path, capsys):
        cache = str(tmp_path / "proofs")
        assert main(["verify", "nat", "--cache", cache]) == 0
        first = capsys.readouterr().out
        assert "proof cached at" in first
        assert main(["verify", "nat", "--cache", cache]) == 0
        second = capsys.readouterr().out
        assert "loaded from cache" in second
        assert "VERIFIED" in second

    def test_cached_failure_keeps_failing_exit(self, tmp_path, capsys):
        cache = str(tmp_path / "proofs")
        assert main(["verify", "discard", "--model", "over", "--cache", cache]) == 1
        capsys.readouterr()
        assert main(["verify", "discard", "--model", "over", "--cache", cache]) == 1

    def test_a_warm_cache_still_emits_tasks_and_coverage(self, tmp_path, capsys):
        """A cached report holds no traces: asking for the tasks or the
        coverage re-proves instead of silently dropping the flag."""
        cache = str(tmp_path / "proofs")
        cold, warm = tmp_path / "cold.c", tmp_path / "warm.c"
        assert main(["verify", "nat", "--cache", cache, "--emit-tasks", str(cold)]) == 0
        capsys.readouterr()
        argv = ["verify", "nat", "--cache", cache, "--emit-tasks", str(warm)]
        assert main(argv + ["--coverage"]) == 0
        out = capsys.readouterr().out
        assert "loaded from cache" not in out
        assert "Branch coverage" in out
        assert warm.read_bytes() == cold.read_bytes()
        # With neither flag the same cache entry is served.
        assert main(["verify", "nat", "--cache", cache]) == 0
        assert "loaded from cache" in capsys.readouterr().out


class TestCliExperiments:
    def test_verification_artifact(self, capsys):
        assert main(["experiments", "verification"]) == 0
        out = capsys.readouterr().out
        assert "VERIFIED" in out
        assert "108 paths" in out  # the paper's reference number
