"""The sweep descriptions (repro.eval.sweeps): claims, baselines, CLI."""

import copy
import dataclasses
import json
import pathlib

import pytest

from repro.cli import build_parser, main
from repro.eval.sweeps import RECOVERY_BUDGET_US, SWEEPS

RESULTS = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "results"
BENCH_FILES = sorted(RESULTS.glob("BENCH_*.json"))


def committed(name):
    """A mutable copy of a sweep's committed (claim-clean) records."""
    return copy.deepcopy(json.loads((RESULTS / SWEEPS[name].bench_file).read_text()))


def only(records, **fields):
    return [r for r in records if all(r[k] == v for k, v in fields.items())]


def breaches_of(name, records):
    return "\n".join(SWEEPS[name].claims(records))


class TestCommittedBaselines:
    """A claim edit the committed baselines cannot meet fails here, in
    tier-1, not in the CI gate."""

    def test_there_are_baselines(self):
        assert BENCH_FILES

    @pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
    def test_file_belongs_to_one_description_and_meets_its_claims(self, path):
        owners = [s for s in SWEEPS.values() if s.bench_file == path.name]
        assert len(owners) == 1
        (sweep,) = owners
        records = json.loads(path.read_text())
        for record in records:
            assert set(sweep.key) <= set(record), record
        keys = [sweep.key_of(r) for r in records]
        assert len(set(keys)) == len(keys)
        assert sweep.claims(records) == []

    @pytest.mark.parametrize(
        "sweep",
        [s for s in SWEEPS.values() if s.bench_file],
        ids=lambda sweep: sweep.name,
    )
    def test_committed_table_is_the_rendering_of_the_committed_records(self, sweep):
        """A table cannot say something its record file does not."""
        records = json.loads((RESULTS / sweep.bench_file).read_text())
        table = (RESULTS / f"{sweep.name}_sweep.txt").read_text()
        assert sweep.render(records) + "\n" == table

    def test_every_description_names_a_distinct_file_and_three_grids(self):
        files = [s.bench_file for s in SWEEPS.values() if s.bench_file]
        assert len(set(files)) == len(files)
        for sweep in SWEEPS.values():
            assert set(sweep.grids) == {"smoke", "quick", "paper"}, sweep.name


def test_toolchain_table_matches_the_descriptions():
    """docs/TOOLCHAIN.md section 8 restates key, file and missing-point rule."""
    doc = RESULTS.parents[1] / "docs" / "TOOLCHAIN.md"
    rows = {
        cells[1].strip("` "): cells
        for cells in (line.split("|") for line in doc.read_text().splitlines())
        if len(cells) == 8 and cells[1].strip().startswith("`")
    }
    assert set(rows) == set(SWEEPS)
    for name, sweep in SWEEPS.items():
        _, _, _, key, bench_file, missing, _, _ = rows[name]
        assert key.strip() == ", ".join(sweep.key)
        assert bench_file.strip("` ") == (sweep.bench_file or "—")
        assert ("error" in missing) == sweep.strict


class TestFastpathClaims:
    def test_committed_rates_are_the_packets_over_the_seconds_recorded(self):
        # The rate a record states is the rate that was timed: one pass
        # of ``packets`` in ``wall_seconds``.
        for record in committed("fastpath"):
            for cache in ("off", "on"):
                replayed = record[f"replay_pps_{cache}"] * record[f"wall_seconds_{cache}"]
                assert replayed == pytest.approx(record["packets"], rel=0.01), record

    def test_compiled_below_its_speedup_at_every_hot_point(self):
        records = committed("fastpath")
        for record in only(records, nf="verified-nat"):
            record["compiled_speedup_over_off"] = 1.1
        assert "compiled closures below 1.3x" in breaches_of("fastpath", records)

    def test_one_hot_point_clearing_the_speedup_is_enough(self):
        records = committed("fastpath")
        hot, churning = only(records, nf="verified-nat")
        hot["compiled_speedup_over_off"] = 1.31
        churning["compiled_speedup_over_off"] = 0.9
        assert breaches_of("fastpath", records) == ""

    def test_noop_compiled_path_may_not_lose(self):
        # The no-op forwarder has nothing to skip, so ``build_nf`` never
        # wraps it: its rows are the ordering's baseline with on == off
        # (the same modeled cost both ways, none of the cache's own
        # readings), and its wall-clock ratios are two timings of the
        # same code, which no claim judges.
        records = committed("fastpath")
        hot, churning = only(records, nf="noop")
        for record in (hot, churning):
            assert not {"hit_rate", "counters", "compiled_counters"} & set(record)
            assert record["modeled_busy_ns_on"] == record["modeled_busy_ns_off"]
        hot["compiled_speedup_over_off"] = churning["wall_speedup"] = 0.4
        assert breaches_of("fastpath", records) == ""
        # The cache's claims read the wrapped rows, and only those.
        only(records, nf="verified-nat")[0]["counters"] = {}
        assert "verified-nat @ 64 flows: the cache saw no traffic" in (
            breaches_of("fastpath", records)
        )

    def test_lost_raw_identity(self):
        records = committed("fastpath")
        only(records, nf="noop")[0]["wire_identical"] = False
        assert "lost wire-backed byte-identity" in breaches_of("fastpath", records)

    def test_no_raw_capable_record(self):
        records = committed("fastpath")
        for record in records:
            record.pop("compiled_counters", None)
        assert "no record's NF compiles closures" in breaches_of(
            "fastpath", records
        )

    def test_closures_that_never_ran(self):
        records = committed("fastpath")
        only(records, nf="unverified-nat")[0]["compiled_counters"][
            "fastpath_compiled_hits"
        ] = 0
        assert "compiled closures did not run cleanly" in breaches_of(
            "fastpath", records
        )

    def test_cached_replay_below_its_speedup(self):
        records = committed("fastpath")
        for record in only(records, nf="verified-nat"):
            record["wall_speedup"] = 1.2
        assert "cached replay below 1.5x" in breaches_of("fastpath", records)

    def test_ordering_is_judged_with_the_cache_on_too(self):
        records = committed("fastpath")
        only(records, nf="noop", flow_count=64)[0]["modeled_busy_ns_on"] = 900.0
        assert "ordering lost at 64 flows (cache on)" in breaches_of(
            "fastpath", records
        )


class TestFailoverClaims:
    """Judged on a fresh file alone — no baseline to diff against."""

    def test_flow_loss_on_a_synchronous_channel(self):
        records = committed("failover")
        only(records, lag=0)[0]["flows_lost"] = 2
        assert "synchronous channel" in breaches_of("failover", records)

    def test_recovery_over_budget(self):
        records = committed("failover")
        records[1]["recovery_us"] = RECOVERY_BUDGET_US + 1
        assert (
            f"recovery took {RECOVERY_BUDGET_US + 1}us "
            f"(budget {RECOVERY_BUDGET_US}us)"
        ) in breaches_of("failover", records)

    def test_a_kill_that_queued_nothing_proves_nothing(self):
        records = committed("failover")
        records[0]["packets_lost_queue"] = 0
        assert "the kill cost nothing" in breaches_of("failover", records)

    def test_probe_loss_beyond_flow_loss(self):
        records = committed("failover")
        record = only(records, lag=8)[0]
        record["probe_delivered"] = (
            record["probe_offered"] - record["flows_lost"] - 1
        )
        assert "probe replies lost after recovery" in breaches_of(
            "failover", records
        )

    def test_cut_must_destroy_exactly_the_lag(self):
        records = committed("failover")
        only(records, lag=8)[0]["deltas_lost"] = 9
        assert "loses exactly 8 deltas" in breaches_of("failover", records)

    def test_loss_must_be_monotone_in_lag(self):
        records = committed("failover")
        lagged = only(records, nf="verified-nat", lag=8)[0]
        assert lagged["flows_lost"] > 0
        records.append(dict(lagged, lag=64, deltas_lost=64, flows_lost=0))
        text = breaches_of("failover", records)
        assert "not monotone in replication lag" in text
        assert "lost no flows" in text


def _procs_row(cores, *rates):
    return [
        {
            "nf": "verified-nat",
            "workers": workers,
            "transport": "shm",
            "cores": cores,
            "replay_pps": rate,
            "identical": True,
        }
        for workers, rate in zip((1, 2, 4), rates)
    ]


class TestProcsClaims:
    """The multi-core regime is stated once: cores >= 4."""

    @pytest.mark.parametrize("cores", [1, 2, 3])
    def test_below_four_cores_only_the_floor_applies(self, cores):
        # Workers share CPUs with a busy parent: 0.5-0.8x is overhead.
        assert breaches_of("procs", _procs_row(cores, 100e3, 80e3, 50e3)) == ""
        text = breaches_of("procs", _procs_row(cores, 100e3, 80e3, 20e3))
        assert "single-core floor 0.25" in text

    def test_four_workers_on_four_cores_must_clear_2x(self):
        assert breaches_of("procs", _procs_row(4, 100e3, 110e3, 205e3)) == ""
        text = breaches_of("procs", _procs_row(4, 100e3, 110e3, 190e3))
        assert "190,000 below required 200,000" in text
        assert "0.50 x 4x ideal on 4 core(s)" in text

    def test_missing_anchor_fails(self):
        text = breaches_of("procs", _procs_row(2, 100e3, 80e3, 50e3)[1:])
        assert "1-worker anchor" in text

    def test_shm_must_beat_pipe_where_there_are_cores(self):
        shm = _procs_row(4, 100e3, 150e3, 240e3)
        pipe = [dict(r, transport="pipe") for r in shm]
        pipe[2]["replay_pps"] = 200e3
        assert "not paying for itself" in breaches_of("procs", shm + pipe)
        for record in shm + pipe:
            record["cores"] = 2
        assert breaches_of("procs", shm + pipe) == ""

    def test_on_one_core_shm_must_move_bytes_cheaper(self):
        shm = _procs_row(1, 100e3, 80e3, 60e3)
        pipe = [dict(r, transport="pipe") for r in shm]
        for record in shm:
            record["transport_ns"] = {"encode_ns": 10, "copy_ns": 50}
        for record in pipe:
            record["transport_ns"] = {"encode_ns": 10, "copy_ns": 40}
        assert "must move bytes cheaper" in breaches_of("procs", shm + pipe)
        for record in shm + pipe:
            record["cores"] = 2
        assert breaches_of("procs", shm + pipe) == ""


def test_cgnat_stateful_entries_track_flows_one_for_one():
    records = committed("cgnat")
    only(records, nf="verified-nat", flow_count=5_120)[0]["state_entries"] = 5_000
    assert "one for one" in breaches_of("cgnat", records)


def test_chain_ledger_and_window_are_read_off_the_record():
    records = committed("chain")
    upgrade = only(records, scenario="warm-upgrade")[0]
    upgrade["lost"] += upgrade["flows_total"]
    upgrade["delivered"] -= upgrade["flows_total"]
    assert "round(s) of" in breaches_of("chain", records)


class TestExperimentsCli:
    def test_parser_choices_are_the_descriptions_plus_the_figures(self):
        (subparsers,) = build_parser()._subparsers._group_actions
        artifact = next(
            action
            for action in subparsers.choices["experiments"]._actions
            if action.dest == "artifact"
        )
        assert sorted(artifact.choices) == sorted(
            [*SWEEPS, "fig12", "fig13", "fig14", "metrics", "verification"]
        )

    @pytest.mark.parametrize(
        "name, damage, breach",
        [
            (
                "failover",
                {"recovery_us": RECOVERY_BUDGET_US + 1},
                f"budget {RECOVERY_BUDGET_US}us",
            ),
            ("chain", {"flows_lost": 3}, "must carry state"),
        ],
    )
    def test_sweep_subcommand_exits_on_its_claims(
        self, name, damage, breach, monkeypatch, capsys
    ):
        assert main(["experiments", name]) == 0
        assert f"all {name} claims hold" in capsys.readouterr().out

        sweep = SWEEPS[name]

        def breaching_run(**grid):
            return [{**record, **damage} for record in sweep.run(**grid)]

        monkeypatch.setitem(
            SWEEPS, name, dataclasses.replace(sweep, run=breaching_run)
        )
        assert main(["experiments", name]) == 1
        out = capsys.readouterr().out
        assert f"{name} claims VIOLATED" in out
        assert breach in out
