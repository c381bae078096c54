"""The CI benchmark-regression gate (benchmarks/compare_bench.py)."""

import copy
import json
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2]))

from benchmarks.compare_bench import compare_dirs, main  # noqa: E402
from repro.eval.sweeps import RECOVERY_BUDGET_US  # noqa: E402

BASE_RECORDS = [
    {
        "nf": "noop",
        "flow_count": 64,
        "identical": True,
        "replay_pps_off": 1_000_000.0,
        "replay_pps_on": 1_200_000.0,
        "modeled_busy_ns_off": 260.0,
    },
    {
        "nf": "unverified-nat",
        "flow_count": 64,
        "identical": True,
        "replay_pps_off": 350_000.0,
        "replay_pps_on": 460_000.0,
        "modeled_busy_ns_off": 480.0,
    },
    {
        "nf": "verified-nat",
        "flow_count": 64,
        "identical": True,
        "replay_pps_off": 210_000.0,
        "replay_pps_on": 410_000.0,
        "modeled_busy_ns_off": 540.0,
    },
]

# Minimal healthy budget-gated files: the gate requires these baselines
# to exist and every one of their points to be matched.
FAILOVER_RECORDS = [
    {"nf": "verified-nat", "lag": 0, "flows_lost": 0, "recovery_us": 700},
    {"nf": "verified-nat", "lag": 8, "flows_lost": 3, "recovery_us": 730},
]

CGNAT_RECORDS = [
    {
        "nf": "det-nat",
        "flow_count": 64,
        "replay_pps_off": 200_000.0,
        "state_entries": 0,
        "checkpoint_bytes": 2,
        "identical": True,
    },
    {
        "nf": "det-nat",
        "flow_count": 640,
        "replay_pps_off": 195_000.0,
        "state_entries": 0,
        "checkpoint_bytes": 2,
        "identical": True,
    },
    {
        "nf": "verified-nat",
        "flow_count": 64,
        "replay_pps_off": 90_000.0,
        "state_entries": 64,
        "checkpoint_bytes": 4_000,
        "identical": True,
    },
    {
        "nf": "verified-nat",
        "flow_count": 640,
        "replay_pps_off": 80_000.0,
        "state_entries": 640,
        "checkpoint_bytes": 40_000,
        "identical": True,
    },
]


PROCS_RECORDS = [
    {
        "nf": "verified-nat",
        "workers": 1,
        "cores": 4,
        "replay_pps": 100_000.0,
        "identical": True,
    },
    {
        "nf": "verified-nat",
        "workers": 4,
        "cores": 4,
        "replay_pps": 250_000.0,
        "identical": True,
    },
]


CHAIN_RECORDS = [
    {
        "nf": "chain",
        "scenario": "warm-upgrade",
        "offered": 1_024,
        "delivered": 960,
        "lost": 64,
        "availability": 0.9375,
        "disruption_us": 1_000,
        "flows_lost": 0,
        "probe_lost": 0,
        "sla_ok": True,
        "details": {},
    },
    {
        "nf": "chain",
        "scenario": "promote-stage",
        "offered": 1_024,
        "delivered": 896,
        "lost": 128,
        "availability": 0.875,
        "disruption_us": 2_000,
        "flows_lost": 0,
        "probe_lost": 0,
        "sla_ok": True,
        "details": {},
    },
    {
        "nf": "chain",
        "scenario": "chaos-soak",
        "offered": 1_024,
        "delivered": 1_000,
        "lost": 24,
        "availability": 0.9766,
        "disruption_us": 4_000,
        "flows_lost": 0,
        "probe_lost": 0,
        "sla_ok": True,
        "details": {"faults_applied": {"link-drop": 5, "reorder": 3}},
    },
]


def _write(
    directory: pathlib.Path,
    records,
    failover=FAILOVER_RECORDS,
    cgnat=CGNAT_RECORDS,
    procs=PROCS_RECORDS,
    chain=CHAIN_RECORDS,
) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "BENCH_fastpath.json").write_text(json.dumps(records))
    if failover is not None:
        (directory / "BENCH_failover.json").write_text(json.dumps(failover))
    if cgnat is not None:
        (directory / "BENCH_cgnat.json").write_text(json.dumps(cgnat))
    if procs is not None:
        (directory / "BENCH_procs.json").write_text(json.dumps(procs))
    if chain is not None:
        (directory / "BENCH_chain.json").write_text(json.dumps(chain))


@pytest.fixture
def dirs(tmp_path):
    baseline = tmp_path / "baseline"
    fresh = tmp_path / "fresh"
    _write(baseline, BASE_RECORDS)
    return baseline, fresh


def test_identical_results_pass(dirs):
    baseline, fresh = dirs
    _write(fresh, BASE_RECORDS)
    assert compare_dirs(baseline, fresh, tolerance=0.25) == []


def test_small_drift_within_tolerance_passes(dirs):
    baseline, fresh = dirs
    drifted = copy.deepcopy(BASE_RECORDS)
    for record in drifted:
        record["replay_pps_off"] *= 0.85
        record["replay_pps_on"] *= 1.1
    _write(fresh, drifted)
    assert compare_dirs(baseline, fresh, tolerance=0.25) == []


def test_seeded_regression_fails(dirs):
    """The acceptance scenario: a >25% replay throughput drop must fail."""
    baseline, fresh = dirs
    regressed = copy.deepcopy(BASE_RECORDS)
    regressed[2]["replay_pps_on"] *= 0.6  # verified-nat down 40%
    _write(fresh, regressed)
    failures = compare_dirs(baseline, fresh, tolerance=0.25)
    assert len(failures) == 1
    assert "verified-nat" in failures[0]
    assert "replay_pps_on" in failures[0]
    assert main(
        ["--baseline", str(baseline), "--fresh", str(fresh)]
    ) == 1


def test_lost_byte_identity_fails(dirs):
    baseline, fresh = dirs
    diverged = copy.deepcopy(BASE_RECORDS)
    diverged[0]["identical"] = False
    _write(fresh, diverged)
    failures = compare_dirs(baseline, fresh, tolerance=0.25)
    assert any("byte-identity" in f for f in failures)


def test_lost_nf_ordering_fails(dirs):
    baseline, fresh = dirs
    reordered = copy.deepcopy(BASE_RECORDS)
    # The noop forwarder suddenly costs more than the verified NAT.
    reordered[0]["modeled_busy_ns_off"] = 900.0
    _write(fresh, reordered)
    failures = compare_dirs(baseline, fresh, tolerance=0.25)
    assert any("ordering" in f for f in failures)


def test_missing_fresh_file_fails(dirs):
    baseline, fresh = dirs
    fresh.mkdir()
    failures = compare_dirs(baseline, fresh, tolerance=0.25)
    assert any("missing" in f for f in failures)


def test_no_common_points_fails(dirs):
    baseline, fresh = dirs
    other = copy.deepcopy(BASE_RECORDS)
    for record in other:
        record["flow_count"] = 4096
    _write(fresh, other)
    failures = compare_dirs(baseline, fresh, tolerance=0.25)
    assert any("no common" in f for f in failures)


def test_baseline_only_points_do_not_fail(dirs):
    """Smoke scale sweeps fewer points; losing coverage only warns —
    for trend-tracking files, not budget-gating ones."""
    baseline, fresh = dirs
    subset = copy.deepcopy(BASE_RECORDS[:2])
    _write(fresh, subset)
    assert compare_dirs(baseline, fresh, tolerance=0.25) == []


def test_main_passes_on_identical(dirs, capsys):
    baseline, fresh = dirs
    _write(fresh, BASE_RECORDS)
    assert main(["--baseline", str(baseline), "--fresh", str(fresh)]) == 0
    assert "gate passed" in capsys.readouterr().out


class TestBudgetGatedStrictness:
    """Failover and cgnat bound a budget: dropped points and deleted
    baselines are hard errors, never warnings."""

    def test_baseline_only_point_is_a_hard_error(self, dirs):
        baseline, fresh = dirs
        _write(fresh, BASE_RECORDS, failover=FAILOVER_RECORDS[:1])
        failures = compare_dirs(baseline, fresh, tolerance=0.25)
        assert any(
            "BENCH_failover.json" in f and "must be matched" in f
            for f in failures
        )

    def test_dropped_cgnat_point_is_a_hard_error(self, dirs):
        baseline, fresh = dirs
        # Losing the 10x det-nat point would let a regrowing footprint
        # slip past the flatness check.
        _write(fresh, BASE_RECORDS, cgnat=CGNAT_RECORDS[:1] + CGNAT_RECORDS[2:])
        failures = compare_dirs(baseline, fresh, tolerance=0.25)
        assert any(
            "BENCH_cgnat.json" in f and "must be matched" in f for f in failures
        )

    def test_deleted_budget_baseline_is_a_hard_error(self, tmp_path):
        baseline = tmp_path / "baseline"
        fresh = tmp_path / "fresh"
        _write(baseline, BASE_RECORDS, cgnat=None)
        _write(fresh, BASE_RECORDS)
        failures = compare_dirs(baseline, fresh, tolerance=0.25)
        assert any(
            "BENCH_cgnat.json" in f and "baseline missing" in f
            for f in failures
        )

    def test_recovery_regression_still_gates(self, dirs):
        """Recovery is wall time, so it is not diffed against the
        baseline; the sweep's budget claim still bounds it."""
        baseline, fresh = dirs
        slower = copy.deepcopy(FAILOVER_RECORDS)
        slower[0]["recovery_us"] = 2_000  # +186%, inside the budget
        _write(fresh, BASE_RECORDS, failover=slower)
        assert compare_dirs(baseline, fresh, tolerance=0.25) == []
        slower[0]["recovery_us"] = RECOVERY_BUDGET_US + 1
        _write(fresh, BASE_RECORDS, failover=slower)
        failures = compare_dirs(baseline, fresh, tolerance=0.25)
        assert any("BENCH_failover.json" in f and "budget" in f for f in failures)


class TestCgnatInvariants:
    """The fresh-file flatness invariant: the sweep must keep measuring
    what it claims to, even when every point matches its baseline."""

    def test_healthy_records_pass(self, dirs):
        baseline, fresh = dirs
        _write(fresh, BASE_RECORDS)
        assert compare_dirs(baseline, fresh, tolerance=0.25) == []

    def test_det_nat_with_state_fails(self, dirs):
        baseline, fresh = dirs
        stateful = copy.deepcopy(CGNAT_RECORDS)
        stateful[1]["state_entries"] = 640
        _write(fresh, BASE_RECORDS, cgnat=stateful)
        failures = compare_dirs(baseline, fresh, tolerance=0.25)
        assert any("zero flow state" in f for f in failures)

    def test_det_nat_growing_checkpoint_fails(self, dirs):
        baseline, fresh = dirs
        growing = copy.deepcopy(CGNAT_RECORDS)
        growing[1]["checkpoint_bytes"] = 4_000
        _write(fresh, BASE_RECORDS, cgnat=growing)
        failures = compare_dirs(baseline, fresh, tolerance=0.25)
        assert any("not flat" in f for f in failures)

    def test_stateful_contrast_must_grow(self, dirs):
        baseline, fresh = dirs
        flat = copy.deepcopy(CGNAT_RECORDS)
        flat[3]["state_entries"] = 64  # verified-nat stopped growing
        _write(fresh, BASE_RECORDS, cgnat=flat)
        failures = compare_dirs(baseline, fresh, tolerance=0.25)
        assert any("stateful contrast" in f for f in failures)

    def test_missing_state_fields_fail(self, dirs):
        baseline, fresh = dirs
        stripped = copy.deepcopy(CGNAT_RECORDS)
        for record in stripped:
            record.pop("checkpoint_bytes")
        _write(fresh, BASE_RECORDS, cgnat=stripped)
        failures = compare_dirs(baseline, fresh, tolerance=0.25)
        assert any("missing state_entries/checkpoint_bytes" in f for f in failures)


class TestProcsInvariants:
    """The process-runtime gate: byte-identity always, scaling judged
    against the machine shape the fresh run actually had."""

    def test_healthy_records_pass(self, dirs):
        baseline, fresh = dirs
        _write(fresh, BASE_RECORDS)
        assert compare_dirs(baseline, fresh, tolerance=0.25) == []

    def test_lost_oracle_identity_fails(self, dirs):
        baseline, fresh = dirs
        diverged = copy.deepcopy(PROCS_RECORDS)
        diverged[1]["identical"] = False
        _write(fresh, BASE_RECORDS, procs=diverged)
        failures = compare_dirs(baseline, fresh, tolerance=0.25)
        assert any(
            "BENCH_procs.json" in f and "byte-identity" in f for f in failures
        )

    def test_sub_2x_scaling_on_four_cores_fails(self, dirs):
        """The acceptance claim: 4 workers on >=4 cores must clear 2x."""
        baseline, fresh = dirs
        slow = copy.deepcopy(PROCS_RECORDS)
        slow[1]["replay_pps"] = 150_000.0  # 1.5x < the required 2x
        _write(fresh, BASE_RECORDS, procs=slow)
        failures = compare_dirs(baseline, fresh, tolerance=0.25)
        assert any(
            "BENCH_procs.json" in f and "below required" in f
            for f in failures
        )

    def test_single_core_run_only_enforces_the_floor(self, dirs):
        """On a 1-core box, 4 workers at 0.6x is overhead, not a
        regression — but 0.2x means the pipes ate the runtime."""
        baseline, fresh = dirs
        one_core = copy.deepcopy(PROCS_RECORDS)
        for record in one_core:
            record["cores"] = 1
        one_core[1]["replay_pps"] = 60_000.0
        _write(fresh, BASE_RECORDS, procs=one_core)
        assert compare_dirs(baseline, fresh, tolerance=0.25) == []
        one_core[1]["replay_pps"] = 20_000.0
        _write(fresh, BASE_RECORDS, procs=one_core)
        failures = compare_dirs(baseline, fresh, tolerance=0.25)
        assert any("single-core floor" in f for f in failures)

    def test_missing_anchor_fails(self, dirs):
        baseline, fresh = dirs
        _write(fresh, BASE_RECORDS, procs=PROCS_RECORDS[1:])
        failures = compare_dirs(baseline, fresh, tolerance=0.25)
        assert any("1-worker anchor" in f for f in failures)

    def test_cross_shape_pps_comparison_is_skipped(self, dirs):
        """A 4-core baseline vs a 1-core fresh run: absolute rates are
        incomparable, so a big drop must not read as a regression."""
        baseline, fresh = dirs
        one_core = copy.deepcopy(PROCS_RECORDS)
        for record in one_core:
            record["cores"] = 1
            record["replay_pps"] *= 0.4
        one_core[1]["replay_pps"] = one_core[0]["replay_pps"] * 0.6
        _write(fresh, BASE_RECORDS, procs=one_core)
        assert compare_dirs(baseline, fresh, tolerance=0.25) == []

    def test_dropped_procs_point_is_a_hard_error(self, dirs):
        baseline, fresh = dirs
        _write(fresh, BASE_RECORDS, procs=PROCS_RECORDS[:1])
        failures = compare_dirs(baseline, fresh, tolerance=0.25)
        assert any(
            "BENCH_procs.json" in f and "must be matched" in f
            for f in failures
        )


class TestChainInvariants:
    """The operational-suite gate: measured SLAs, lossless state
    carriage across control actions, and a fault ledger that proves
    the chaos soak actually soaked."""

    def test_healthy_records_pass(self, dirs):
        baseline, fresh = dirs
        _write(fresh, BASE_RECORDS)
        assert compare_dirs(baseline, fresh, tolerance=0.25) == []

    def test_sla_breach_fails(self, dirs):
        baseline, fresh = dirs
        breached = copy.deepcopy(CHAIN_RECORDS)
        breached[0]["sla_ok"] = False
        _write(fresh, BASE_RECORDS, chain=breached)
        failures = compare_dirs(baseline, fresh, tolerance=0.25)
        assert any(
            "BENCH_chain.json" in f and "breached its declared SLA" in f
            for f in failures
        )

    def test_mapping_loss_during_promotion_fails(self, dirs):
        baseline, fresh = dirs
        lossy = copy.deepcopy(CHAIN_RECORDS)
        lossy[1]["flows_lost"] = 2
        _write(fresh, BASE_RECORDS, chain=lossy)
        failures = compare_dirs(baseline, fresh, tolerance=0.25)
        # Both the generic 0 -> >0 transition gate and the chain
        # invariant must name the loss.
        assert any("must carry state" in f for f in failures)
        assert any("flows_lost regressed from 0" in f for f in failures)

    def test_quiet_chaos_soak_fails(self, dirs):
        baseline, fresh = dirs
        quiet = copy.deepcopy(CHAIN_RECORDS)
        quiet[2]["details"]["faults_applied"] = {}
        _write(fresh, BASE_RECORDS, chain=quiet)
        failures = compare_dirs(baseline, fresh, tolerance=0.25)
        assert any("applied no faults" in f for f in failures)

    def test_soak_without_reordering_fails(self, dirs):
        baseline, fresh = dirs
        unshuffled = copy.deepcopy(CHAIN_RECORDS)
        unshuffled[2]["details"]["faults_applied"] = {"link-drop": 5}
        _write(fresh, BASE_RECORDS, chain=unshuffled)
        failures = compare_dirs(baseline, fresh, tolerance=0.25)
        assert any("reordering link" in f for f in failures)

    def test_disruption_regression_fails(self, dirs):
        baseline, fresh = dirs
        slower = copy.deepcopy(CHAIN_RECORDS)
        slower[0]["disruption_us"] = 5_000  # 5x the baseline window
        _write(fresh, BASE_RECORDS, chain=slower)
        failures = compare_dirs(baseline, fresh, tolerance=0.25)
        assert any(
            "BENCH_chain.json" in f and "disruption_us" in f
            for f in failures
        )

    def test_dropped_scenario_is_a_hard_error(self, dirs):
        baseline, fresh = dirs
        _write(fresh, BASE_RECORDS, chain=CHAIN_RECORDS[:2])
        failures = compare_dirs(baseline, fresh, tolerance=0.25)
        assert any(
            "BENCH_chain.json" in f and "must be matched" in f
            for f in failures
        )

    def test_deleted_chain_baseline_is_a_hard_error(self, tmp_path):
        baseline = tmp_path / "baseline"
        fresh = tmp_path / "fresh"
        _write(baseline, BASE_RECORDS, chain=None)
        _write(fresh, BASE_RECORDS)
        failures = compare_dirs(baseline, fresh, tolerance=0.25)
        assert any(
            "BENCH_chain.json" in f and "baseline missing" in f
            for f in failures
        )


class TestWholeKeyLabels:
    """Log lines and messages name a point by its description's whole
    key, so rows differing only in a later key field stay apart."""

    # Two cores: below the regime where shm must out-run pipe.
    PAIR = [
        dict(record, transport=transport, cores=2)
        for transport in ("pipe", "shm")
        for record in PROCS_RECORDS
    ]

    def test_procs_rows_print_their_transport(self, dirs, capsys):
        baseline, fresh = dirs
        _write(baseline, BASE_RECORDS, procs=self.PAIR)
        _write(fresh, BASE_RECORDS, procs=self.PAIR)
        assert compare_dirs(baseline, fresh, tolerance=0.25) == []
        out = capsys.readouterr().out
        assert "verified-nat@4@pipe replay_pps" in out
        assert "verified-nat@4@shm replay_pps" in out
        assert "verified-nat@4 replay_pps" not in out

    def test_no_common_points_names_the_files_own_key(self, dirs):
        baseline, fresh = dirs
        _write(baseline, BASE_RECORDS, procs=self.PAIR[:2])
        _write(fresh, BASE_RECORDS, procs=self.PAIR[2:])
        failures = compare_dirs(baseline, fresh, tolerance=0.25)
        assert any(
            "no common (nf, workers, transport) points" in f for f in failures
        )


def test_failover_fresh_file_is_judged_on_its_own(dirs):
    """Nothing moved against the baseline, yet the fresh file breaks a
    failover claim: the channel cut lost more than its window."""
    baseline, fresh = dirs
    records = [dict(r, deltas_lost=r["lag"]) for r in FAILOVER_RECORDS]
    _write(baseline, BASE_RECORDS, failover=records)
    _write(fresh, BASE_RECORDS, failover=records)
    assert compare_dirs(baseline, fresh, tolerance=0.25) == []
    records[1]["deltas_lost"] = 11
    _write(baseline, BASE_RECORDS, failover=records)
    _write(fresh, BASE_RECORDS, failover=records)
    failures = compare_dirs(baseline, fresh, tolerance=0.25)
    assert any(
        "BENCH_failover.json" in f and "loses exactly 8 deltas" in f
        for f in failures
    )
