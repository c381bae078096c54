"""The operational scenario suite: measured loss/disruption vs. SLAs."""

import pytest

from repro.chain import (
    ScenarioSla,
    chain_scenarios,
    chaos_soak,
    default_chain_spec,
    promote_stage,
    scenario_breaches,
    warm_upgrade,
)

FLOWS = 12
ROUNDS = 12


@pytest.fixture(scope="module")
def spec():
    return default_chain_spec(max_flows=64)


class TestWarmUpgrade:
    def test_meets_default_sla(self, spec):
        report = warm_upgrade(spec, flows=FLOWS, rounds=ROUNDS)
        assert scenario_breaches(report) == []
        # Exactly one round rides the retired chain into the void.
        assert report.lost == FLOWS
        assert report.disruption_us == 1_000
        assert report.flows_lost == 0
        assert report.probe_lost == 0
        assert report.action_wall_us > 0
        assert report.details["checkpoint_stages"] == 3

    def test_breach_detection(self, spec):
        # A zero-loss SLA is unmeetable for an upgrade that abandons an
        # in-flight round: the report must say so rather than pass.
        perfection = ScenarioSla(min_availability=1.0, max_disruption_us=0)
        report = warm_upgrade(spec, flows=FLOWS, rounds=ROUNDS, sla=perfection)
        breaches = scenario_breaches(report)
        assert len(breaches) == 2
        assert any("availability" in b for b in breaches)
        assert any("disruption" in b for b in breaches)
        assert not report.sla_ok

    def test_record_shape(self, spec):
        record = warm_upgrade(spec, flows=FLOWS, rounds=ROUNDS).to_record()
        assert record["nf"] == "chain"
        assert record["scenario"] == "warm-upgrade"
        assert record["sla_ok"] is True
        assert record["offered"] == FLOWS * ROUNDS
        assert 0.0 < record["availability"] <= 1.0
        assert record["sla"]["max_flows_lost"] == 0


class TestPromoteStage:
    def test_measured_disruption_matches_down_window(self, spec):
        report = promote_stage(spec, flows=FLOWS, rounds=ROUNDS, down_rounds=2)
        assert scenario_breaches(report) == []
        # The disruption window is measured from lossy rounds, and the
        # stage was down for exactly two of them.
        assert report.lost == 2 * FLOWS
        assert report.disruption_us == 2_000
        assert report.flows_lost == 0  # the sync carried every mapping
        assert report.details["stage"] == "nat"

    def test_promoting_an_earlier_stage(self, spec):
        report = promote_stage(
            spec, stage_index=0, flows=FLOWS, rounds=ROUNDS, down_rounds=1
        )
        assert report.details["stage"] == "firewall"
        assert report.lost == FLOWS
        assert report.flows_lost == 0


class TestChaosSoak:
    def test_probe_rounds_after_the_storm_are_clean(self, spec):
        report = chaos_soak(spec, flows=FLOWS, rounds=15, seed=99)
        assert scenario_breaches(report) == []
        assert report.probe_lost == 0
        assert report.flows_lost == 0  # chaos eats packets, never state
        applied = report.details["faults_applied"]
        assert applied.get("reorder", 0) > 0

    def test_loss_is_confined_to_the_window(self, spec):
        report = chaos_soak(spec, flows=FLOWS, rounds=15, seed=99)
        window_start, window_end = report.details["window_us"]
        assert report.disruption_us <= window_end - window_start + 1_000


class TestSuite:
    def test_full_suite_passes_and_gates(self, spec):
        reports = chain_scenarios(spec, flows=FLOWS, rounds=ROUNDS)
        assert [r.scenario for r in reports] == [
            "warm-upgrade",
            "promote-stage",
            "chaos-soak",
        ]
        assert [scenario_breaches(r) for r in reports] == [[], [], []]

    def test_sla_validation(self):
        with pytest.raises(ValueError):
            ScenarioSla(min_availability=1.5, max_disruption_us=0)
        with pytest.raises(ValueError):
            ScenarioSla(min_availability=0.9, max_disruption_us=-1)
