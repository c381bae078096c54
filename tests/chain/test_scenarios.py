"""The operational scenario suite: measured loss/disruption vs. SLAs."""

import pytest

from repro.chain import (
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
        record = warm_upgrade(spec, flows=FLOWS, rounds=ROUNDS)
        assert scenario_breaches(record) == []
        # Exactly one round rides the retired chain into the void.
        assert record["lost"] == FLOWS
        assert record["disruption_us"] == 1_000
        assert record["flows_lost"] == 0
        assert record["probe_lost"] == 0
        assert record["action_wall_us"] > 0
        assert record["details"]["checkpoint_stages"] == 3

    def test_breach_detection(self, spec):
        # A zero-loss SLA is unmeetable for an upgrade that abandons an
        # in-flight round: the judgement must say so rather than pass.
        record = warm_upgrade(spec, flows=FLOWS, rounds=ROUNDS)
        record["sla"] = {
            "min_availability": 1.0,
            "max_disruption_us": 0,
            "max_flows_lost": 0,
            "max_probe_loss": 0,
        }
        breaches = scenario_breaches(record)
        assert len(breaches) == 2
        assert any("availability" in b for b in breaches)
        assert any("disruption" in b for b in breaches)

    def test_record_shape(self, spec):
        record = warm_upgrade(spec, flows=FLOWS, rounds=ROUNDS)
        assert record["nf"] == "chain"
        assert record["scenario"] == "warm-upgrade"
        assert record["sla_ok"] is True
        assert record["offered"] == FLOWS * ROUNDS
        assert 0.0 < record["availability"] <= 1.0
        assert record["sla"]["max_flows_lost"] == 0


class TestPromoteStage:
    def test_measured_disruption_matches_down_window(self, spec):
        record = promote_stage(spec, flows=FLOWS, rounds=ROUNDS, down_rounds=2)
        assert scenario_breaches(record) == []
        # The disruption window is measured from lossy rounds, and the
        # stage was down for exactly two of them.
        assert record["lost"] == 2 * FLOWS
        assert record["disruption_us"] == 2_000
        assert record["flows_lost"] == 0  # the sync carried every mapping
        assert record["details"]["stage"] == "nat"

    def test_promoting_an_earlier_stage(self, spec):
        record = promote_stage(
            spec, stage_index=0, flows=FLOWS, rounds=ROUNDS, down_rounds=1
        )
        assert record["details"]["stage"] == "firewall"
        assert record["lost"] == FLOWS
        assert record["flows_lost"] == 0


class TestChaosSoak:
    def test_probe_rounds_after_the_storm_are_clean(self, spec):
        record = chaos_soak(spec, flows=FLOWS, rounds=15, seed=99)
        assert scenario_breaches(record) == []
        assert record["probe_lost"] == 0
        assert record["flows_lost"] == 0  # chaos eats packets, never state
        applied = record["details"]["faults_applied"]
        assert applied.get("reorder", 0) > 0

    def test_loss_is_confined_to_the_window(self, spec):
        record = chaos_soak(spec, flows=FLOWS, rounds=15, seed=99)
        window_start, window_end = record["details"]["window_us"]
        assert record["disruption_us"] <= window_end - window_start + 1_000


class TestSuite:
    def test_full_suite_passes_and_gates(self, spec):
        records = chain_scenarios(spec, flows=FLOWS, rounds=ROUNDS)
        assert [r["scenario"] for r in records] == [
            "warm-upgrade",
            "promote-stage",
            "chaos-soak",
        ]
        assert [scenario_breaches(r) for r in records] == [[], [], []]
        assert all(r["sla_ok"] for r in records)
