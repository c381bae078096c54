"""Checkpoint/restore round-trips for the firewall, bridge and limiter.

VigNat grew ``checkpoint_state``/``restore_state`` for failover; chains
snapshot every stage, so the other stateful NFs need the same contract:
full-fidelity round-trip through the serialized frame, validation
before mutation, and refusal to restore into a used NF.
"""

import pytest

from repro.nat.bridge import BridgeConfig, VigBridge
from repro.nat.config import NatConfig
from repro.nat.firewall import VigFirewall
from repro.nat.limiter import LimiterConfig, VigLimiter
from repro.packets.builder import make_udp_packet
from repro.resil.checkpoint import restore, snapshot

NAT_CFG = NatConfig(max_flows=16, expiration_time=60_000_000, start_port=1000)


def udp(src_ip, dst_ip, sport, dport, device=0):
    return make_udp_packet(src_ip, dst_ip, sport, dport, device=device)


def frame(src_mac, dst_mac, device):
    pkt = make_udp_packet("10.0.0.1", "10.0.0.2", 1, 2, device=device)
    pkt.eth.src = bytes.fromhex(src_mac.replace(":", ""))
    pkt.eth.dst = bytes.fromhex(dst_mac.replace(":", ""))
    return pkt


class TestFirewallCheckpoint:
    def warmed(self):
        fw = VigFirewall(NAT_CFG)
        for i in range(5):
            out = fw.process(udp("10.0.0.1", "203.0.113.9", 1024 + i, 2000 + i), 10)
            assert out
        return fw

    def test_round_trip_preserves_sessions(self):
        fw = self.warmed()
        revived = VigFirewall(NAT_CFG)
        restore(revived, snapshot(fw, now_us=20))
        assert revived.session_count() == fw.session_count() == 5
        # Durable counters ride along (map_probes is a live hash-table
        # statistic, not state, so it is not part of the contract).
        for key in ("expired", "dropped", "forwarded"):
            assert revived.op_counters()[key] == fw.op_counters()[key]
        # An established session still admits its reply...
        reply = udp("203.0.113.9", "10.0.0.1", 2000, 1024, device=1)
        assert revived.process(reply, 30)
        # ...and unsolicited external traffic still bounces.
        stranger = udp("203.0.113.9", "10.0.0.1", 9999, 40_000, device=1)
        assert revived.process(stranger, 30) == []

    def test_restore_requires_fresh_nf(self):
        fw = self.warmed()
        snapshot = fw.checkpoint_state()
        with pytest.raises(ValueError, match="fresh"):
            fw.restore_state(snapshot)

    def test_restore_rejects_duplicate_sessions(self):
        fw = self.warmed()
        state = fw.checkpoint_state()
        state["sessions"][1][2] = state["sessions"][0][2]
        with pytest.raises(ValueError, match="twice"):
            VigFirewall(NAT_CFG).restore_state(state)

    def test_expiry_clock_survives(self):
        fw = self.warmed()
        revived = VigFirewall(NAT_CFG)
        restore(revived, snapshot(fw, now_us=20))
        # Advance past the idle timeout: every restored session ages
        # out on the restored clock, not a reset one.
        revived.process(udp("10.9.9.9", "203.0.113.9", 7, 8), 70_000_011)
        assert revived.session_count() == 1  # just the new flow


class TestBridgeCheckpoint:
    def warmed(self):
        bridge = VigBridge(BridgeConfig(capacity=8))
        bridge.process(frame("02:aa:00:00:00:01", "ff:ff:ff:ff:ff:ff", 0), 10)
        bridge.process(frame("02:aa:00:00:00:02", "02:aa:00:00:00:01", 1), 20)
        assert bridge.station_count() == 2
        return bridge

    def test_round_trip_preserves_stations(self):
        bridge = self.warmed()
        revived = VigBridge(BridgeConfig(capacity=8))
        restore(revived, snapshot(bridge, now_us=30))
        assert revived.station_count() == 2
        assert revived.port_of(0x02AA00000001) == 0
        assert revived.port_of(0x02AA00000002) == 1
        # Filtering still works: a frame for station 1 arriving on
        # station 1's own port is filtered, not flooded.
        same_segment = frame("02:aa:00:00:00:03", "02:aa:00:00:00:01", 0)
        assert revived.process(same_segment, 40) == []

    def test_restore_rejects_foreign_device(self):
        bridge = self.warmed()
        state = bridge.checkpoint_state()
        state["stations"][0][3] = 7  # not one of this bridge's ports
        with pytest.raises(ValueError, match="ports"):
            VigBridge(BridgeConfig(capacity=8)).restore_state(state)

    def test_restore_requires_fresh_nf(self):
        bridge = self.warmed()
        with pytest.raises(ValueError, match="fresh"):
            bridge.restore_state(bridge.checkpoint_state())


class TestLimiterCheckpoint:
    def warmed(self):
        limiter = VigLimiter(LimiterConfig(capacity=8, max_packets=3))
        for _ in range(3):
            assert limiter.process(udp("10.0.0.1", "10.0.0.9", 1, 2), 10)
        assert limiter.process(udp("10.0.0.2", "10.0.0.9", 3, 4), 10)
        return limiter

    def test_round_trip_preserves_spent_budgets(self):
        limiter = self.warmed()
        revived = VigLimiter(LimiterConfig(capacity=8, max_packets=3))
        restore(revived, snapshot(limiter, now_us=20))
        assert revived.tracked_sources() == 2
        assert revived.budget_used(0x0A000001) == 3
        assert revived.budget_used(0x0A000002) == 1
        # The exhausted source stays over budget after the restore.
        assert revived.process(udp("10.0.0.1", "10.0.0.9", 1, 2), 30) == []
        # The other source still has budget to spend.
        assert revived.process(udp("10.0.0.2", "10.0.0.9", 3, 4), 30)

    def test_restore_rejects_overspent_budget(self):
        limiter = self.warmed()
        state = limiter.checkpoint_state()
        state["budgets"][0][3] = 99  # beyond max_packets
        with pytest.raises(ValueError, match="budget"):
            VigLimiter(LimiterConfig(capacity=8, max_packets=3)).restore_state(state)

    def test_restore_requires_fresh_nf(self):
        limiter = self.warmed()
        with pytest.raises(ValueError, match="fresh"):
            limiter.restore_state(limiter.checkpoint_state())


#: (fresh NF, a frame from source ``n`` it admits on device 0)
RESTORABLE = {
    "firewall": (
        lambda: VigFirewall(NAT_CFG),
        lambda n: udp(f"10.0.0.{n}", "203.0.113.9", 1024, 2000),
    ),
    "bridge": (
        lambda: VigBridge(BridgeConfig(capacity=8)),
        lambda n: frame(f"02:aa:00:00:00:{n:02x}", "ff:ff:ff:ff:ff:ff", 0),
    ),
    "limiter": (
        lambda: VigLimiter(LimiterConfig(capacity=8, max_packets=3)),
        lambda n: udp(f"10.0.0.{n}", "10.0.0.9", 1, 2),
    ),
}

SHARED_COUNTERS = ("expiry_scans_amortized", "clock_clamped", "bursts", "burst_packets")


@pytest.mark.parametrize(("fresh", "admitted"), RESTORABLE.values(), ids=RESTORABLE)
class TestRestoredClockAndCounters:
    """What the shared turn added to the three NFs' checkpoints: a clock
    that restores (floored at the newest row — the payload has no clock
    field of its own) and the turn's counters."""

    def warmed(self, fresh, admitted):
        nf = fresh()
        nf.process_burst([admitted(1), admitted(2)], 5_000)
        assert nf.process(admitted(3), 9_000)
        assert nf.process(admitted(4), 1_000)  # clamped
        return nf

    def test_restore_at_an_earlier_time_clamps_instead_of_raising(
        self, fresh, admitted
    ):
        revived = fresh()
        restore(revived, snapshot(self.warmed(fresh, admitted), now_us=9_000))
        # The restoring host's clock reads earlier than the newest row:
        # allocating at that time would trip TimeRegression unclamped.
        assert revived.process(admitted(5), 100)
        rows = revived.checkpoint_state()[revived.ROWS]
        assert [row[1] for row in rows] == [5_000, 5_000, 9_000, 9_000, 9_000]

    def test_shared_counters_round_trip(self, fresh, admitted):
        nf = self.warmed(fresh, admitted)
        saved = nf.checkpoint_state()["counters"]
        assert {key: saved[key] for key in SHARED_COUNTERS} == {
            "expiry_scans_amortized": 1,
            "clock_clamped": 1,
            "bursts": 1,
            "burst_packets": 2,
        }
        revived = fresh()
        restore(revived, snapshot(nf, now_us=9_000))
        assert revived.checkpoint_state()["counters"] == saved

    def test_payload_without_the_shared_counters_still_restores(
        self, fresh, admitted
    ):
        # The format these NFs wrote before they took the shared turn.
        state = self.warmed(fresh, admitted).checkpoint_state()
        state["counters"] = {
            key: state["counters"][key] for key in ("expired", "dropped", "forwarded")
        }
        revived = fresh()
        revived.restore_state(state)
        counters = revived.op_counters()
        assert counters["forwarded"] == 4
        assert all(counters[key] == 0 for key in SHARED_COUNTERS)
