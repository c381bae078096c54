"""Trace replay over a launched runtime: the turn, drops, TX batching."""

import pytest

from repro import obs
from repro.nat.bridge import BridgeConfig, VigBridge
from repro.nat.config import NatConfig
from repro.nat.vignat import VigNat
from repro.net.app import INLINE, RuntimeSpec, drive, launch, replay_pcap
from repro.net.dpdk import DpdkRuntime
from repro.obs import flight
from repro.packets.builder import make_udp_packet
from repro.packets.pcap import write_pcap_file


def outbound(sport=4000):
    return make_udp_packet("10.0.0.5", "8.8.8.8", sport, 53, device=0)


def nat_app(max_flows=8, burst_size=32):
    """One VigNat behind ``launch()``: ``app.runtime`` is its
    ``DpdkRuntime``, ``app.nf`` the NF."""
    return launch(
        RuntimeSpec(
            nf_factory=VigNat,
            config=NatConfig(max_flows=max_flows),
            execution=INLINE,
            burst_size=burst_size,
        )
    )


def poll(app, now_us):
    """One main-loop turn; returns the number of packets processed."""
    return app.main_loop_burst(now_us, app.spec.burst_size)


class TestPollLoop:
    def test_processes_and_transmits(self):
        app = nat_app()
        app.runtime.inject(0, outbound(), 100)
        assert poll(app, now_us=100) == 1
        transmitted = app.runtime.collect()
        assert len(transmitted) == 1
        assert transmitted[0][0] == 1  # external port

    def test_drops_do_not_leak_buffers(self):
        app = nat_app()
        cfg = app.nf.config
        for i in range(5):
            unsolicited = make_udp_packet(
                "8.8.8.8", cfg.external_ip, 53, 60_000 + i, device=1
            )
            app.runtime.inject(1, unsolicited, i)
        recorder = obs.enable_observability()
        try:
            assert poll(app, now_us=10) == 5
        finally:
            obs.disable_observability()
        assert app.runtime.pool.in_flight == 0
        assert app.runtime.collect() == []
        # The turn is the runtime's own, so a drop reads the same here
        # as behind launch(): counted by cause, one DROP event each.
        assert app.runtime.drop_causes()["nf_drop"] == 5
        drops = [e for e in recorder.flight.last() if e.stage == flight.DROP]
        assert len(drops) == 5
        assert {e.reason for e in drops} == {flight.REASON_NF_DROP}

    def test_bursts_larger_than_burst_size(self):
        app = nat_app(max_flows=64, burst_size=4)
        for i in range(10):
            app.runtime.inject(0, outbound(sport=4000 + i), i)
        assert poll(app, now_us=10) == 10
        assert app.op_counters()["burst_packets"] == 10

    def test_burst_size_validated(self):
        with pytest.raises(ValueError):
            nat_app(burst_size=0)


class TestReplay:
    def test_replay_conversation(self):
        app = nat_app()
        cfg = app.nf.config
        assert drive(app, [(100, 0, outbound())]) == 1
        ext_port = app.collect()[0][2].l4.src_port
        reply = make_udp_packet("8.8.8.8", cfg.external_ip, 53, ext_port, device=1)
        assert drive(app, [(200, 1, reply)]) == 1
        back = app.collect()
        assert back[0][0] == 0
        assert back[0][2].l4.dst_port == 4000

    def test_drive_turns_every_n_arrivals_and_once_for_the_rest(self):
        app = nat_app(max_flows=64)
        turns = []
        turn = app.main_loop_burst
        app.main_loop_burst = lambda now_us, burst_size: (
            turns.append((now_us, burst_size)) or turn(now_us, burst_size)
        )
        schedule = [(10 * i, 0, outbound(sport=4000 + i)) for i in range(10)]
        assert drive(app, schedule, turn_every=4) == 10
        assert turns == [(30, 32), (70, 32), (90, 32)]
        assert len(app.collect()) == 10

    def test_replay_pcap_roundtrip(self, tmp_path):
        in_path = str(tmp_path / "in.pcap")
        out_path = str(tmp_path / "out.pcap")
        frames = [
            (1_000 + i, outbound(sport=4000 + i).to_bytes()) for i in range(4)
        ]
        write_pcap_file(in_path, frames)

        app = nat_app()
        records = replay_pcap(app, in_path, out_path)
        assert len(records) == 4
        for record in records:
            packet = record.packet()
            assert packet.ipv4.src_ip == app.nf.config.external_ip
        from repro.packets.pcap import read_pcap_file

        assert len(read_pcap_file(out_path)) == 4

    def test_bridge_through_the_app(self):
        app = launch(
            RuntimeSpec(
                nf_factory=lambda _config: VigBridge(BridgeConfig()),
                execution=INLINE,
            )
        )
        frame = outbound()
        frame.device = 0
        drive(app, [(10, 0, frame)])
        out = app.collect()
        assert out[0][0] == 1  # flooded to the other port


class TestTxBatching:
    def test_tx_grouped_into_bursts(self, monkeypatch):
        app = nat_app(max_flows=64, burst_size=8)
        for i in range(20):
            app.runtime.inject(0, outbound(sport=4000 + i), i)
        tx_ports = []
        tx_burst = DpdkRuntime.tx_burst

        def counting_tx_burst(runtime, port_id, mbufs, now_us):
            tx_ports.append(port_id)
            return tx_burst(runtime, port_id, mbufs, now_us)

        monkeypatch.setattr(DpdkRuntime, "tx_burst", counting_tx_burst)
        poll(app, now_us=100)
        # 20 forwarded packets leave in one tx burst per RX burst —
        # ceil(20/8) of them, all on the external port — far fewer than
        # 20 per-packet transmissions.
        assert set(tx_ports) == {1}
        assert len(tx_ports) <= 3
        assert app.runtime.port(1).counters.tx_packets == 20
        assert app.runtime.pool.in_flight == 0

    def test_batches_flushed_at_turn_end(self):
        app = nat_app(burst_size=32)
        app.runtime.inject(0, outbound(), 0)
        poll(app, now_us=10)
        # One packet, batch not full: still transmitted by the flush.
        assert app.runtime.port(1).counters.tx_packets == 1
