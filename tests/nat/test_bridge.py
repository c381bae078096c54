"""The verified MAC-learning bridge: concrete behaviour and its proof."""

from hypothesis import given, settings, strategies as st

from repro.nat.bridge import BROADCAST_MAC, BridgeConfig, VigBridge
from repro.packets.addresses import mac_to_bytes
from repro.packets.headers import EthernetHeader, Packet

CFG = BridgeConfig(capacity=8, aging_time=1_000_000)

HOST_A = int.from_bytes(mac_to_bytes("02:00:00:00:00:0a"), "big")
HOST_B = int.from_bytes(mac_to_bytes("02:00:00:00:00:0b"), "big")
HOST_C = int.from_bytes(mac_to_bytes("02:00:00:00:00:0c"), "big")


def frame(src: int, dst: int, device: int) -> Packet:
    return Packet(
        eth=EthernetHeader(
            src=src.to_bytes(6, "big"), dst=dst.to_bytes(6, "big")
        ),
        payload=b"l2-payload",
        device=device,
    )


class TestLearning:
    def test_source_learned_on_arrival_port(self):
        bridge = VigBridge(CFG)
        bridge.process(frame(HOST_A, HOST_B, device=0), 1_000)
        assert bridge.port_of(HOST_A) == 0
        assert bridge.station_count() == 1

    def test_station_move_rebinds_port(self):
        bridge = VigBridge(CFG)
        bridge.process(frame(HOST_A, HOST_B, device=0), 1_000)
        bridge.process(frame(HOST_A, HOST_B, device=1), 2_000)
        assert bridge.port_of(HOST_A) == 1
        assert bridge.station_count() == 1

    def test_broadcast_source_never_learned(self):
        bridge = VigBridge(CFG)
        bridge.process(frame(BROADCAST_MAC, HOST_B, device=0), 1_000)
        assert bridge.station_count() == 0

    def test_full_table_stops_learning_but_not_forwarding(self):
        bridge = VigBridge(CFG)
        for i in range(CFG.capacity):
            bridge.process(frame(0x10_0000 + i, HOST_B, device=0), 1_000)
        out = bridge.process(frame(HOST_C, HOST_B, device=0), 1_001)
        assert out, "unlearned stations still get flooded"
        assert bridge.station_count() == CFG.capacity
        assert bridge.port_of(HOST_C) is None


class TestForwarding:
    def test_unknown_destination_flooded_to_other_port(self):
        bridge = VigBridge(CFG)
        out = bridge.process(frame(HOST_A, HOST_B, device=0), 1_000)
        assert len(out) == 1 and out[0].device == 1

    def test_known_destination_forwarded(self):
        bridge = VigBridge(CFG)
        bridge.process(frame(HOST_B, HOST_A, device=1), 1_000)  # learn B@1
        out = bridge.process(frame(HOST_A, HOST_B, device=0), 2_000)
        assert len(out) == 1 and out[0].device == 1

    def test_same_segment_filtered(self):
        """Both stations on port 0: the bridge must not echo the frame."""
        bridge = VigBridge(CFG)
        bridge.process(frame(HOST_B, HOST_A, device=0), 1_000)  # learn B@0
        out = bridge.process(frame(HOST_A, HOST_B, device=0), 2_000)
        assert out == []

    def test_broadcast_always_forwarded(self):
        bridge = VigBridge(CFG)
        out = bridge.process(frame(HOST_A, BROADCAST_MAC, device=0), 1_000)
        assert len(out) == 1 and out[0].device == 1

    def test_frame_bytes_untouched(self):
        bridge = VigBridge(CFG)
        original = frame(HOST_A, HOST_B, device=0)
        out = bridge.process(original, 1_000)[0]
        assert out.eth.src == original.eth.src
        assert out.eth.dst == original.eth.dst
        assert out.payload == original.payload

    def test_unknown_port_dropped(self):
        bridge = VigBridge(CFG)
        assert bridge.process(frame(HOST_A, HOST_B, device=7), 1_000) == []


class TestAging:
    def test_idle_entry_expires(self):
        bridge = VigBridge(CFG)
        bridge.process(frame(HOST_B, HOST_A, device=0), 1_000)
        late = 1_000 + CFG.aging_time + 1
        # After aging, B is unknown again: a frame to B on port 0 floods
        # instead of being filtered.
        out = bridge.process(frame(HOST_A, HOST_B, device=0), late)
        assert len(out) == 1
        assert bridge.port_of(HOST_B) is None

    def test_traffic_refreshes_entry(self):
        bridge = VigBridge(CFG)
        bridge.process(frame(HOST_B, HOST_A, device=0), 0)
        bridge.process(frame(HOST_B, HOST_A, device=0), CFG.aging_time // 2)
        still_alive = CFG.aging_time // 2 + CFG.aging_time - 1
        bridge.process(frame(HOST_C, HOST_A, device=1), still_alive)
        assert bridge.port_of(HOST_B) == 0


@settings(max_examples=60, deadline=None)
@given(
    steps=st.lists(
        st.tuples(
            st.sampled_from([HOST_A, HOST_B, HOST_C]),
            st.sampled_from([HOST_A, HOST_B, HOST_C, BROADCAST_MAC]),
            st.integers(0, 1),
            st.integers(0, 600_000),
        ),
        max_size=25,
    )
)
def test_differential_against_shadow_model(steps):
    """The bridge agrees with a dictionary shadow model of 802.1D."""
    bridge = VigBridge(CFG)
    shadow = {}  # mac -> (port, last_seen)
    now = 0
    for src, dst, device, dt in steps:
        now += dt
        threshold = now - CFG.aging_time
        shadow = {m: v for m, v in shadow.items() if v[1] > threshold}
        if src != BROADCAST_MAC and (src in shadow or len(shadow) < CFG.capacity):
            shadow[src] = (device, now)
        expect_filter = (
            dst != BROADCAST_MAC and dst in shadow and shadow[dst][0] == device
        )
        out = bridge.process(frame(src, dst, device), now)
        assert (out == []) == expect_filter
        if out:
            assert out[0].device == 1 - device
        assert bridge.station_count() == len(shadow)


class TestBridgeVerification:
    def test_pipeline_verifies_bridge(self):
        from repro.nat.bridge import BridgeConfig as Cfg
        from repro.verif.engine import ExhaustiveSymbolicEngine
        from repro.verif.nf_env_bridge import BridgeSemantics
        from repro.verif.proofs import bridge_proof
        from repro.verif.validator import Validator

        cfg = Cfg()
        result = ExhaustiveSymbolicEngine().explore(bridge_proof(cfg).body)
        report = Validator(BridgeSemantics(cfg)).validate(result, "VigBridge")
        assert report.verified, report.render()
        assert result.stats.paths >= 30  # richer branching than the NAT

    def test_hub_mutant_fails_filtering(self):
        """A 'bridge' that never filters is rejected by P1."""
        from repro.nat.bridge import BridgeConfig as Cfg
        from repro.verif.engine import ExhaustiveSymbolicEngine
        from repro.verif.nf_env_bridge import BridgeSemantics, SymbolicBridgeEnv
        from repro.verif.validator import Validator

        cfg = Cfg()

        def body(ctx):
            env = SymbolicBridgeEnv(ctx, cfg)
            frame_obj = env.receive()
            now = env.current_time()
            if frame_obj is None:
                return
            # BUG: a hub — floods everything, learns nothing, filters
            # nothing, forwards even from unknown ports.
            env.forward(frame_obj, device=cfg.device_b)

        result = ExhaustiveSymbolicEngine().explore(body)
        report = Validator(BridgeSemantics(cfg)).validate(result, "hub")
        assert result.crash_free  # caught by the spec, not by a broken harness
        assert not report.p1.proven
        assert any("forward-justified" in f for f in report.p1.failures)

    def test_wrong_port_learning_mutant_fails(self):
        """Learning the destination port instead of the arrival port."""
        from repro.nat.bridge import BROADCAST_MAC as BC, BridgeConfig as Cfg
        from repro.verif.engine import ExhaustiveSymbolicEngine
        from repro.verif.nf_env_bridge import BridgeSemantics, SymbolicBridgeEnv
        from repro.verif.validator import Validator

        cfg = Cfg()

        def body(ctx):
            env = SymbolicBridgeEnv(ctx, cfg)
            now = env.current_time()
            frame_obj = env.receive()
            if frame_obj is None:
                return
            if frame_obj.device == cfg.device_a:
                out = cfg.device_b
            elif frame_obj.device == cfg.device_b:
                out = cfg.device_a
            else:
                env.drop(frame_obj)
                return
            if frame_obj.src_mac != BC:
                known = env.table_get(frame_obj.src_mac)
                if known is None:
                    if env.table_has_room():
                        # BUG: binds the OUTPUT port, poisoning the table.
                        env.table_learn_new(frame_obj.src_mac, out, now)
                else:
                    env.table_refresh(frame_obj.src_mac, frame_obj.device, now)
            env.forward(frame_obj, device=out)

        result = ExhaustiveSymbolicEngine().explore(body)
        report = Validator(BridgeSemantics(cfg)).validate(result, "poisoned")
        assert not report.p1.proven
        assert any("learn-binds-arrival-port" in f for f in report.p1.failures)
