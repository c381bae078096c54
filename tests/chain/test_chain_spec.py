"""ChainSpec/ChainStage validation and the ChainRuntime protocol surface."""

import pytest

from repro import obs
from repro.chain import (
    ChainRuntime,
    ChainSpec,
    ChainStage,
    default_chain_spec,
    launch_chain,
)
from repro.nat.bridge import BridgeConfig, VigBridge
from repro.nat.config import NatConfig
from repro.nat.noop import NoopForwarder
from repro.nat.vignat import VigNat
from repro.obs import flight
from repro.obs.expo import sample_value
from repro.packets.builder import make_udp_packet
from repro.packets.headers import Packet


def noop_stage(name="noop", device_a=0, device_b=1):
    return ChainStage(
        name,
        lambda _cfg, a=device_a, b=device_b: NoopForwarder(a, b),
        device_a=device_a,
        device_b=device_b,
    )


def nat_stage(name="nat"):
    config = NatConfig(max_flows=64, expiration_time=60_000_000, start_port=1000)
    return ChainStage(name, lambda cfg: VigNat(cfg), config)


class TestStageValidation:
    def test_requires_name(self):
        with pytest.raises(ValueError, match="name"):
            ChainStage("", lambda _cfg: NoopForwarder())

    def test_requires_callable_factory(self):
        with pytest.raises(ValueError, match="callable"):
            ChainStage("s", "not-a-factory")

    def test_devices_must_differ(self):
        with pytest.raises(ValueError, match="differ"):
            ChainStage("s", lambda _cfg: NoopForwarder(), device_a=1, device_b=1)

    def test_devices_must_be_nonnegative(self):
        with pytest.raises(ValueError, match=">= 0"):
            ChainStage("s", lambda _cfg: NoopForwarder(), device_a=-1)


class TestSpecValidation:
    def test_needs_a_stage(self):
        with pytest.raises(ValueError, match="at least one stage"):
            ChainSpec(stages=())

    def test_stage_names_unique(self):
        with pytest.raises(ValueError, match="unique"):
            ChainSpec(stages=(noop_stage("a"), noop_stage("a")))

    def test_unknown_execution(self):
        # A chain runs inline only: default_chain_spec keeps its execution
        # keyword for callers passing "inline" and refuses anything else.
        for execution in ("process", "threaded-deterministic", "quantum"):
            with pytest.raises(ValueError, match="inline only"):
                default_chain_spec(execution=execution)
        assert default_chain_spec(execution="inline").stages

    def test_fastpath_is_off_or_compiled(self):
        assert ChainSpec(stages=(noop_stage(),)).fastpath == "off"
        spec = ChainSpec(stages=(noop_stage(),), fastpath="compiled")
        assert spec.fastpath == "compiled"
        for retired in ("cache", True, False):
            with pytest.raises(ValueError, match="fastpath"):
                ChainSpec(stages=(noop_stage(),), fastpath=retired)

    def test_bad_sizes(self):
        for field, value in [
            ("burst_size", 0),
            ("rx_capacity", 0),
            ("pool_size", -1),
        ]:
            with pytest.raises(ValueError):
                ChainSpec(stages=(noop_stage(),), **{field: value})

    def test_with_varies_a_copy(self):
        spec = ChainSpec(stages=(noop_stage(),))
        varied = spec.with_(burst_size=8, fastpath="compiled")
        assert spec.burst_size == 32 and spec.fastpath == "off"
        assert varied.burst_size == 8 and varied.fastpath == "compiled"
        assert varied.stages == spec.stages

    def test_stages_coerced_to_tuple(self):
        spec = ChainSpec(stages=[noop_stage()])
        assert isinstance(spec.stages, tuple)


@pytest.fixture
def traced():
    """The global recorder, live for one test."""
    recorder = obs.enable_observability()
    yield recorder.flight
    obs.disable_observability()


class TestChainRuntime:
    def test_launch_chain_builds_runtime(self):
        chain = launch_chain(ChainSpec(stages=(noop_stage(), nat_stage())))
        try:
            assert isinstance(chain, ChainRuntime)
            assert chain.workers == 2
            assert chain.stage_names() == ["noop", "nat"]
        finally:
            chain.stop()

    def test_forward_and_reply_traverse_the_chain(self):
        chain = launch_chain(default_chain_spec(max_flows=64))
        try:
            out = make_udp_packet("10.0.0.1", "203.0.113.9", 1024, 2000)
            assert chain.inject(0, out, 10)
            chain.main_loop_burst(10)
            exits = chain.collect()
            assert [port for port, _, _ in exits] == [1]
            translated = exits[0][2]
            # The NAT stage rewrote the source; the firewall/limiter
            # stages forwarded the same bytes through.
            assert translated.l4.src_port >= 1000
            assert translated.l4.dst_port == 2000

            reply = make_udp_packet(
                "203.0.113.9",
                "192.0.2.1",
                2000,
                translated.l4.src_port,
                device=1,
            )
            assert chain.inject(1, reply, 20)
            chain.main_loop_burst(20)
            exits = chain.collect()
            assert [port for port, _, _ in exits] == [0]
            assert exits[0][2].l4.dst_port == 1024
        finally:
            chain.stop()

    def test_reply_completes_within_one_turn(self):
        # The descending sweep carries leftward traffic the whole way
        # back inside the same main_loop_burst call.
        chain = launch_chain(default_chain_spec(max_flows=64))
        try:
            chain.inject(0, make_udp_packet("10.0.0.1", "203.0.113.9", 1, 2000), 10)
            chain.main_loop_burst(10)
            (_, _, translated), = chain.collect()
            chain.inject(
                1,
                make_udp_packet(
                    "203.0.113.9", "192.0.2.1", 2000, translated.l4.src_port, device=1
                ),
                20,
            )
            assert chain.main_loop_burst(20) > 0
            assert len(chain.collect()) == 1
        finally:
            chain.stop()

    def test_bad_port_rejected(self):
        chain = launch_chain(ChainSpec(stages=(noop_stage(),)))
        try:
            with pytest.raises(ValueError, match="ports are 0 and 1"):
                chain.inject(2, make_udp_packet("10.0.0.1", "10.0.0.2", 1, 2), 0)
        finally:
            chain.stop()

    def test_op_and_stage_counters(self):
        chain = launch_chain(default_chain_spec(max_flows=64))
        try:
            for i in range(5):
                chain.inject(
                    0, make_udp_packet("10.0.0.1", "203.0.113.9", 1024, 2000 + i), 10
                )
            chain.main_loop_burst(10)
            chain.collect()
            ops = chain.op_counters()
            assert ops["injected"] == 5
            assert ops["exited"] == 5
            # Two handoffs per packet in a three-stage chain.
            assert ops["handoffs"] == 10
            assert ops["misroutes"] == 0
            per_stage = chain.per_stage_counters()
            assert len(per_stage) == 3
            assert all(stage["forwarded"] == 5 for stage in per_stage)
            assert chain.flow_count() >= 5  # the NAT's table
        finally:
            chain.stop()

    def test_traces_record_every_stage_hop(self, traced):
        spec = ChainSpec(stages=(noop_stage("a"), noop_stage("b")))
        chain = launch_chain(spec)
        try:
            chain.inject(0, make_udp_packet("10.0.0.1", "10.0.0.2", 1, 2), 5)
            chain.main_loop_burst(5)
            hops = [(e.worker, e.stage) for e in traced.last()]
            assert hops == [
                (0, flight.RX), (0, flight.TX), (1, flight.RX), (1, flight.TX)
            ]
        finally:
            chain.stop()

    def test_down_stage_traces_worker_kill(self, traced):
        chain = launch_chain(ChainSpec(stages=(noop_stage("a"), noop_stage("b"))))
        try:
            chain.fail_stage(1)
            chain.inject(0, make_udp_packet("10.0.0.1", "10.0.0.2", 1, 2), 5)
            chain.main_loop_burst(5)
            assert chain.collect() == []
            assert chain.drop_causes()["chain_stage_killed"] == 1
            assert [e.to_dict() for e in traced.last()][-2:] == [
                {"seq": 2, "t_us": 5, "worker": 1, "stage": flight.RX,
                 "detail": "port 0"},
                {"seq": 3, "t_us": 5, "worker": 1, "stage": flight.DROP,
                 "reason": flight.REASON_WORKER_KILL, "detail": "port 0"},
            ]
        finally:
            chain.stop()

    def test_misroute_is_dropped_counted_and_logged(self, traced):
        # A stage whose declared devices disagree with where its NF
        # actually emits: the noop forwards 0<->1 but the stage claims
        # its outward side is device 3.
        stage = ChainStage(
            "lost", lambda _cfg: NoopForwarder(0, 1), device_a=0, device_b=3
        )
        chain = launch_chain(ChainSpec(stages=(stage,)))
        try:
            chain.inject(0, make_udp_packet("10.0.0.1", "10.0.0.2", 1, 2), 5)
            chain.main_loop_burst(5)
            assert chain.collect() == []
            assert chain.op_counters()["misroutes"] == 1
            assert chain.drop_causes()["chain_misroute"] == 1
            drops = [e for e in traced.last() if e.stage == flight.DROP]
            assert len(drops) == 1
            assert drops[0].worker == 0
            assert drops[0].reason == flight.REASON_CHAIN_MISROUTE
            assert drops[0].detail == "port 1"
        finally:
            chain.stop()

    def test_snapshot_metrics_carries_stage_labels(self):
        chain = launch_chain(default_chain_spec(max_flows=64))
        try:
            chain.inject(0, make_udp_packet("10.0.0.1", "203.0.113.9", 1, 2000), 10)
            chain.main_loop_burst(10)
            chain.collect()
            snapshot = chain.snapshot_metrics()
            names = {metric["name"] for metric in snapshot["metrics"]}
            assert {
                "chain_stage_rx_total",
                "chain_stage_tx_total",
                "chain_stage_misroute_total",
                "chain_stage_flows",
                "chain_handoffs_total",
                "chain_exited_total",
            } <= names
            for index, name in enumerate(chain.stage_names()):
                labels = {"stage": str(index), "stage_name": name}
                assert sample_value(snapshot, "chain_stage_rx_total", labels) == 1
                assert sample_value(snapshot, "chain_stage_tx_total", labels) == 1
            assert (
                sample_value(
                    snapshot,
                    "chain_stage_flows",
                    {"stage": "2", "stage_name": "nat"},
                )
                == 1
            )
        finally:
            chain.stop()

    def test_hookless_stages_run_fastpath_off(self):
        # The bridge is no fast-path provider; a chain-wide fastpath
        # setting must quietly not wrap it (FastPathNat would refuse)
        # while still accelerating the NAT stage behind it.
        assert VigBridge().fastpath_hooks() is None
        bridge = ChainStage("bridge", lambda cfg: VigBridge(cfg), BridgeConfig())
        chain = launch_chain(
            ChainSpec(stages=(bridge, nat_stage()), fastpath="compiled")
        )
        try:
            for now in (10, 20):
                frame = make_udp_packet("10.0.0.1", "203.0.113.9", 1024, 2000)
                chain.inject(0, Packet.from_bytes(frame.wire_bytes(), 0), now)
                chain.main_loop_burst(now)
                assert [port for port, _, _ in chain.collect()] == [1]
            bridge_ops, nat_ops = chain.per_stage_counters()
            assert not any(key.startswith("fastpath_") for key in bridge_ops)
            assert bridge_ops["forwarded"] == 2
            assert nat_ops["fastpath_hits"] == 1
        finally:
            chain.stop()

    def test_every_reference_stage_publishes_hooks(self):
        chain = launch_chain(default_chain_spec(fastpath="compiled", max_flows=64))
        try:
            for ops in chain.per_stage_counters():
                assert "fastpath_hits" in ops
        finally:
            chain.stop()

    def test_fastpath_off_asks_no_nf_for_hooks(self):
        # One NF built per stage in either mode: the NF that serves is
        # the one asked whether it is a provider, not a throwaway twin.
        def built_per_stage(fastpath):
            built = []

            def factory(_cfg):
                built.append(1)
                return NoopForwarder()

            launch_chain(
                ChainSpec(stages=(ChainStage("s", factory),), fastpath=fastpath)
            ).stop()
            return len(built)

        assert built_per_stage("off") == 1
        assert built_per_stage("compiled") == 1

    def test_frames_stay_wire_backed_to_both_exits(self):
        # Every reference stage hits its cache after warm-up, and a hit
        # on a wire-backed packet hands the next stage an image: nobody
        # along the chain parses the frame, in either direction.
        chain = launch_chain(default_chain_spec(fastpath="compiled", max_flows=64))
        try:
            out = make_udp_packet("10.0.0.1", "203.0.113.9", 1024, 2000)
            for now in range(10, 50, 10):  # learn, earn the closures, hit
                chain.inject(0, Packet.from_bytes(out.wire_bytes(), 0), now)
                chain.main_loop_burst(now)
                ((_, _, translated),) = chain.collect()
                reply = make_udp_packet(
                    "203.0.113.9", "192.0.2.1", 2000, translated.src_port, device=1
                )
                chain.inject(1, Packet.from_bytes(reply.wire_bytes(), 1), now + 5)
                chain.main_loop_burst(now + 5)
                ((port, _, back),) = chain.collect()
                assert (port, back.dst_port) == (0, 1024)
            before = chain.per_stage_counters()
            chain.inject(0, Packet.from_bytes(out.wire_bytes(), 0), 60)
            chain.inject(1, Packet.from_bytes(reply.wire_bytes(), 1), 60)
            chain.main_loop_burst(60)
            exits = dict((port, pkt) for port, _, pkt in chain.collect())
            assert sorted(exits) == [0, 1]
            assert exits[0].image is not None and exits[1].image is not None
            assert exits[1].image == translated.wire_bytes()
            assert exits[0].image == back.wire_bytes()
            for was, after in zip(before, chain.per_stage_counters()):
                fired = after["fastpath_compiled_hits"] - was["fastpath_compiled_hits"]
                assert fired == 2
                assert after["fastpath_misses"] == was["fastpath_misses"]
        finally:
            chain.stop()

    def test_stage_hops_read_back_per_stage(self, traced):
        # Each stage's hops, picked out of the one ring by worker, read
        # back with the stage-local device as "port N".
        chain = launch_chain(default_chain_spec(max_flows=64))
        try:
            chain.inject(0, make_udp_packet("10.0.0.1", "203.0.113.9", 1, 2000), 10)
            chain.main_loop_burst(10)
            ((_, _, translated),) = chain.collect()
            reply = make_udp_packet(
                "203.0.113.9", "192.0.2.1", 2000, translated.src_port, device=1
            )
            chain.inject(1, reply, 20)
            chain.main_loop_burst(20)
            events = traced.last()
            assert traced.recorded_total == 12
            assert [e.seq for e in events] == list(range(12))
            for index in range(3):
                assert [
                    (e.t_us, e.stage, e.detail) for e in events if e.worker == index
                ] == [
                    (10, flight.RX, "port 0"),
                    (10, flight.TX, "port 1"),
                    (20, flight.RX, "port 1"),
                    (20, flight.TX, "port 0"),
                ]
        finally:
            chain.stop()

    @pytest.mark.parametrize("fastpath", ["off", "compiled"])
    def test_regressing_clock_is_clamped_by_every_stage(self, fastpath):
        # A backwards now_us must not raise out of any stage (before the
        # clamp moved into the shared turn, the firewall's chain raised
        # TimeRegression on the second turn below), and every stage must
        # do what it does when fed the already-clamped clock.
        regressing = [1_000, 2_000, 500, 1_500, 3_000, 2_999]
        clamped = [1_000, 2_000, 2_000, 2_000, 3_000, 3_000]

        def drive(clock):
            chain = launch_chain(default_chain_spec(fastpath=fastpath, max_flows=64))
            seen = []
            try:
                for turn, now in enumerate(clock):
                    for host in (1, 1 + turn):  # a warm flow and a new one
                        out = make_udp_packet(
                            f"10.0.0.{host}", "203.0.113.9", 1024, 2000
                        )
                        chain.inject(0, Packet.from_bytes(out.wire_bytes(), 0), now)
                    chain.main_loop_burst(now)
                    exits = chain.collect()
                    seen.append([(port, pkt.wire_bytes()) for port, _, pkt in exits])
                    for _, _, translated in exits:
                        reply = make_udp_packet(
                            "203.0.113.9", "192.0.2.1", 2000, translated.src_port,
                            device=1,
                        )
                        chain.inject(1, Packet.from_bytes(reply.wire_bytes(), 1), now)
                    chain.main_loop_burst(now)
                    seen.append(
                        [(port, pkt.wire_bytes()) for port, _, pkt in chain.collect()]
                    )
                clamps = [c["clock_clamped"] for c in chain.per_stage_counters()]
                states = [frame.state for frame in chain.checkpoint(now).checkpoints]
            finally:
                chain.stop()
            for state in states:
                state.pop("counters")
            return seen, states, clamps

        seen, states, clamps = drive(regressing)
        assert all(len(exits) == 2 for exits in seen)
        assert all(count > 0 for count in clamps)
        assert (seen, states, [0, 0, 0]) == drive(clamped)


class BurstRecorder(NoopForwarder):
    """A no-op that keeps the largest burst it was handed as a counter."""

    COUNTERS = {**NoopForwarder.COUNTERS, "largest_burst": "_largest_burst"}

    def process_burst(self, packets, now):
        self._largest_burst = max(self._largest_burst, len(packets))
        return super().process_burst(packets, now)


class TestStageBurstBound:
    @pytest.mark.parametrize("execution", ["inline"])
    def test_no_stage_call_exceeds_the_burst_size(self, execution):
        # Ten frames each way through two stages at burst size 4: stage
        # 0 sees its pending batch rightward in the ascending sweep and
        # leftward in the descending one, stage 1 both at once.
        stages = tuple(
            ChainStage(name, lambda _cfg: BurstRecorder()) for name in ("a", "b")
        )
        chain = launch_chain(ChainSpec(stages=stages, burst_size=4))
        try:
            for i in range(10):
                chain.inject(0, make_udp_packet("10.0.0.1", "10.0.0.2", i, 2), 5)
                chain.inject(1, make_udp_packet("10.0.0.2", "10.0.0.1", 2, i), 5)
            chain.main_loop_burst(5)
            assert sorted(port for port, _, _ in chain.collect()) == [0] * 10 + [1] * 10
            for ops in chain.per_stage_counters():
                assert ops["largest_burst"] == 4
                assert ops["burst_packets"] == 20
                assert ops["bursts"] == 6  # ceil(10 / 4) per direction
        finally:
            chain.stop()


class TestOutputsLostToADryPool:
    """An emitted packet that finds no free buffer is a counted drop
    (``out_no_mbuf``), in a chain and behind a bare ``launch()``: every
    output leaves or is counted."""

    BURST = 8

    def frames(self):
        return [
            make_udp_packet(f"10.0.0.{i + 1}", "10.0.1.1", 1024 + i, 2000)
            for i in range(self.BURST)
        ]

    @pytest.mark.parametrize("execution", ["inline"])
    def test_a_flooding_chain_stage(self, execution):
        from tests.chain.test_chain_ownership import FloodingBridge

        flood = ChainStage("flood", lambda cfg: FloodingBridge(cfg), BridgeConfig())
        chain = launch_chain(
            ChainSpec(stages=(flood,), burst_size=self.BURST, pool_size=self.BURST)
        )
        try:
            for packet in self.frames():
                chain.inject(0, packet, 10)
            chain.main_loop_burst(10)
            exited = len(chain.collect())
            ops, causes = chain.op_counters(), chain.drop_causes()
            assert ops["injected"] * 2 == exited + causes["out_no_mbuf"]
            assert causes["out_no_mbuf"] == self.BURST
            assert chain.runtime.pool.in_flight == 0
        finally:
            chain.stop()

    def test_a_flooding_nf_behind_launch(self):
        from repro.net.app import RuntimeSpec, launch
        from tests.chain.test_chain_ownership import FloodingBridge

        runtime = launch(
            RuntimeSpec(
                nf_factory=lambda _cfg: FloodingBridge(BridgeConfig()),
                burst_size=self.BURST,
                pool_size=self.BURST,
            )
        )
        try:
            for packet in self.frames():
                runtime.inject(0, packet, 10)
            runtime.main_loop_burst(10)
            exited = len(runtime.collect())
            assert self.BURST * 2 == exited + runtime.drop_causes()["out_no_mbuf"]
            assert runtime.drop_causes()["out_no_mbuf"] == self.BURST
        finally:
            runtime.stop()
