"""The RuntimeSpec/launch facade.

One description, one construction path: a frozen
:class:`~repro.net.app.RuntimeSpec` names the deployment and
:func:`~repro.net.app.launch` builds it; every runtime it can produce
satisfies the same :class:`~repro.net.app.Runtime` protocol, and the
testbed's analytic model takes the same spec (``run_spec``).
"""

import random
import warnings

import pytest

from repro.nat import (
    BridgeConfig,
    CgnatConfig,
    DetNat,
    FastPathNat,
    IcmpAwareNat,
    LimiterConfig,
    NatConfig,
    NetfilterNat,
    NoopForwarder,
    UnverifiedNat,
    VigBridge,
    VigFirewall,
    VigLimiter,
    VigNat,
)
from repro.nat.behavior import BehavioralNat
from repro.net.app import (
    EXECUTION_MODES,
    INLINE,
    PROCESS,
    THREADED_DETERMINISTIC,
    Runtime,
    RuntimeSpec,
    launch,
)
from repro.net.dpdk import Shard, ShardedRuntime, build_nf
from repro.net.moongen import ConstantRateFlows
from repro.net.procrun import ProcessShardedRuntime
from repro.net.testbed import Rfc2544Testbed
from repro.packets.builder import make_tcp_packet, make_udp_packet
from repro.packets.headers import EthernetHeader, Packet


def config():
    return NatConfig(
        max_flows=64, expiration_time=60_000_000, start_port=1000
    )


def spec(**overrides):
    base = RuntimeSpec(nf_factory=VigNat, config=config())
    return base.with_(**overrides) if overrides else base


class TestSpecValidation:
    def test_mode_must_be_known(self):
        with pytest.raises(ValueError, match="execution mode"):
            spec(execution="green-threads")
        assert set(EXECUTION_MODES) == {
            INLINE,
            THREADED_DETERMINISTIC,
            PROCESS,
        }

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            spec(workers=0)

    def test_inline_is_single_worker(self):
        with pytest.raises(ValueError, match="single-worker"):
            spec(execution=INLINE, workers=2)

    def test_inline_refuses_recovery(self):
        """The two recovery rules: an inline runtime has no worker to
        rebuild, and a replication lag implies supervision."""
        for recovery in (dict(replication_lag=0), dict(supervise=True)):
            with pytest.raises(ValueError, match="sharded execution"):
                spec(execution=INLINE, **recovery)
            for execution in (THREADED_DETERMINISTIC, PROCESS):
                spec(execution=execution, workers=2, **recovery)
        with pytest.raises(ValueError):
            spec(replication_lag=-1)
        runtime = launch(spec(workers=2, replication_lag=0))
        assert runtime.supervise and not runtime.spec.supervise

    def test_inline_refuses_a_fault_plan(self):
        """An inline runtime has no steering stage to consult a plan, so
        a plan it was given would never fire: a total link drop would
        forward every frame. The spec refuses it; the sharded modes
        apply it."""
        from repro.resil.faults import FaultPlan

        with pytest.raises(ValueError, match="fault plan"):
            spec(execution=INLINE, fault_plan=FaultPlan().link_drop())
        plan = FaultPlan().link_drop()
        runtime = launch(spec(fault_plan=plan))
        packet = make_udp_packet("10.0.0.1", "8.8.8.8", 1_024, 53, device=0)
        assert runtime.inject(0, packet, 0) is False
        assert plan.applied == {"link-drop": 1}

    def test_with_varies_without_mutating(self):
        base = spec()
        wide = base.with_(workers=4, execution=PROCESS)
        assert base.workers == 1 and base.execution == THREADED_DETERMINISTIC
        assert wide.workers == 4 and wide.execution == PROCESS

    def test_spec_is_frozen_and_comparable(self):
        a, b = spec(workers=2), spec(workers=2)
        assert a == b
        with pytest.raises(Exception):
            a.workers = 3

    def test_fastpath_is_off_or_compiled(self):
        assert spec().fastpath == "off"
        assert spec(fastpath="off") == spec()
        assert spec(fastpath="compiled").fastpath == "compiled"

    def test_fastpath_rejects_unknown_mode(self):
        """Exactly two spellings; the retired ones (``"cache"`` and the
        booleans) fail like any other unknown value."""
        for value in ("turbo", "cache", True, False, 1, None):
            with pytest.raises(ValueError, match="fastpath"):
                spec(fastpath=value)


class TestLaunch:
    def _exercise(self, runtime):
        """Every launched runtime speaks the one protocol."""
        assert isinstance(runtime, Runtime)
        now = 1_000
        for i in range(6):
            packet = make_udp_packet(
                0x0A000001 + i, "8.8.8.8", 1_024 + i, 53, device=0
            )
            runtime.inject(0, packet, now)
            now += 5
        runtime.main_loop_burst(now, 8)
        assert len(runtime.collect()) == 6
        assert runtime.flow_count() == 6
        assert runtime.op_counters()
        assert runtime.snapshot_metrics()["schema"] == "repro-obs/v1"
        checkpoint = runtime.checkpoint(now_us=now)
        assert checkpoint is not None
        runtime.stop()

    def test_inline(self):
        runtime = launch(spec(execution=INLINE))
        assert isinstance(runtime, Shard)
        assert runtime.spec.execution == INLINE
        self._exercise(runtime)

    def test_threaded_deterministic(self):
        runtime = launch(spec(workers=2))
        assert isinstance(runtime, ShardedRuntime)
        self._exercise(runtime)

    def test_process(self):
        runtime = launch(spec(workers=2, execution=PROCESS))
        assert isinstance(runtime, ProcessShardedRuntime)
        self._exercise(runtime)

    def test_replicated(self):
        """Replication rides either sharded runtime: one standby a shard."""
        for execution, cls in (
            (THREADED_DETERMINISTIC, ShardedRuntime),
            (PROCESS, ProcessShardedRuntime),
        ):
            runtime = launch(spec(workers=2, execution=execution, replication_lag=4))
            assert isinstance(runtime, cls)
            assert len(runtime.replicas) == len(runtime.channels) == 2
            self._exercise(runtime)

    def test_launch_never_warns(self):
        """Launching a spec raises no warning of any kind."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for s in (
                spec(execution=INLINE),
                spec(workers=2),
                spec(workers=2, execution=PROCESS),
                spec(workers=2, replication_lag=0),
                spec(workers=2, execution=PROCESS, replication_lag=0),
            ):
                launch(s).stop()

    def test_launch_tags_the_spec(self):
        s = spec(workers=2)
        runtime = launch(s)
        assert runtime.spec is s
        runtime.stop()

    def test_fastpath_launches_everywhere(self):
        """Every execution mode accepts ``fastpath="compiled"`` and
        wires the wrapper through (visible via its counters)."""
        for s in (
            spec(execution=INLINE, fastpath="compiled"),
            spec(workers=2, fastpath="compiled"),
            spec(workers=2, execution=PROCESS, fastpath="compiled"),
        ):
            runtime = launch(s)
            self._exercise(runtime)

    def test_inline_runtime_hits_on_the_object_path(self):
        """Every runtime behind ``launch()`` drives ``process_burst``:
        repeated flows of builder-made packets hit the action cache, each
        hit through the closure the learn compiled and checked on the
        packet's serialization."""
        runtime = launch(spec(execution=INLINE, fastpath="compiled"))
        now = 1_000
        for t in range(3):
            packet = make_udp_packet(
                "10.0.0.1", "8.8.8.8", 1_024, 53, device=0
            )
            runtime.inject(0, packet, now + t)
            runtime.main_loop_burst(now + t, 8)
        counters = runtime.op_counters()
        assert counters["fastpath_learns"] == 1
        assert counters["fastpath_hits"] == 2
        assert counters["fastpath_compiles"] == 1
        assert counters["fastpath_compiled_hits"] == 2
        runtime.stop()


class TestRunSpec:
    def test_run_spec_builds_and_steers_the_shards(self):
        testbed = Rfc2544Testbed(workers=2)
        workload = ConstantRateFlows(16, 1_000_000.0, 64, burst=8)
        result = testbed.run_spec(spec(workers=2), workload.events())
        assert sum(result.steered) > 0
        assert result.nfs is not None
        assert result.op_counters()

    def test_run_spec_rejects_width_mismatch(self):
        testbed = Rfc2544Testbed(workers=2)
        with pytest.raises(ValueError):
            testbed.run_spec(spec(workers=4), iter(()))

    def test_run_spec_refuses_replication(self):
        testbed = Rfc2544Testbed(workers=2)
        with pytest.raises(ValueError):
            testbed.run_spec(
                spec(workers=2, replication_lag=0), iter(())
            )


# -- property: with_() round-trips every field --------------------------------
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.nat.fastpath import FASTPATH_MODES  # noqa: E402
from repro.net.procrun import TRANSPORTS  # noqa: E402


@st.composite
def spec_overrides(draw):
    """Valid override sets covering every ``with_()``-able field, with
    the cross-field constraints the spec validates (inline is
    single-worker, and refuses supervision and replication)."""
    execution = draw(st.sampled_from(EXECUTION_MODES))
    overrides = {
        "execution": execution,
        "workers": 1 if execution == INLINE else draw(st.integers(1, 8)),
        "fastpath": draw(st.sampled_from(FASTPATH_MODES)),
        "burst_size": draw(st.integers(1, 512)),
        "rx_capacity": draw(st.integers(1, 4_096)),
        "pool_size": draw(st.integers(1, 8_192)),
        "turn_timeout_s": draw(
            st.floats(0.001, 300.0, allow_nan=False, allow_infinity=False)
        ),
        "transport": draw(st.sampled_from(TRANSPORTS)),
        "supervise": draw(st.booleans()) if execution != INLINE else False,
    }
    if execution != INLINE and draw(st.booleans()):
        overrides["replication_lag"] = draw(st.integers(0, 128))
    return overrides


class TestWithRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(overrides=spec_overrides())
    def test_every_field_round_trips(self, overrides):
        base = spec()
        varied = base.with_(**overrides)
        for name, value in overrides.items():
            assert getattr(varied, name) == value
        # Fields not named ride along untouched...
        assert varied.nf_factory is base.nf_factory
        assert varied.config is base.config
        assert varied.fault_plan is base.fault_plan
        # ...the base spec is never mutated, and restoring the named
        # fields to their base values reproduces it exactly.
        reverted = varied.with_(
            **{name: getattr(base, name) for name in overrides}
        )
        assert reverted == base


# -- the admission rule, through launch() ---------------------------------------
#: The schedule's inside hosts and ports are the bijection's subscribers.
CGNAT = CgnatConfig(
    start_port=1_000,
    max_flows=64,
    internal_base=0x0A000001,
    subscriber_count=8,
    internal_port_base=1_024,
)
#: Every NF factory the package ships, as ``launch()`` calls it (with the
#: shard's config), and whether the NF is a fast-path provider.
NF_FACTORIES = {
    "VigNat": (VigNat, True),
    "UnverifiedNat": (UnverifiedNat, True),
    "VigFirewall": (VigFirewall, True),
    "VigLimiter": (lambda _cfg: VigLimiter(LimiterConfig(max_packets=40)), True),
    "NetfilterNat": (NetfilterNat, False),
    "VigBridge": (lambda _cfg: VigBridge(BridgeConfig()), False),
    "DetNat": (lambda _cfg: DetNat(CGNAT), False),
    "NoopForwarder": (lambda _cfg: NoopForwarder(), False),
    "BehavioralNat": (BehavioralNat, False),
    "IcmpAwareNat": (IcmpAwareNat, False),
}


def _seeded_schedule():
    """(time_us, port, frame) arrivals: a few flows sent again and again
    from the inside, answers and strangers from the outside, one ARP
    frame; times cross the config's expiry once."""
    rng = random.Random(24)
    cfg = config()
    arrivals = []
    now = 1_000
    for step in range(120):
        now += rng.choice((1, 1, 5, 40)) if step != 80 else 61_000_000
        flow = rng.randrange(6)
        if rng.random() < 0.6:
            make = make_udp_packet if flow % 2 else make_tcp_packet
            packet = make(0x0A000001 + flow, "8.8.8.8", 1_024 + flow, 53, device=0)
        elif rng.random() < 0.9:
            packet = make_udp_packet(
                "8.8.8.8", cfg.external_ip, 53, cfg.start_port + flow, device=1
            )
        else:
            packet = Packet(
                eth=EthernetHeader(b"\xff" * 6, b"\x02" * 6, 0x0806),
                payload=b"who-has",
                device=rng.randrange(2),
            )
        arrivals.append((now, packet.device, packet.to_bytes()))
    return arrivals


def _drive(nf_factory, execution, fastpath):
    """The schedule's wire frames through ``launch()``: every frame the
    runtime transmitted, and its merged op counters."""
    runtime = launch(
        RuntimeSpec(
            nf_factory=nf_factory,
            config=config(),
            execution=execution,
            fastpath=fastpath,
        )
    )
    try:
        sent = []
        for now, port, frame in _seeded_schedule():
            runtime.inject(port, Packet.from_bytes(frame, port), now)
            runtime.main_loop_burst(now, 8)
            sent += [(p, ts, pkt.wire_bytes()) for p, ts, pkt in runtime.collect()]
        return sent, dict(runtime.op_counters())
    finally:
        runtime.stop()


class TestFastpathAdmission:
    """``build_nf`` is the one admission rule: under
    ``fastpath="compiled"`` a provider runs behind the cache, anything
    else runs as it is — in every execution mode, byte-identical to
    ``"off"`` either way."""

    @pytest.mark.parametrize("execution", EXECUTION_MODES)
    @pytest.mark.parametrize("name", sorted(NF_FACTORIES))
    def test_compiled_launches_and_matches_off(self, name, execution):
        nf_factory, provider = NF_FACTORIES[name]
        off_sent, off_counters = _drive(nf_factory, execution, "off")
        on_sent, on_counters = _drive(nf_factory, execution, "compiled")
        assert on_sent == off_sent
        assert off_sent, "the schedule never got a frame through"
        cache_keys = {key for key in on_counters if key.startswith("fastpath_")}
        assert bool(cache_keys) == provider
        assert not any(key.startswith("fastpath_") for key in off_counters)
        if provider:
            assert on_counters["fastpath_hits"] > 0
        else:
            assert on_counters == off_counters

    @pytest.mark.parametrize("name", sorted(NF_FACTORIES))
    def test_a_provider_is_the_nf_itself(self, name):
        """Conformance: ``fastpath_hooks()`` answers the NF or None, and
        a provider carries every name ``FastPathNat`` calls."""
        nf_factory, provider = NF_FACTORIES[name]
        nf = nf_factory(config())
        hooks = nf.fastpath_hooks()
        if not provider:
            assert hooks is None
            with pytest.raises(TypeError):
                FastPathNat(nf)
            return
        assert hooks is nf
        for method in (
            "begin_burst",
            "on_flow_freed",
            "learn_token",
            "rejuvenate",
            "compile",
        ):
            assert callable(getattr(nf, method)), method
        assert isinstance(build_nf(nf_factory, config(), "compiled"), FastPathNat)
        assert not isinstance(build_nf(nf_factory, config(), "off"), FastPathNat)
