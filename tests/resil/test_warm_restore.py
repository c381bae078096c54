"""``restore()`` has one meaning in every execution mode.

Every launched runtime restores through :meth:`repro.net.dpdk.Shard.restore`
— fresh NF from the factory, full checkpoint validation, adopt only on
success — so a runtime that has already served traffic can be rolled
back to a checkpoint, and ends up exactly where a fresh runtime restored
from the same set does. A set the validation refuses — whichever slot
the bad frame sits in — leaves every running NF serving.
"""

import pytest

from repro.chain import default_chain_spec, launch_chain
from repro.nat.config import NatConfig
from repro.nat.vignat import VigNat
from repro.net.app import (
    INLINE,
    PROCESS,
    THREADED_DETERMINISTIC,
    RuntimeSpec,
    launch,
)
from repro.packets.builder import make_udp_packet
from repro.packets.headers import Packet
from repro.resil.checkpoint import CheckpointError, CheckpointSet


def _nat(start_port=1000, **spec):
    config = NatConfig(
        max_flows=64, expiration_time=60_000_000, start_port=start_port
    )
    return lambda: launch(
        RuntimeSpec(nf_factory=VigNat, config=config, fastpath="compiled", **spec)
    )


def _chain(execution, max_flows=64):
    return lambda: launch_chain(
        default_chain_spec(
            execution=execution, fastpath="compiled", max_flows=max_flows
        )
    )


#: mode id -> (launcher, launcher of the same shape under another config)
MODES = {
    "inline": (_nat(execution=INLINE), _nat(2000, execution=INLINE)),
    "det-1": (
        _nat(execution=THREADED_DETERMINISTIC),
        _nat(2000, execution=THREADED_DETERMINISTIC),
    ),
    "det-2": (
        _nat(execution=THREADED_DETERMINISTIC, workers=2),
        _nat(2000, execution=THREADED_DETERMINISTIC, workers=2),
    ),
    "process-shm": (
        _nat(execution=PROCESS, workers=2, transport="shm"),
        _nat(2000, execution=PROCESS, workers=2, transport="shm"),
    ),
    "process-pipe": (
        _nat(execution=PROCESS, workers=2, transport="pipe"),
        _nat(2000, execution=PROCESS, workers=2, transport="pipe"),
    ),
    "chain-inline": (_chain(INLINE), _chain(INLINE, max_flows=32)),
}


def serve(runtime, flows, now):
    """One burst of wire frames for ``flows``; the TX as (port, bytes)."""
    for i in flows:
        frame = make_udp_packet(
            f"10.0.0.{i + 1}", "203.0.113.9", 1024 + i, 2000 + i
        ).to_bytes()
        runtime.inject(0, Packet.from_bytes(frame, 0), now)
    runtime.main_loop_burst(now)
    return [(port, pkt.wire_bytes()) for port, _ts, pkt in runtime.collect()]


@pytest.mark.parametrize("mode", MODES)
def test_warm_runtime_restores_like_a_fresh_one(mode):
    launcher, _ = MODES[mode]
    warm, fresh = launcher(), launcher()
    try:
        serve(warm, range(8), 1_000)
        snapshot = warm.checkpoint(2_000)
        serve(warm, range(8, 16), 3_000)  # what the restore rolls back
        assert warm.flow_count() > fresh.flow_count()

        warm.restore(snapshot)
        fresh.restore(snapshot)
        assert warm.flow_count() == fresh.flow_count() > 0
        # Restored flows keep their mappings, rolled-back ones are
        # re-created from the same allocator state: byte-equal TX.
        tail = serve(warm, range(12), 4_000)
        assert len(tail) == 12
        assert tail == serve(fresh, range(12), 4_000)
        assert warm.flow_count() == fresh.flow_count()
    finally:
        warm.stop()
        fresh.stop()


@pytest.mark.parametrize("execution", [INLINE])
def test_chain_restore_brings_a_failed_stage_back(execution):
    """Restore into a chain with a stage down rebuilds that stage from
    its frame: afterwards every stage is up and on the set's state."""
    chain = _chain(execution)()
    try:
        before = serve(chain, range(8), 1_000)
        flows = chain.flow_count()
        snapshot = chain.checkpoint(2_000)
        chain.fail_stage(1)
        chain.restore(snapshot)
        chain.checkpoint(3_000)  # refuses while any stage is down
        assert chain.flow_count() == flows
        assert serve(chain, range(8), 4_000) == before
        assert chain.drop_causes()["chain_stage_killed"] == 0
    finally:
        chain.stop()


@pytest.mark.parametrize("slot", [0, -1], ids=["first-frame", "last-frame"])
@pytest.mark.parametrize("mode", MODES)
def test_refused_set_leaves_the_runtime_serving(mode, slot):
    """All or nothing: one foreign frame, in the first slot or the last,
    and no worker moves — flows newer than the checkpoint stay live."""
    launcher, other_config = MODES[mode]
    runtime, foreign = launcher(), other_config()
    try:
        serve(runtime, range(8), 1_000)
        good = runtime.checkpoint(2_000)
        before = serve(runtime, range(16), 3_000)  # 8 flows a restore would lose
        serve(foreign, range(8), 1_000)
        frames = list(good.checkpoints)
        frames[slot] = foreign.checkpoint(2_000).checkpoints[slot]
        flows = runtime.flow_count()
        with pytest.raises(CheckpointError, match="config mismatch"):
            runtime.restore(CheckpointSet(good.taken_at_us, tuple(frames)))
        assert runtime.flow_count() == flows
        assert serve(runtime, range(16), 4_000) == before
    finally:
        runtime.stop()
        foreign.stop()
