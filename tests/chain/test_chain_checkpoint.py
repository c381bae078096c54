"""Chain-wide coordinated checkpoint/restore: one ``repro-ckpt-set/v1``
set per chain, one frame per stage, adopted all-or-nothing."""

import pytest

from repro.chain import ChainSpec, ChainStage, default_chain_spec, launch_chain
from repro.nat.config import NatConfig
from repro.nat.noop import NoopForwarder
from repro.nat.vignat import VigNat
from repro.packets.builder import make_udp_packet
from repro.resil.checkpoint import CheckpointError, CheckpointSet

CONFIG = NatConfig(max_flows=64, expiration_time=60_000_000, start_port=1000)


def warm_chain(spec=None, flows=8):
    """A launched chain carrying ``flows`` established NAT mappings."""
    chain = launch_chain(spec or default_chain_spec(max_flows=64))
    mappings = {}
    for i in range(flows):
        chain.inject(
            0, make_udp_packet("10.0.0.1", "203.0.113.9", 1024 + i, 2000 + i), 10
        )
    chain.main_loop_burst(10)
    for port, _ts, pkt in chain.collect():
        assert port == 1
        mappings[pkt.l4.dst_port] = pkt.l4.src_port
    assert len(mappings) == flows
    return chain, mappings


def observed_mappings(chain, flows=8, now=50):
    for i in range(flows):
        chain.inject(
            0, make_udp_packet("10.0.0.1", "203.0.113.9", 1024 + i, 2000 + i), now
        )
    chain.main_loop_burst(now)
    return {
        pkt.l4.dst_port: pkt.l4.src_port
        for port, _ts, pkt in chain.collect()
        if port == 1
    }


class TestChainCheckpoint:
    def test_one_frame_per_stage_in_order(self):
        chain, _ = warm_chain()
        try:
            snapshot = chain.checkpoint(20)
            assert snapshot.workers == 3
            names = [frame.nf for frame in snapshot.checkpoints]
            assert names == ["verified-firewall", "verified-limiter", "verified-nat"]
        finally:
            chain.stop()

    def test_set_serializes_on_the_standard_format(self):
        chain, _ = warm_chain()
        try:
            snapshot = chain.checkpoint(20)
            wire = snapshot.to_bytes()
            assert wire.startswith(b"repro-ckpt-set/v1\n")
            revived = CheckpointSet.from_bytes(wire)
            assert revived.workers == 3
        finally:
            chain.stop()

    def test_restore_into_fresh_chain_preserves_mappings(self):
        chain, mappings = warm_chain()
        snapshot = chain.checkpoint(20)
        chain.stop()

        revived = launch_chain(default_chain_spec(max_flows=64))
        try:
            revived.restore(snapshot)
            assert observed_mappings(revived) == mappings
        finally:
            revived.stop()

    def test_restore_rejects_wrong_stage_count(self):
        chain, _ = warm_chain()
        try:
            snapshot = chain.checkpoint(20)
            short = CheckpointSet(
                taken_at_us=20, checkpoints=snapshot.checkpoints[:2]
            )
            with pytest.raises(CheckpointError, match="stage"):
                chain.restore(short)
        finally:
            chain.stop()

    def test_restore_is_all_or_nothing(self):
        # A set whose frames are stage-swapped fails per-NF validation
        # (nf name mismatch) — and the running chain keeps serving its
        # existing mappings untouched.
        chain, mappings = warm_chain()
        try:
            snapshot = chain.checkpoint(20)
            frames = snapshot.checkpoints
            scrambled = CheckpointSet(
                taken_at_us=20,
                checkpoints=(frames[2], frames[1], frames[0]),
            )
            with pytest.raises(CheckpointError):
                chain.restore(scrambled)
            assert observed_mappings(chain) == mappings
        finally:
            chain.stop()

    def test_checkpoint_refuses_while_a_stage_is_down(self):
        chain, _ = warm_chain()
        try:
            chain.fail_stage(1)
            with pytest.raises(CheckpointError, match="down"):
                chain.checkpoint(30)
        finally:
            chain.stop()

    def test_stage_checkpoint_refuses_a_down_stage(self):
        # A failed stage's NF is not a standby's to sync from: the
        # single-stage set is refused like the chain-wide one.
        chain = launch_chain(default_chain_spec(max_flows=64))
        try:
            chain.fail_stage(2)
            with pytest.raises(CheckpointError, match="stage 2 .* is down"):
                chain.checkpoint_stage(2, 0)
            assert chain.checkpoint_stage(1, 0).workers == 1
        finally:
            chain.stop()


class TestStagePromotion:
    def test_failed_stage_blackholes_traffic(self):
        chain, _ = warm_chain()
        try:
            chain.fail_stage(2)
            assert observed_mappings(chain) == {}
            assert chain.drop_causes()["chain_stage_killed"] == 8
        finally:
            chain.stop()

    def test_swap_from_sync_restores_the_stage_state(self):
        chain, mappings = warm_chain()
        try:
            sync = chain.checkpoint_stage(2, now_us=20)
            assert sync.workers == 1
            chain.fail_stage(2)
            chain.swap_stage(2, sync)
            assert observed_mappings(chain) == mappings
            assert chain.op_counters()["promotions"] == 1
        finally:
            chain.stop()

    def test_cold_swap_loses_state_but_serves(self):
        chain, mappings = warm_chain()
        try:
            chain.fail_stage(2)
            chain.swap_stage(2)  # no sync: a cold standby
            assert chain.engines[2].flow_count() == 0  # mappings are gone
            after = observed_mappings(chain)
            assert len(after) == 8  # traffic re-establishes flows
        finally:
            chain.stop()

    def test_swap_rejects_multi_stage_set(self):
        chain, _ = warm_chain()
        try:
            snapshot = chain.checkpoint(20)
            with pytest.raises(CheckpointError, match="single-stage"):
                chain.swap_stage(2, snapshot)
        finally:
            chain.stop()

    def test_swap_validates_before_installing(self):
        # Promoting with the wrong stage's frame must fail and leave
        # the (down) slot down rather than installing a half-built
        # engine.
        chain, _ = warm_chain()
        try:
            wrong = chain.checkpoint_stage(0, now_us=20)  # firewall frame
            chain.fail_stage(2)
            with pytest.raises(CheckpointError):
                chain.swap_stage(2, wrong)
            assert observed_mappings(chain) == {}
        finally:
            chain.stop()


class TestMixedStageChains:
    def test_noop_stage_checkpoints_too(self):
        stages = (
            ChainStage("noop", lambda _cfg: NoopForwarder()),
            ChainStage("nat", lambda cfg: VigNat(cfg), CONFIG),
        )
        chain, mappings = warm_chain(ChainSpec(stages=stages))
        snapshot = chain.checkpoint(20)
        chain.stop()
        assert snapshot.workers == 2

        revived = launch_chain(ChainSpec(stages=stages))
        try:
            revived.restore(snapshot)
            assert observed_mappings(revived) == mappings
        finally:
            revived.stop()
