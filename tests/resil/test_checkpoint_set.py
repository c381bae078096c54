"""The ``repro-ckpt-set/v1`` container: a coordinated cut, all-or-nothing.

Same philosophy as the per-shard format tests: a checkpoint set that
decodes wrong must raise :class:`CheckpointError` at whichever layer the
damage sits — outer magic, manifest CRC, promised frame lengths, or an
inner frame — before any NF state is touched, and a runtime's
``restore`` must refuse a set whose shape does not match its fleet.
"""

import json
import struct
import zlib

import pytest

from repro.nat.config import NatConfig
from repro.nat.vignat import VigNat
from repro.net.app import RuntimeSpec, launch
from repro.packets.builder import make_udp_packet
from repro.resil.checkpoint import SET_MAGIC, CheckpointError, CheckpointSet, snapshot

CFG = NatConfig(max_flows=16, expiration_time=60_000_000, start_port=1000)


def _fleet(workers: int = 2, flows_per_worker: int = 3):
    """N shard NFs, each with its own flows."""
    shards = CFG.partition(workers)
    nfs = [VigNat(shard) for shard in shards]
    for i, nf in enumerate(nfs):
        for j in range(flows_per_worker):
            nf.process(
                make_udp_packet(
                    0x0A000001 + i, "8.8.8.8", 2_000 + 50 * i + j, 53, device=0
                ),
                1_000,
            )
    return nfs


def _set(workers: int = 2) -> CheckpointSet:
    return CheckpointSet(5_000, tuple(snapshot(nf, 5_000) for nf in _fleet(workers)))


def _runtime(workers: int = 2, flows: int = 6):
    """A threaded fleet of ``workers`` that has served ``flows`` flows."""
    runtime = launch(RuntimeSpec(nf_factory=VigNat, config=CFG, workers=workers))
    for i in range(flows):
        packet = make_udp_packet(0x0A000001, "8.8.8.8", 2_000 + i, 53, device=0)
        runtime.inject(0, packet, 1_000)
    runtime.main_loop_burst(1_000)
    runtime.collect()
    return runtime


class TestShape:
    def test_one_frame_per_shard(self):
        checkpoint_set = _runtime(3).checkpoint(5_000)
        assert checkpoint_set.workers == 3
        assert checkpoint_set.taken_at_us == 5_000
        assert all(c.nf == "verified-nat" for c in checkpoint_set.checkpoints)

    def test_empty_set_refused(self):
        with pytest.raises(CheckpointError):
            CheckpointSet(taken_at_us=0, checkpoints=())


class TestWireFormat:
    def test_round_trips(self):
        original = _set()
        again = CheckpointSet.from_bytes(original.to_bytes())
        assert again.workers == original.workers
        assert again.taken_at_us == original.taken_at_us
        assert [c.state for c in again.checkpoints] == [
            c.state for c in original.checkpoints
        ]

    def test_serialization_is_canonical(self):
        assert _set().to_bytes() == _set().to_bytes()

    def test_bad_magic(self):
        with pytest.raises(CheckpointError, match="magic"):
            CheckpointSet.from_bytes(b"not-a-checkpoint-set" + b"\x00" * 40)

    def test_truncated_header(self):
        with pytest.raises(CheckpointError, match="header"):
            CheckpointSet.from_bytes(SET_MAGIC + b"\x00\x01")

    def test_truncated_manifest(self):
        payload = _set().to_bytes()
        cut = len(SET_MAGIC) + struct.calcsize(">II") + 4
        with pytest.raises(CheckpointError, match="manifest incomplete"):
            CheckpointSet.from_bytes(payload[:cut])

    def test_manifest_crc_catches_damage(self):
        payload = bytearray(_set().to_bytes())
        payload[len(SET_MAGIC) + struct.calcsize(">II") + 2] ^= 0xFF
        with pytest.raises(CheckpointError, match="CRC"):
            CheckpointSet.from_bytes(bytes(payload))

    def test_missing_frames_detected(self):
        payload = _set().to_bytes()
        with pytest.raises(CheckpointError, match="promises"):
            CheckpointSet.from_bytes(payload[:-10])

    def test_inner_frame_damage_detected(self):
        """Damage inside a shard frame is the inner format's CRC to
        catch — the set must surface it, not half-restore."""
        payload = bytearray(_set().to_bytes())
        payload[-1] ^= 0xFF
        with pytest.raises(CheckpointError):
            CheckpointSet.from_bytes(bytes(payload))

    def test_manifest_nf_mismatch_detected(self):
        """A manifest whose NF lineup disagrees with its frames is
        rejected even when every CRC is intact."""
        original = _set()
        frames = [c.to_bytes() for c in original.checkpoints]
        manifest = json.dumps(
            {
                "taken_at_us": 5_000,
                "workers": 2,
                "nfs": ["verified-nat", "unverified-nat"],  # a lie
                "frame_lengths": [len(f) for f in frames],
            },
            sort_keys=True,
            separators=(",", ":"),
        ).encode("utf-8")
        forged = (
            SET_MAGIC
            + struct.pack(">II", zlib.crc32(manifest), len(manifest))
            + manifest
            + b"".join(frames)
        )
        with pytest.raises(CheckpointError, match="manifest says"):
            CheckpointSet.from_bytes(forged)


class TestRuntimeRestore:
    def test_width_mismatch_refused(self):
        checkpoint_set = _runtime(2).checkpoint(5_000)
        with pytest.raises(CheckpointError, match="runtime has 3"):
            _runtime(3, flows=0).restore(checkpoint_set)

    def test_shard_config_cross_check(self):
        """Frame i only restores into worker i: the set's frames in the
        other order trip the per-frame config guard, and no worker
        adopts anything."""
        good = _runtime(2).checkpoint(5_000)
        swapped = CheckpointSet(good.taken_at_us, good.checkpoints[::-1])
        fresh = _runtime(2, flows=0)
        with pytest.raises(CheckpointError, match="config mismatch"):
            fresh.restore(swapped)
        assert fresh.flow_count() == 0
