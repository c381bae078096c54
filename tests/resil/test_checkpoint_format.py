"""The ``repro-ckpt/v1`` container must refuse every malformed input.

A checkpoint that decodes wrong is worse than one that fails: a restore
from corrupted bytes silently resurrects the wrong flow table. Every
framing violation — bad magic, truncation at any layer, trailing bytes,
CRC damage, non-JSON body, missing fields — must raise
:class:`CheckpointError` before any NF state is touched, and the
restore-time guards (NF kind, configuration, freshness) must refuse
checkpoints that parse fine but belong elsewhere.
"""

import json
import struct
import zlib
from dataclasses import replace

import pytest

from repro.nat.config import NatConfig
from repro.nat.fastpath import FastPathNat
from repro.nat.unverified import UnverifiedNat
from repro.nat.vignat import VigNat
from repro.net.app import RuntimeSpec, launch
from repro.packets.builder import make_udp_packet
from repro.packets.headers import Packet
from repro.resil.checkpoint import MAGIC, Checkpoint, CheckpointError, restore, snapshot

CFG = NatConfig(max_flows=8, expiration_time=2_000_000, start_port=1000)


def _nat_with_flows(count: int = 3) -> VigNat:
    nat = VigNat(CFG)
    for i in range(count):
        nat.process(
            make_udp_packet("10.0.0.1", "8.8.8.8", 4_000 + i, 53, device=0),
            1_000 + i,
        )
    return nat


def _checkpoint() -> Checkpoint:
    return snapshot(_nat_with_flows(), now_us=5_000)


class TestWireFormat:
    def test_round_trips(self):
        ckpt = _checkpoint()
        again = Checkpoint.from_bytes(ckpt.to_bytes())
        assert again == ckpt

    def test_serialization_is_canonical(self):
        # Same state, same bytes — the format is a stable artifact.
        assert _checkpoint().to_bytes() == _checkpoint().to_bytes()

    def test_bad_magic(self):
        data = _checkpoint().to_bytes()
        with pytest.raises(CheckpointError, match="bad magic"):
            Checkpoint.from_bytes(b"not-a-ckpt/v9\n" + data[len(MAGIC) :])

    def test_wrong_version_line_is_bad_magic(self):
        data = _checkpoint().to_bytes()
        with pytest.raises(CheckpointError, match="bad magic"):
            Checkpoint.from_bytes(data.replace(b"/v1", b"/v2", 1))

    @pytest.mark.parametrize("keep", [0, 4, 7])
    def test_truncated_frame_header(self, keep):
        with pytest.raises(CheckpointError, match="frame header"):
            Checkpoint.from_bytes(MAGIC + b"\x00" * keep)

    def test_truncated_body(self):
        data = _checkpoint().to_bytes()
        with pytest.raises(CheckpointError, match="truncated"):
            Checkpoint.from_bytes(data[:-1])

    def test_trailing_bytes(self):
        data = _checkpoint().to_bytes()
        with pytest.raises(CheckpointError, match="trailing"):
            Checkpoint.from_bytes(data + b"\x00")

    def test_crc_catches_body_damage(self):
        data = bytearray(_checkpoint().to_bytes())
        data[-1] ^= 0xFF  # one flipped byte deep in the body
        with pytest.raises(CheckpointError, match="CRC"):
            Checkpoint.from_bytes(bytes(data))

    @staticmethod
    def _frame(body: bytes) -> bytes:
        return MAGIC + struct.pack(">II", zlib.crc32(body), len(body)) + body

    def test_body_must_be_json(self):
        with pytest.raises(CheckpointError, match="not valid JSON"):
            Checkpoint.from_bytes(self._frame(b"\xff\xfe not json"))

    @pytest.mark.parametrize("missing", ["nf", "taken_at_us", "config", "state"])
    def test_body_must_carry_every_field(self, missing):
        payload = {"nf": "x", "taken_at_us": 0, "config": {}, "state": {}}
        del payload[missing]
        body = json.dumps(payload).encode()
        with pytest.raises(CheckpointError, match=missing):
            Checkpoint.from_bytes(self._frame(body))


class TestRestoreGuards:
    def test_wrong_nf_kind_refused(self):
        ckpt = _checkpoint()  # a verified-nat checkpoint
        with pytest.raises(CheckpointError, match="verified-nat"):
            restore(UnverifiedNat(CFG), ckpt)

    def test_config_mismatch_refused_with_diff(self):
        ckpt = _checkpoint()
        other = NatConfig(max_flows=16, expiration_time=2_000_000, start_port=1000)
        with pytest.raises(CheckpointError, match="max_flows"):
            restore(VigNat(other), ckpt)

    def test_restore_needs_a_fresh_nf(self):
        ckpt = _checkpoint()
        used = _nat_with_flows(1)
        with pytest.raises(ValueError, match="freshly constructed"):
            restore(used, ckpt)

    def test_unverified_restore_needs_a_fresh_nf(self):
        nat = UnverifiedNat(CFG)
        nat.process(
            make_udp_packet("10.0.0.1", "8.8.8.8", 4_000, 53, device=0), 1_000
        )
        ckpt = snapshot(nat, now_us=2_000)
        with pytest.raises(ValueError, match="freshly constructed"):
            restore(nat, ckpt)

    def test_fastpath_wrapper_snapshots_inner_config(self):
        # snapshot() must see through the wrapper to the inner config,
        # so a wrapped checkpoint restores into a wrapped NF and back.
        wrapped = FastPathNat(VigNat(CFG))
        wrapped.process(
            make_udp_packet("10.0.0.1", "8.8.8.8", 4_000, 53, device=0), 1_000
        )
        ckpt = snapshot(wrapped, now_us=2_000)
        assert ckpt.nf == "verified-nat"
        assert ckpt.config["max_flows"] == CFG.max_flows
        fresh = FastPathNat(VigNat(CFG))
        restore(fresh, ckpt)
        assert fresh.flow_count() == 1

    def test_checkpoint_with_generation_still_restores(self):
        # Until the cache's validity became per-flow, the NF state
        # carried the global "generation" counter. Such a checkpoint
        # restores as before; the field is ignored and not written back.
        for nf_class in (VigNat, UnverifiedNat):
            nat = nf_class(CFG)
            for i in range(3):
                nat.process(
                    make_udp_packet("10.0.0.1", "8.8.8.8", 4_000 + i, 53, device=0),
                    1_000 + i,
                )
            ckpt = snapshot(nat, now_us=5_000)
            assert "generation" not in ckpt.state
            old_style = replace(ckpt, state={**ckpt.state, "generation": 7})
            fresh = nf_class(CFG)
            restore(fresh, Checkpoint.from_bytes(old_style.to_bytes()))
            assert fresh.checkpoint_state() == nat.checkpoint_state()

    def test_no_pre_restore_action_fires_after_it(self):
        # A restore rolls flow B out of existence while B's actions —
        # learned after the snapshot, hot in both directions — sit in
        # the serving cache. None of them may fire afterwards: B's old
        # external port is dead until the slow path hands it to C.
        def drive(fastpath):
            runtime = launch(
                RuntimeSpec(nf_factory=VigNat, config=CFG, fastpath=fastpath)
            )
            sent = []

            def turn(now, *packets):
                for packet in packets:
                    wire = Packet.from_bytes(packet.to_bytes(), packet.device)
                    runtime.inject(packet.device, wire, now)
                runtime.main_loop_burst(now)
                sent.append(
                    [(port, p.wire_bytes()) for port, _ts, p in runtime.collect()]
                )
                return sent[-1]

            def host(n):
                return make_udp_packet(f"10.0.0.{n}", "8.8.8.8", 4_000 + n, 53)

            def reply(port):
                return make_udp_packet(
                    "8.8.8.8", CFG.external_ip, 53, port, device=1
                )

            port_a, port_b = CFG.start_port, CFG.start_port + 1
            for now in (1_000, 1_001):
                turn(now, host(1), reply(port_a))
            rollback = runtime.checkpoint(2_000)
            for now in (3_000, 3_001):
                assert len(turn(now, host(2), reply(port_b))) == 2
            runtime.restore(rollback)
            assert turn(4_000, reply(port_b)) == []  # B is gone
            assert len(turn(4_001, host(1), reply(port_a))) == 2  # A is not
            assert len(turn(4_002, host(3), reply(port_b))) == 2  # C has the port
            counters = runtime.op_counters()
            runtime.stop()
            return sent, counters

        oracle, _ = drive("off")
        compiled, counters = drive("compiled")
        assert compiled == oracle
        # The counters are the fresh cache's: nothing from before the
        # restore hit, everything was learned again.
        assert counters["fastpath_hits"] == 0
        assert counters["fastpath_learns"] == 4
