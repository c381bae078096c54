"""The round-trip property: ``restore(snapshot(nat))`` ≡ ``nat``.

Hypothesis drives a random traffic prefix through a NAT, snapshots it
mid-run (through the full wire format — serialize, reparse, restore),
then replays an identical random suffix through the original and the
restored copy. Equivalence is observational and byte-exact: every
suffix packet must produce the same frames (same bytes, same device)
on both, and the final checkpoint states must match field for field.

Runs with the microflow fast path both off and on — a restored NF must
be indistinguishable even when the original's cache is warm and the
copy's is cold.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.nat.config import NatConfig
from repro.nat.fastpath import FastPathNat
from repro.nat.unverified import UnverifiedNat
from repro.nat.vignat import VigNat
from repro.packets.builder import make_tcp_packet, make_udp_packet
from repro.resil.checkpoint import Checkpoint, restore, snapshot

CFG = NatConfig(max_flows=8, expiration_time=2_000_000, start_port=1000)

INTERNAL_IPS = ["10.0.0.1", "10.0.0.2", "10.0.0.3"]
REMOTE_IP = "8.8.8.8"


def _steps():
    return st.lists(
        st.tuples(
            st.sampled_from(["in", "out"]),
            st.integers(0, 5),  # flow selector
            st.sampled_from(["udp", "udp0", "tcp"]),  # udp0 = checksum off
            st.integers(0, 2_500_000),  # µs increment, can cross expiry
        ),
        min_size=1,
        max_size=30,
    )


def _packet(direction, selector, kind):
    if direction == "out":
        src = INTERNAL_IPS[selector % len(INTERNAL_IPS)]
        sport = 1024 + selector
        if kind == "tcp":
            return make_tcp_packet(src, REMOTE_IP, sport, 80, device=0)
        packet = make_udp_packet(src, REMOTE_IP, sport, 53, device=0)
    else:
        dport = CFG.start_port + selector  # probes the allocation range
        if kind == "tcp":
            return make_tcp_packet(REMOTE_IP, CFG.external_ip, 80, dport, device=1)
        packet = make_udp_packet(REMOTE_IP, CFG.external_ip, 53, dport, device=1)
    if kind == "udp0":
        packet.l4.checksum = 0
    return packet


def _render(outputs):
    return [(p.device, p.wire_bytes()) for p in outputs]


def _final_state(nf, fastpath):
    state = nf.checkpoint_state()
    if fastpath:
        # Operation counters depend on cache warmth (a hit replays the
        # cached action without touching the inner NF's slow-path
        # counters), and the original's cache is warm where the restored
        # copy's is cold. The abstract flow state must still match.
        state.pop("counters")
    return state


def _check_roundtrip(nf_ctor, fastpath, steps, cut):
    def build():
        nf = nf_ctor(CFG)
        return FastPathNat(nf) if fastpath else nf

    original = build()
    cut = min(cut, len(steps))
    now = 0

    for direction, selector, kind, dt in steps[:cut]:
        now += dt
        original.process(_packet(direction, selector, kind), now)

    # Through the full wire format: bytes out, bytes in, restore.
    ckpt = Checkpoint.from_bytes(snapshot(original, now_us=now).to_bytes())
    restored = build()
    restore(restored, ckpt)
    assert restored.flow_count() == original.flow_count()

    for direction, selector, kind, dt in steps[cut:]:
        now += dt
        packet = _packet(direction, selector, kind)
        assert _render(restored.process(packet.clone(), now)) == _render(
            original.process(packet.clone(), now)
        ), f"restored NF diverged at t={now}"

    assert _final_state(restored, fastpath) == _final_state(original, fastpath)


@pytest.mark.parametrize("fastpath", [False, True], ids=["slowpath", "fastpath"])
class TestRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(steps=_steps(), cut=st.integers(0, 30))
    def test_vignat(self, fastpath, steps, cut):
        _check_roundtrip(VigNat, fastpath, steps, cut)

    @settings(max_examples=50, deadline=None)
    @given(steps=_steps(), cut=st.integers(0, 30))
    def test_unverified(self, fastpath, steps, cut):
        _check_roundtrip(UnverifiedNat, fastpath, steps, cut)
