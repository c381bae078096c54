"""A new flow's miss does each piece of work once, and both checks hold.

The fast path is trusted only because every replay path is
byte-compared against the verified slow path before it serves a packet.
These tests pin where that happens and what it costs, by count rather
than by time:

- a wire-backed miss runs the slow path (one lookup, one clone, one
  serialize of its output) and checks the compiled closure against those
  bytes — no object replay, no second lookup, no second serialize — and
  the flow's next wire-backed packet costs no clone and no compile;
- a miscompiled closure is caught at the learn, which falls back to the
  object replay's check, and a diverging object replay is caught by the
  flow's first materialised packet: either way no wrong frame leaves,
  and the outputs are the unwrapped NF's.
"""

import pytest

from repro.libvig.double_map import DoubleMap
from repro.nat.compiled import compile_action
from repro.nat.config import NatConfig
from repro.nat.fastpath import FastPathNat, apply_endpoint_action
from repro.nat.vignat import VigNat
from repro.packets.builder import make_tcp_packet, make_udp_packet
from repro.packets.headers import Packet

CFG = NatConfig(max_flows=64)


class _Counts:
    """Calls made while installed: clones, ``apply``, compiles, table
    lookups, and serializations of a materialised packet."""

    def __init__(self, monkeypatch, fast=None):
        self.calls = dict(clone=0, apply=0, compile=0, lookup=0, serialize=0)

        def counted(name, real, when=lambda *args: True):
            def call(*args, **kwargs):
                if when(*args):
                    self.calls[name] += 1
                return real(*args, **kwargs)

            return call

        monkeypatch.setattr(Packet, "clone", counted("clone", Packet.clone))
        monkeypatch.setattr(
            Packet,
            "wire_bytes",
            counted("serialize", Packet.wire_bytes, lambda p: p.image is None),
        )
        for name in ("get_by_a", "get_by_b"):
            monkeypatch.setattr(
                DoubleMap, name, counted("lookup", getattr(DoubleMap, name))
            )
        monkeypatch.setattr(
            "repro.nat.fastpath.compile_action", counted("compile", compile_action)
        )
        if fast is not None:
            monkeypatch.setattr(
                fast._hooks, "apply", counted("apply", fast._hooks.apply)
            )

    def take(self):
        taken = dict(self.calls)
        for name in self.calls:
            self.calls[name] = 0
        return taken


def _frame(packet):
    return Packet.from_bytes(packet.to_bytes(), packet.device)


@pytest.mark.parametrize("make", [make_udp_packet, make_tcp_packet], ids=["udp", "tcp"])
def test_a_new_flow_is_checked_once(monkeypatch, make):
    fast = FastPathNat(VigNat(CFG))
    slow = VigNat(CFG)
    counts = _Counts(monkeypatch, fast)
    outbound = make("10.0.0.5", "8.8.8.8", 4_000, 53, device=0)

    # The unwrapped NF's own work for the same frame: the slow path's.
    slow.process(_frame(outbound), 1_000)
    own = counts.take()
    assert own["lookup"] == 1 and own["clone"] == 1

    (outs,) = fast.process_burst([_frame(outbound)], 1_000)
    assert counts.take() == dict(
        clone=1, apply=0, compile=1, lookup=own["lookup"], serialize=1
    )
    # The slow path's verified bytes leave as bytes: TX serializes nothing.
    (out,) = outs
    assert out.image is not None
    assert fast.op_counters()["fastpath_learns"] == 1

    (outs,) = fast.process_burst([_frame(outbound)], 1_001)
    assert counts.take() == dict(clone=0, apply=0, compile=0, lookup=0, serialize=0)
    assert fast.op_counters()["fastpath_compiled_hits"] == 1

    # The reply direction learns off the other key, just as cheaply.
    port = Packet.from_bytes(out.image, 1).l4.src_port
    reply = make("8.8.8.8", CFG.external_ip, 53, port, device=1)
    slow.process(_frame(reply), 1_002)
    own = counts.take()
    fast.process_burst([_frame(reply)], 1_002)
    assert counts.take() == dict(
        clone=1, apply=0, compile=1, lookup=own["lookup"], serialize=1
    )


def test_learn_token_stays_an_exact_query():
    # The slow path hands its lookup to the learn it serves, and to no
    # one else: asked about another packet, or again, the NF looks; and
    # a scan that may free the flow takes the hand-over back.
    nat = VigNat(CFG)
    packet = make_udp_packet("10.0.0.5", "8.8.8.8", 4_000, 53, device=0)
    stranger = make_udp_packet("10.0.0.6", "8.8.8.8", 4_000, 53, device=0)
    nat.process(packet, 1_000)
    assert nat.learn_token(stranger) is None
    assert nat.learn_token(packet) == nat.learn_token(packet) == 0
    nat.process(packet, 1_001)
    nat.begin_burst(1_001 + CFG.expiration_time)  # the flow expires
    assert nat.learn_token(packet) is None


def _schedule():
    """Three flows, each direction offered wire-backed then materialised."""
    events = []
    now = 1_000
    for i in range(3):
        outbound = make_udp_packet("10.0.0.5", "8.8.8.8", 4_000 + i, 53, device=0)
        port = CFG.start_port + i
        reply = make_udp_packet("8.8.8.8", CFG.external_ip, 53, port, device=1)
        for packet in (outbound, reply):
            for wire in (True, True, False, False, True, False):
                events.append((packet, wire, now))
                now += 1
    return events


def _drive(nf, events):
    emitted = []
    for packet, wire, now in events:
        offered = _frame(packet) if wire else packet.clone()
        (outs,) = nf.process_burst([offered], now)
        emitted.append([(out.device, out.wire_bytes()) for out in outs])
    return emitted


def test_a_miscompile_falls_back_to_the_object_check(monkeypatch):
    monkeypatch.setattr(
        "repro.nat.fastpath.compile_action",
        lambda key, action: lambda image: image[:-1] + bytes([image[-1] ^ 1]),
    )
    fast = FastPathNat(VigNat(CFG))
    assert _drive(fast, _schedule()) == _drive(VigNat(CFG), _schedule())
    counters = fast.op_counters()
    assert counters["fastpath_learns"] == 6
    assert counters["fastpath_compile_rejected"] == 6
    assert counters["fastpath_compiles"] == counters["fastpath_compiled_hits"] == 0
    assert counters["fastpath_learn_rejected"] == 0
    # Every later packet of each direction hit the checked object replay.
    assert counters["fastpath_hits"] == 6 * 5


class _DivergentNat(VigNat):
    """A VigNat whose object replay flips a bit the slow path does not."""

    @staticmethod
    def apply(packet, action):
        out = apply_endpoint_action(packet, action)
        out.ipv4.ttl ^= 1
        return out


def test_a_diverging_replay_is_refused_for_good():
    fast = FastPathNat(_DivergentNat(CFG))
    assert _drive(fast, _schedule()) == _drive(VigNat(CFG), _schedule())
    counters = fast.op_counters()
    # Learned and verified on the closure, direction by direction...
    assert counters["fastpath_learns"] == counters["fastpath_compiles"] == 6
    # ...each direction's first materialised packet refused the replay,
    # so all three of its materialised packets took the slow path, and
    # only its wire-backed packets hit (the closure).
    assert counters["fastpath_learn_rejected"] == 6
    assert counters["fastpath_hits"] == counters["fastpath_compiled_hits"] == 6 * 2
    assert counters["fastpath_misses"] == 6 * 4
