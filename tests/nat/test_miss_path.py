"""A new flow's miss does each piece of work once, and the check holds.

The fast path is trusted only because every action's closure is
byte-compared against the verified slow path before it serves a
packet. These tests pin where that happens and what it costs, by count
rather than by time:

- a wire-backed miss runs the slow path (one lookup, one clone, one
  serialize of its output) and checks the compiled closure against those
  bytes — no second lookup, no second serialize — and the flow's next
  wire-backed packet costs no clone, no compile and no serialize;
- the slow path reads a wire-backed packet's fields off its flow key, so
  the arriving packet is never parsed: its output clone is the one parse;
- a materialised miss costs one serialize more (its own, the frame the
  closure is checked on), and its materialised hit exactly that one;
- a miscompiled closure is caught at the learn: no action is cached,
  no wrong frame leaves, and the outputs are the unwrapped NF's.
"""

import pytest

from repro.libvig.double_map import DoubleMap
from repro.nat.config import NatConfig
from repro.nat.fastpath import FastPathNat
from repro.nat.vignat import VigNat
from repro.packets.builder import make_tcp_packet, make_udp_packet
from repro.packets.headers import Packet

CFG = NatConfig(max_flows=64)


class _Counts:
    """Calls made while installed: clones, compiles, table lookups, and
    serializations of a materialised packet."""

    def __init__(self, monkeypatch, fast):
        self.calls = dict(clone=0, compile=0, lookup=0, serialize=0)

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
            fast._hooks, "compile", counted("compile", fast._hooks.compile)
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
    assert counts.take() == dict(clone=1, compile=1, lookup=own["lookup"], serialize=1)
    # The slow path's verified bytes leave as bytes: TX serializes nothing.
    (out,) = outs
    assert out.image is not None
    assert fast.op_counters()["fastpath_learns"] == 1

    (outs,) = fast.process_burst([_frame(outbound)], 1_001)
    assert counts.take() == dict(clone=0, compile=0, lookup=0, serialize=0)
    assert fast.op_counters()["fastpath_compiled_hits"] == 1

    # The reply direction learns off the other key, just as cheaply.
    port = Packet.from_bytes(out.image, 1).l4.src_port
    reply = make("8.8.8.8", CFG.external_ip, 53, port, device=1)
    slow.process(_frame(reply), 1_002)
    own = counts.take()
    fast.process_burst([_frame(reply)], 1_002)
    assert counts.take() == dict(clone=1, compile=1, lookup=own["lookup"], serialize=1)

    # A materialised flow serializes itself once more, at its learn and
    # at each hit: the frame its closure runs on.
    other = make("10.0.0.6", "8.8.8.8", 4_000, 53, device=0)
    learning, hitting, twins = other.clone(), other.clone(), other.clone()
    counts.take()
    slow.process(twins, 1_003)
    own = counts.take()
    fast.process_burst([learning], 1_003)
    assert counts.take() == dict(clone=1, compile=1, lookup=own["lookup"], serialize=2)
    fast.process_burst([hitting], 1_004)
    assert counts.take() == dict(clone=0, compile=0, lookup=0, serialize=1)
    assert fast.op_counters()["fastpath_compiled_hits"] == 2


@pytest.mark.parametrize("wrap", [FastPathNat, lambda nf: nf], ids=["wrapped", "bare"])
def test_a_wire_backed_miss_leaves_its_packet_wire_backed(wrap):
    nf = wrap(VigNat(CFG))
    outbound = _frame(make_udp_packet("10.0.0.5", "8.8.8.8", 4_000, 53, device=0))
    (outs,) = nf.process_burst([outbound], 1_000)
    assert outbound.image is not None
    (out,) = outs
    port = Packet.from_bytes(out.wire_bytes(), 1).l4.src_port
    reply = _frame(make_udp_packet("8.8.8.8", CFG.external_ip, 53, port, device=1))
    (outs,) = nf.process_burst([reply], 1_001)
    assert reply.image is not None and len(outs) == 1
    # An unsolicited reply is dropped without a parse as well.
    stranger = _frame(make_udp_packet("8.8.8.8", CFG.external_ip, 53, 9, device=1))
    assert nf.process_burst([stranger], 1_002) == [[]]
    assert stranger.image is not None


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


def test_a_miscompile_falls_back_to_the_slow_path(monkeypatch):
    fast = FastPathNat(VigNat(CFG))
    monkeypatch.setattr(
        fast._hooks,
        "compile",
        lambda key, action: lambda image: image[:-1] + bytes([image[-1] ^ 1]),
    )
    events = _schedule()
    assert _drive(fast, events) == _drive(VigNat(CFG), _schedule())
    counters = fast.op_counters()
    # Every packet, wire-backed or not, took the slow path and tried to
    # learn; nothing was cached, so nothing hit.
    assert counters["fastpath_compile_rejected"] == len(events)
    assert counters["fastpath_misses"] == len(events)
    assert counters["fastpath_learns"] == counters["fastpath_compiles"] == 0
    assert counters["fastpath_hits"] == 0
    assert fast.cache_size == 0
