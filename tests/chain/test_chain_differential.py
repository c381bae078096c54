"""The chain differential grid: a launched chain must be byte-identical
to manually piping the same NFs stage by stage, with the fast path off
and on and in both execution modes — composition adds no semantics."""

import pytest

from repro.chain import ChainSpec, ChainStage, launch_chain
from repro.nat.config import NatConfig
from repro.nat.firewall import VigFirewall
from repro.nat.noop import NoopForwarder
from repro.nat.vignat import VigNat
from repro.net.app import INLINE, PROCESS
from repro.obs.flight import first_divergence
from repro.packets.builder import make_udp_packet

CONFIG = NatConfig(max_flows=64, expiration_time=60_000_000, start_port=1000)

GRID = [
    (fastpath, execution)
    for fastpath in ("off", "compiled")
    for execution in (INLINE, PROCESS)
]


def chain_spec(fastpath, execution):
    stages = (
        ChainStage("firewall", lambda cfg: VigFirewall(cfg), CONFIG),
        ChainStage("noop", lambda _cfg: NoopForwarder()),
        ChainStage("nat", lambda cfg: VigNat(cfg), CONFIG),
    )
    return ChainSpec(stages=stages, fastpath=fastpath, execution=execution)


def fresh_nfs():
    return [VigFirewall(CONFIG), NoopForwarder(), VigNat(CONFIG)]


DEVICES = [(0, 1), (0, 1), (0, 1)]  # (device_a, device_b) per stage


def manual_pipe(nfs, port_id, packet, now):
    """Thread one packet through bare NFs with the chain's remap rules,
    written out independently here as the reference semantics."""
    outputs = []
    last = len(nfs) - 1
    if port_id == 0:
        work = [(0, DEVICES[0][0], packet)]
    else:
        work = [(last, DEVICES[last][1], packet)]
    while work:
        index, device, pkt = work.pop(0)
        pkt.device = device
        for out in nfs[index].process(pkt, now):
            if out.device == DEVICES[index][1]:
                if index == last:
                    outputs.append((out.to_bytes(), 1))
                else:
                    work.append((index + 1, DEVICES[index + 1][0], out))
            elif out.device == DEVICES[index][0]:
                if index == 0:
                    outputs.append((out.to_bytes(), 0))
                else:
                    work.append((index - 1, DEVICES[index - 1][1], out))
    return outputs


def traffic_script():
    """(entry port, packet builder) steps; replies are built lazily from
    the mapping the reference path observed, so both sides see the same
    bytes and any mapping skew shows up as a divergence."""
    steps = []
    for i in range(6):
        steps.append(
            (
                0,
                lambda i=i: make_udp_packet(
                    f"10.0.0.{i % 3 + 1}", "203.0.113.9", 1024 + i, 2000 + i
                ),
            )
        )
    return steps


@pytest.mark.parametrize("fastpath,execution", GRID)
def test_chain_matches_manual_pipe(fastpath, execution):
    chain = launch_chain(chain_spec(fastpath, execution))
    nfs = fresh_nfs()
    expected, actual = [], []
    try:
        now = 1_000
        forward_exits = []
        for port_id, build in traffic_script():
            want = manual_pipe(nfs, port_id, build(), now)
            expected.append(want)
            forward_exits.extend(wire for wire, port in want if port == 1)

            assert chain.inject(port_id, build(), now)
            chain.main_loop_burst(now)
            actual.append(
                [(pkt.to_bytes(), port) for port, _ts, pkt in chain.collect()]
            )
            now += 1_000

        # Replies to every translated exit observed on the reference
        # path — they traverse the chain right-to-left.
        for wire in forward_exits:
            ext_port = int.from_bytes(wire[34:36], "big")  # UDP src port
            flow_port = int.from_bytes(wire[36:38], "big")  # UDP dst port

            def build(s=flow_port, d=ext_port):
                return make_udp_packet(
                    "203.0.113.9", "192.0.2.1", s, d, device=1
                )
            expected.append(manual_pipe(nfs, 1, build(), now))
            assert chain.inject(1, build(), now)
            chain.main_loop_burst(now)
            actual.append(
                [(pkt.to_bytes(), port) for port, _ts, pkt in chain.collect()]
            )
            now += 1_000

        # A packet the firewall must drop (unsolicited external).
        def build():
            return make_udp_packet(
                "203.0.113.9", "192.0.2.1", 9999, 40_000, device=1
            )
        expected.append(manual_pipe(nfs, 1, build(), now))
        assert chain.inject(1, build(), now)
        chain.main_loop_burst(now)
        actual.append(
            [(pkt.to_bytes(), port) for port, _ts, pkt in chain.collect()]
        )

        diff = first_divergence(expected, actual)
        assert diff is None, diff.render()
        # The scenario is not vacuous: traffic crossed in both
        # directions and the firewall dropped the unsolicited probe.
        assert len(forward_exits) == 6
        assert expected[-1] == []
    finally:
        chain.stop()
