"""One buffer, one owner, across the whole chain.

A frame gets its mbuf in the chain's ``rx_burst`` and gives it back
exactly once — at exit, or when an NF drop, a misroute or a down stage
frees it — so after every quiescent turn the chain's pool is home again,
whatever happened to the frames on the way.
"""

import pytest

from repro.chain import ChainSpec, ChainStage, default_chain_spec, launch_chain
from repro.nat.bridge import BridgeConfig, VigBridge
from repro.nat.config import NatConfig
from repro.nat.firewall import VigFirewall
from repro.nat.noop import NoopForwarder
from repro.packets.builder import make_udp_packet

#: A chain runs inline only; the parameter names the execution in test ids.
EXECUTIONS = ["inline"]
CONFIG = NatConfig(max_flows=64, expiration_time=60_000_000, start_port=1000)


def noop_stage(name):
    return ChainStage(name, lambda _cfg: NoopForwarder())


class FloodingBridge(VigBridge):
    """A bridge that also floods every forwarded frame back out the
    port it arrived on: two outputs per input."""

    def process_burst(self, packets, now):
        arrived = [packet.device for packet in packets]
        results = super().process_burst(packets, now)
        flooded = []
        for device, outputs in zip(arrived, results):
            copies = []
            for out in outputs:
                copy = out.clone()
                copy.device = device
                copies.append(copy)
            flooded.append(list(outputs) + copies)
        return flooded


def outbound(i=0):
    return make_udp_packet(f"10.0.0.{i + 1}", "203.0.113.9", 1024 + i, 2000 + i)


def turn(chain, now, frames=(), replies=()):
    """Offer frames on both edges, run one turn; the exits by port."""
    for packet in frames:
        chain.inject(0, packet, now)
    for packet in replies:
        chain.inject(1, packet, now)
    chain.main_loop_burst(now)
    exits = [port for port, _ts, _pkt in chain.collect()]
    assert chain.runtime.pool.in_flight == 0
    return exits


@pytest.fixture(params=EXECUTIONS)
def execution(request):
    return request.param


@pytest.fixture
def launched():
    chains = []

    def launcher(spec):
        chains.append(launch_chain(spec))
        return chains[-1]

    yield launcher
    for chain in chains:
        chain.stop()


def test_firewall_drop_frees_the_buffer(execution, launched):
    stages = (
        ChainStage("firewall", lambda cfg: VigFirewall(cfg), CONFIG),
        noop_stage("noop"),
    )
    chain = launched(ChainSpec(stages=stages))
    unsolicited = make_udp_packet("203.0.113.9", "192.0.2.1", 9999, 40_000, device=1)
    assert turn(chain, 10, replies=[unsolicited]) == []
    assert chain.drop_causes()["nf_drop"] == 1
    assert turn(chain, 20, frames=[outbound()]) == [1]


def test_misroute_frees_the_buffer(execution, launched):
    lost = ChainStage("lost", lambda _cfg: NoopForwarder(0, 1), device_a=0, device_b=3)
    chain = launched(ChainSpec(stages=(noop_stage("noop"), lost)))
    assert turn(chain, 10, frames=[outbound(i) for i in range(3)]) == []
    assert chain.drop_causes()["chain_misroute"] == 3


def test_down_stage_and_swaps_free_the_buffers(execution, launched):
    chain = launched(default_chain_spec(execution=execution, max_flows=64))
    flows = range(4)
    assert turn(chain, 10, frames=map(outbound, flows)) == [1] * 4
    sync = chain.checkpoint_stage(1, now_us=10)
    chain.fail_stage(1)
    assert turn(chain, 20, frames=map(outbound, flows)) == []
    assert chain.drop_causes()["chain_stage_killed"] == 4
    chain.swap_stage(1, sync)
    assert turn(chain, 30, frames=map(outbound, flows)) == [1] * 4
    chain.swap_stage(1)  # cold, over a live stage
    assert turn(chain, 40, frames=map(outbound, flows)) == [1] * 4


def test_extra_outputs_get_their_own_buffers(execution, launched):
    flood = ChainStage("flood", lambda cfg: FloodingBridge(cfg), BridgeConfig())
    chain = launched(ChainSpec(stages=(flood, noop_stage("noop"))))
    # Each frame leaves twice: forwarded out port 1, flooded out port 0.
    exits = turn(chain, 10, frames=[outbound(i) for i in range(3)])
    assert sorted(exits) == [0] * 3 + [1] * 3
    assert chain.drop_causes()["pool_high_water"] == 6


def test_a_dry_pool_leaves_the_surplus_queued(execution, launched):
    chain = launched(ChainSpec(stages=(noop_stage("noop"),), pool_size=4))
    assert turn(chain, 10, frames=[outbound(i) for i in range(6)]) == [1] * 4
    causes = chain.drop_causes()
    assert causes["rx_no_mbuf"] >= 1
    assert causes["chain_rx_ring_full"] == 0
    assert turn(chain, 20) == [1] * 2  # nothing lost
    assert chain.op_counters()["exited"] == chain.op_counters()["injected"] == 6


def test_high_water_is_one_pool_not_a_sum_of_stages(execution, launched):
    stages = tuple(noop_stage(f"noop{i}") for i in range(3))
    chain = launched(ChainSpec(stages=stages))
    assert turn(chain, 10, frames=[outbound(i) for i in range(5)]) == [1] * 5
    causes = chain.drop_causes()
    assert causes["pool_high_water"] == 5
    assert set(causes) == {
        "chain_rx_ring_full",
        "chain_misroute",
        "chain_stage_killed",
        "rx_no_mbuf",
        "nf_drop",
        "out_no_mbuf",
        "pool_high_water",
    }
