"""The chain differential grid: a launched chain must be byte-identical
to manually piping the same NFs stage by stage, with the fast path off
and on — composition adds no semantics."""

import pytest

from repro.chain import ChainSpec, ChainStage, launch_chain
from repro.nat.config import NatConfig
from repro.nat.firewall import VigFirewall
from repro.nat.noop import NoopForwarder
from repro.nat.vignat import VigNat
from repro.obs.flight import first_divergence
from repro.packets.builder import make_udp_packet

CONFIG = NatConfig(max_flows=64, expiration_time=60_000_000, start_port=1000)

#: fastpath × execution; a chain runs inline only.
GRID = [(fastpath, "inline") for fastpath in ("off", "compiled")]


def chain_spec(fastpath):
    stages = (
        ChainStage("firewall", lambda cfg: VigFirewall(cfg), CONFIG),
        ChainStage("noop", lambda _cfg: NoopForwarder()),
        ChainStage("nat", lambda cfg: VigNat(cfg), CONFIG),
    )
    return ChainSpec(stages=stages, fastpath=fastpath)


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
    chain = launch_chain(chain_spec(fastpath))
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


# -- fused hits: one cached action per frame must be the staged path -------------

from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro import obs  # noqa: E402
from repro.nat.limiter import LimiterConfig, VigLimiter  # noqa: E402
from repro.obs import flight  # noqa: E402
from repro.obs.expo import sample_value  # noqa: E402
from repro.packets.headers import Packet  # noqa: E402
from tests.nat.cache_invariant import assert_fused_within_live_flows  # noqa: E402

FW_EXPIRY, NAT_EXPIRY, WINDOW, BUDGET = 6_000, 4_000, 8_000, 10
#: Turn gaps: a clock that runs backwards, within a lifetime, past the
#: NAT's only, past every one.
GAPS = (-300, 1, 100, 2_000, 5_000, 20_000)
EXTERNAL_IP = NatConfig().external_ip
REMOTE = "203.0.113.9"


def budgeted_spec(fastpath, swapped=False):
    """The reference chain with a small limiter budget and short lives;
    ``swapped`` numbers the NAT's devices the other way round, so the
    last stage serves port 1's arrivals before port 0's."""
    fw = NatConfig(max_flows=16, expiration_time=FW_EXPIRY, start_port=1000)
    nat = NatConfig(
        max_flows=16,
        expiration_time=NAT_EXPIRY,
        start_port=1000,
        internal_device=1 if swapped else 0,
        external_device=0 if swapped else 1,
    )
    stages = (
        ChainStage("firewall", lambda cfg: VigFirewall(cfg), fw),
        ChainStage(
            "limiter",
            lambda cfg: VigLimiter(cfg),
            LimiterConfig(capacity=16, window=WINDOW, max_packets=BUDGET),
        ),
        ChainStage(
            "nat",
            lambda cfg: VigNat(cfg),
            nat,
            device_a=nat.internal_device,
            device_b=nat.external_device,
        ),
    )
    return ChainSpec(stages=stages, fastpath=fastpath)


def outbound(host, sport=0):
    return make_udp_packet(f"10.0.0.{host + 1}", REMOTE, 1024 + sport, 2000)


def out(host, sport=0):
    return ("out", host, sport)


def reply(index):
    return ("reply", index)


def turn(*frames, gap=100):
    return ("turn", frames, gap)


WARM = [turn(out(0), out(1), out(2), reply(0), reply(1), reply(2))] * 4

frames = st.one_of(
    st.builds(out, st.integers(0, 2), st.integers(0, 1)),
    st.builds(reply, st.integers(0, 5)),
    st.builds(lambda n: ("probe", n), st.integers(0, 1)),
)
steps = st.one_of(
    st.builds(
        lambda fs, gap: ("turn", tuple(fs), gap),
        st.lists(frames, max_size=7),
        st.sampled_from(GAPS),
    ),
    st.builds(lambda i: ("fail", i), st.integers(0, 2)),
    st.builds(lambda warm: ("swap", warm), st.booleans()),
    st.just(("restore",)),
)


#: The bursts a fused turn counts may differ (docs/CHAINS.md, "Fused
#: hits").
NOT_COMPARED = {"bursts"}


class Chains:
    """One schedule through three chains, compared after every turn.

    ``fused`` (compiled) is under test. ``staged`` is the same chain
    with fusion switched off, the path every fused frame must equal:
    wire, state, counters and each stage's hop counts. ``off`` is the slow path:
    wire."""

    def __init__(self, swapped):
        self.specs = [
            budgeted_spec("compiled", swapped),
            budgeted_spec("compiled", swapped),
            budgeted_spec("off", swapped),
        ]
        self.chains = self.launch()
        self.now = 1_000
        self.mappings = []  # (remote port, external port), in first-seen order
        self.syncs = None
        self.probes = {}
        self.drift = [0, 0, 0]  # map probes the invariant's queries made

    def launch(self):
        chains = [launch_chain(spec) for spec in self.specs]
        chains[1]._fusing = False
        return chains

    def frame(self, step):
        kind = step[0]
        if kind == "out":
            return 0, outbound(*step[1:])
        if kind == "reply":
            if not self.mappings:
                return None
            remote_port, ext_port = self.mappings[step[1] % len(self.mappings)]
            return 1, make_udp_packet(
                REMOTE, EXTERNAL_IP, remote_port, ext_port, device=1
            )
        return 1, make_udp_packet(REMOTE, EXTERNAL_IP, 9999, 40_000 + step[1], device=1)

    def turn(self, steps, gap):
        wire = [frame for frame in map(self.frame, steps) if frame is not None]
        for chain in self.chains:
            for port, packet in wire:
                frame = Packet.from_bytes(packet.wire_bytes(), port)
                chain.inject(port, frame, self.now)
            chain.main_loop_burst(self.now)
        sent = [
            [(port, pkt.wire_bytes()) for port, _ts, pkt in chain.collect()]
            for chain in self.chains
        ]
        assert sent[0] == sent[1] == sent[2]
        for port, data in sent[0]:
            translated = Packet.from_bytes(data, port)
            mapping = (translated.dst_port, translated.src_port)
            if port == 1 and mapping not in self.mappings:
                self.mappings.append(mapping)
        self.compare()
        self.now += gap

    def compare(self):
        fused, staged, _off = self.chains
        if not any(fused._down):
            states = [
                [frame.state for frame in chain.checkpoint(self.now).checkpoints]
                for chain in (fused, staged)
            ]
            assert states[0] == states[1]
        mine = fused.per_stage_counters()
        probes = [ops.get("map_probes", 0) for ops in mine]
        for index, (ops, theirs) in enumerate(zip(mine, staged.per_stage_counters())):
            if "map_probes" in ops:
                ops["map_probes"] -= self.drift[index]
            for key in NOT_COMPARED:
                assert key in theirs
                theirs.pop(key)
            assert {k: v for k, v in ops.items() if k not in NOT_COMPARED} == theirs
        # The invariant asks every stage's learn_token, a query that
        # still counts map probes: those are the fused chain's alone.
        assert_fused_within_live_flows(fused, self.probes)
        for index, ops in enumerate(fused.per_stage_counters()):
            self.drift[index] += ops.get("map_probes", 0) - probes[index]
        hops = [chain.snapshot_metrics() for chain in (fused, staged)]
        for index, name in enumerate(fused.stage_names()):
            labels = {"stage": str(index), "stage_name": name}
            for metric in ("chain_stage_rx_total", "chain_stage_tx_total"):
                counts = [sample_value(snap, metric, labels) for snap in hops]
                assert counts[0] == counts[1], (metric, index)
        ops = [chain.op_counters() for chain in self.chains]
        assert ops[0].pop("fused") >= 0
        assert all(other.pop("fused") == 0 for other in ops[1:])
        assert ops[0] == ops[1] == ops[2]

    def control(self, step):
        down = [i for i, is_down in enumerate(self.chains[0]._down) if is_down]
        if step[0] == "fail" and not down:
            self.syncs = [
                chain.checkpoint_stage(step[1], self.now) for chain in self.chains
            ]
            for chain in self.chains:
                chain.fail_stage(step[1])
        elif step[0] == "swap" and down:
            for chain, sync in zip(self.chains, self.syncs):
                chain.swap_stage(down[0], sync if step[1] else None)
            self.drift[down[0]] = 0
        elif step[0] == "restore" and not down:
            sets = [chain.checkpoint(self.now) for chain in self.chains]
            self.stop()
            self.chains = self.launch()
            for chain, checkpoint_set in zip(self.chains, sets):
                chain.restore(checkpoint_set)
            self.drift = [0, 0, 0]
        else:
            return
        # Every control operation starts the fused table over.
        assert self.chains[0]._fused == ({}, {})
        assert self.chains[0]._owners == [{}, {}, {}]

    def stop(self):
        for chain in self.chains:
            chain.stop()


@settings(max_examples=25, deadline=None)
@given(swapped=st.booleans(), schedule=st.lists(steps, max_size=12))
# A non-fusable frame at port 0's position 1 (a new flow), fusable ones
# behind it and on port 1.
@example(
    swapped=False,
    schedule=WARM + [turn(out(0), out(0, 1), out(1), out(2), reply(0), reply(1))],
)
# Host 0 spends the last of its budget on a fused hit mid-turn: the
# next frame of the same flow is staged and dropped.
@example(swapped=False, schedule=WARM + [turn(*[out(0)] * 7, out(1), reply(1))])
# Past the NAT's lifetime only: the first frame's scan ends its entry at
# the last stage, so the turn goes staged.
@example(
    swapped=False,
    schedule=WARM + [turn(out(1), gap=5_000), turn(out(0), out(1), reply(0))],
)
# The last stage serves port 1 before port 0: only one-port turns fuse
# (fusing the last turn would rejuvenate the NAT's flows 0, 1 for 1, 0).
@example(
    swapped=True,
    schedule=WARM
    + [turn(out(0), out(1)), turn(reply(0), reply(1)), turn(out(0), reply(1))],
)
@example(
    swapped=False,
    schedule=WARM + [("fail", 1), turn(out(0), reply(0)), ("swap", True)] + WARM,
)
# Restored stages keep their clocks: a turn behind them is not fused.
@example(swapped=False, schedule=WARM + [("restore",), turn(gap=-300)] + WARM)
# A cold swapped-in firewall takes the slow path and hands the limiter
# and the NAT a parsed packet to replay.
@example(
    swapped=False,
    schedule=[
        turn(out(1, 0), gap=-300),
        ("fail", 0),
        ("swap", False),
        turn(out(1, 0), gap=-300),
    ],
)
def test_fused_hits_are_the_staged_path(swapped, schedule):
    chains = Chains(swapped)
    try:
        for step in schedule:
            if step[0] == "turn":
                chains.turn(step[1], step[2])
            else:
                chains.control(step)
    finally:
        chains.stop()


def test_a_traced_turn_traces_every_stage_hit():
    # With the global recorder on, a turn is staged: its trace is the
    # staged path's, one FASTPATH_HIT and one chain RX/TX pair per stage
    # and frame.
    chains = Chains(swapped=False)
    try:
        for step in WARM:
            chains.turn(step[1], step[2])
        fused, staged = chains.chains[:2]
        assert fused.op_counters()["fused"] > 0
        wire = [chains.frame(step) for step in WARM[0][1]]
        traces = []
        for chain in (fused, staged):
            recorder = obs.enable_observability()
            try:
                for port, packet in wire:
                    frame = Packet.from_bytes(packet.wire_bytes(), port)
                    chain.inject(port, frame, chains.now)
                chain.main_loop_burst(chains.now)
            finally:
                obs.disable_observability()
            chain.collect()
            traces.append([event.to_dict() for event in recorder.flight.last()])
        assert traces[0] == traces[1]
        stages = [event["stage"] for event in traces[0]]
        for stage in (flight.FASTPATH_HIT, flight.RX, flight.TX):
            assert stages.count(stage) == 3 * len(wire)
    finally:
        chains.stop()


def test_a_stage_evicting_an_action_ends_its_fused_entries():
    # A stage cache that evicts (its FIFO cap) would miss where a fused
    # entry holding that action would hit: the entry goes with it.
    chains = [launch_chain(budgeted_spec("compiled")) for _ in range(2)]
    chains[1]._fusing = False
    for chain in chains:
        chain.engines[2].max_entries = 2  # the NAT caches two actions
    turns = [(0, 1)] * 4 + [(2,)] + [(0, 1)] * 3 + [(2, 0)]
    try:
        for now, hosts in enumerate(turns):
            for chain in chains:
                for host in hosts:
                    wire = outbound(host).wire_bytes()
                    chain.inject(0, Packet.from_bytes(wire, 0), 1_000 + now)
                chain.main_loop_burst(1_000 + now)
            sent = [
                [pkt.wire_bytes() for _, _, pkt in chain.collect()] for chain in chains
            ]
            assert sent[0] == sent[1]
            assert_fused_within_live_flows(chains[0])
        fused, staged = (chain.per_stage_counters() for chain in chains)
        assert fused[2]["fastpath_evictions"] > 0
        assert chains[0].op_counters()["fused"] > 0
        for mine, theirs in zip(fused, staged):
            mine.pop("bursts")
            theirs.pop("bursts")
            mine.pop("map_probes", None)
            theirs.pop("map_probes", None)
            assert mine == theirs
    finally:
        for chain in chains:
            chain.stop()
