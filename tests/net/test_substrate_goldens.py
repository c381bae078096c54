"""The burst substrate, pinned against a per-frame reference model.

``ReferenceSubstrate`` is the in-process substrate written one frame at
a time: a descriptor pop, a buffer allocation, a transmit and a free per
frame, in the order ``DpdkRuntime.rx_burst``/``tx_burst``/
``main_loop_burst`` and ``Shard.main_loop_burst`` have always done them. Hypothesis
drives a real :class:`~repro.net.dpdk.Shard` under pressure — tiny
pools and rings, random injects on both ports, buffers seized by a
pool-exhaust fault, an NF that forwards, drops or floods — and every
turn's transmissions and every counter must match the model's.
"""

from collections import deque

from hypothesis import given, settings, strategies as st

from repro.nat.base import NetworkFunction
from repro.net.app import INLINE, RuntimeSpec
from repro.net.dpdk import Shard
from repro.packets.builder import make_udp_packet

FORWARD, DROP, FLOOD = range(3)


class SplitNf(NetworkFunction):
    """Each frame's fate is its source port mod 3."""

    name = "split"

    def process(self, packet, now):
        action = packet.l4.src_port % 3
        if action == DROP:
            return []
        devices = [1 - packet.device] if action == FORWARD else [0, 1]
        outputs = []
        for device in devices:
            out = packet.clone()
            out.device = device
            outputs.append(out)
        return outputs


def outputs_of(action, port):
    """The devices :class:`SplitNf` emits a frame on, in order."""
    return {FORWARD: [1 - port], DROP: [], FLOOD: [0, 1]}[action]


class ReferenceSubstrate:
    """The substrate, one frame at a time, on plain ints and deques."""

    COUNTERS = ("rx_packets", "rx_dropped", "rx_nombuf", "tx_packets")

    def __init__(self, pool_size, rx_capacity):
        self.pool_size = pool_size
        self.rx_capacity = rx_capacity
        self.free = pool_size
        self.high_water = 0
        self.alloc_failures = 0
        self.seized = 0
        self.nf_drop = 0
        self.out_no_mbuf = 0
        self.rings = {0: deque(), 1: deque()}
        self.ports = {p: dict.fromkeys(self.COUNTERS, 0) for p in (0, 1)}

    def alloc(self):
        if self.free == 0:
            self.alloc_failures += 1
            return False
        self.free -= 1
        self.high_water = max(self.high_water, self.pool_size - self.free)
        return True

    def inject(self, port, wire, action, timestamp):
        if len(self.rings[port]) >= self.rx_capacity:
            self.ports[port]["rx_dropped"] += 1
            return False
        self.rings[port].append((timestamp, wire, action))
        self.ports[port]["rx_packets"] += 1
        return True

    def turn(self, now, burst_size, seizure):
        while self.seized < seizure and self.alloc():
            self.seized += 1
        while self.seized > seizure:
            self.seized -= 1
            self.free += 1
        sent = {0: [], 1: []}
        for port in (0, 1):
            ring = self.rings[port]
            while True:
                burst = []
                while len(burst) < burst_size:
                    if self.free == 0:
                        if ring:
                            self.ports[port]["rx_nombuf"] += 1
                        break
                    if not ring:
                        break
                    burst.append(ring.popleft())
                    self.alloc()
                if not burst:
                    break
                staged = {}
                for _timestamp, wire, action in burst:
                    devices = outputs_of(action, port)
                    if not devices:
                        self.free += 1
                        self.nf_drop += 1
                        continue
                    staged.setdefault(devices[0], []).append(wire)
                    for device in devices[1:]:
                        if self.alloc():
                            staged.setdefault(device, []).append(wire)
                        else:
                            self.out_no_mbuf += 1
                for out_port, wires in sorted(staged.items()):
                    for wire in wires:
                        sent[out_port].append((out_port, now, wire))
                        self.ports[out_port]["tx_packets"] += 1
                        self.free += 1
        return sent[0] + sent[1]

    def counters(self):
        out = {
            f"{name}[{port}]": value
            for port, counters in self.ports.items()
            for name, value in counters.items()
        }
        out.update(
            nf_drop=self.nf_drop,
            out_no_mbuf=self.out_no_mbuf,
            pool_high_water=self.high_water,
            alloc_failures=self.alloc_failures,
            in_flight=self.pool_size - self.free,
        )
        return out


def shard_counters(shard):
    runtime = shard.runtime
    out = {
        f"{name}[{port_id}]": getattr(port.counters, name)
        for port_id, port in runtime.ports.items()
        for name in ReferenceSubstrate.COUNTERS
    }
    causes = runtime.drop_causes()
    out.update(
        nf_drop=causes["nf_drop"],
        out_no_mbuf=causes["out_no_mbuf"],
        pool_high_water=causes["pool_high_water"],
        alloc_failures=runtime.pool.alloc_failures,
        in_flight=runtime.pool.in_flight,
    )
    return out


injects = st.tuples(
    st.just("inject"),
    st.integers(0, 1),  # port
    st.lists(st.sampled_from((FORWARD, DROP, FLOOD)), min_size=1, max_size=12),
)
turns = st.tuples(
    st.just("turn"),
    st.integers(1, 8),  # burst size
    st.integers(0, 18),  # buffers seized (may exceed the pool)
)


@settings(max_examples=300, deadline=None)
@given(
    pool_size=st.integers(4, 16),
    rx_capacity=st.integers(4, 16),
    steps=st.lists(st.one_of(injects, turns), min_size=1, max_size=24),
)
def test_every_turn_matches_the_per_frame_model(pool_size, rx_capacity, steps):
    shard = Shard(
        RuntimeSpec(
            lambda _config: SplitNf(),
            execution=INLINE,
            rx_capacity=rx_capacity,
            pool_size=pool_size,
        )
    )
    model = ReferenceSubstrate(pool_size, rx_capacity)
    frame = 0
    for now, step in enumerate(steps, start=1):
        if step[0] == "inject":
            _, port, actions = step
            for action in actions:
                packet = make_udp_packet(
                    "10.0.0.1", "10.0.0.2", 1002 + 3 * frame + action, 80, device=port
                )
                frame += 1
                accepted = shard.runtime.inject(port, packet, now)
                assert accepted == model.inject(port, packet.wire_bytes(), action, now)
        else:
            _, burst_size, seizure = step
            shard.main_loop_burst(now, burst_size, seizure)
            sent = [(p, t, pkt.wire_bytes()) for p, t, pkt in shard.runtime.collect()]
            assert sent == model.turn(now, burst_size, seizure)
        assert shard_counters(shard) == model.counters()
