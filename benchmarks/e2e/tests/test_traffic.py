"""Seed and generator hygiene."""

import pytest

from repro.packets.builder import make_udp_packet
from repro.packets.headers import Packet
from traffic import Traffic
from workloads import BURST, BY_NAME, LAP_BURSTS, WORKLOADS


def fake_nat(burst, port_of):
    """Outputs a NAT would emit: source rewritten to 192.0.2.1:port_of(flow)."""
    outputs = []
    for device, frame in burst:
        packet = Packet.from_bytes(frame)
        packet.ipv4.src_ip = 0xC0000201
        packet.l4.src_port = port_of(packet.l4.dst_port)
        outputs.append((1 - device, packet.to_bytes()))
    return outputs


def schedule(shape, seed, port_of=lambda dst_port: 40000 + dst_port % 1000):
    """Warm-up plus one segment, driven by the fake NAT."""
    traffic = Traffic(shape, seed)
    bursts = []
    for burst in traffic.warmup():
        traffic.observe(fake_nat(burst, port_of))
        bursts.append(burst)
    return bursts, traffic.segment(2 * LAP_BURSTS)


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_same_seed_gives_byte_identical_schedules(workload):
    assert schedule(workload.shape, 5) == schedule(workload.shape, 5)


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_another_seed_gives_other_flows_of_the_same_shape(workload):
    warm_a, timed_a = schedule(workload.shape, 5)
    warm_b, timed_b = schedule(workload.shape, 6)
    assert timed_a != timed_b

    def outline(bursts):
        return [sorted((device, len(frame)) for device, frame in burst) for burst in bursts]

    assert [len(b) for b in warm_a] == [len(b) for b in warm_b]
    assert all(len(burst) == BURST for burst in timed_a)
    if workload.shape.kind == "churn":
        assert outline(timed_a) == outline(timed_b)
    else:  # stable laps shuffle directions too; the totals are the shape
        flat = lambda bursts: sorted(item for burst in outline(bursts) for item in burst)
        assert flat(timed_a) == flat(timed_b)


def test_frames_are_64_bytes_unless_the_shape_says_otherwise():
    _, timed = schedule(BY_NAME["nat-hot"].shape, 1)
    assert {len(frame) for burst in timed for _, frame in burst} == {64}
    _, timed = schedule(BY_NAME["nat-proc-mtu"].shape, 1)
    assert {len(frame) for burst in timed for _, frame in burst} == {1442, 1454}


def test_replies_target_only_the_ports_the_warmup_outputs_showed():
    """An allocator the generator could not guess: ports from a shuffled table."""
    table = {}

    def port_of(dst_port):
        return table.setdefault(dst_port, 7 + 977 * len(table) % 60000)

    _, timed = schedule(BY_NAME["nat-hot"].shape, 9, port_of)
    replies = [Packet.from_bytes(frame) for burst in timed for device, frame in burst if device == 1]
    assert replies
    for reply in replies:
        assert reply.ipv4.dst_ip == 0xC0000201
        assert reply.l4.dst_port == table[reply.l4.src_port]


def test_replies_cannot_be_built_before_every_flow_was_observed():
    traffic = Traffic(BY_NAME["nat-hot"].shape, 1)
    with pytest.raises(RuntimeError, match="no external endpoint"):
        for _ in traffic.warmup():
            pass  # outputs never observed


def test_churn_flows_are_never_seen_twice_as_new():
    traffic = Traffic(BY_NAME["nat-churn"].shape, 3)
    seen = set()
    for burst in traffic.segment(50):
        flows = {frame[26:30] + frame[34:36] for _, frame in burst}
        fresh = flows - seen
        assert len(fresh) == 8
        seen |= flows
