"""Sharded data-path invariants, property-tested with Hypothesis.

The sharded NAT is correct only if three things hold for *every* flow
under *every* worker count:

1. the partition is a partition — disjoint, exhaustive port slices;
2. the worker the RSS stage picks for a flow's forward direction is the
   worker whose slice the allocated external port falls in, so the
   return path (steered by port ownership) lands on the same worker;
3. no packet ever touches another worker's state — each worker's own
   counters account for exactly the packets steered to it.

Together these are the sharding soundness argument: per-worker state is
a private NAT verified in isolation, and steering is the only glue.
"""

from hypothesis import given, settings, strategies as st

from repro.nat.config import NatConfig
from repro.nat.flow import flow_id_of_packet
from repro.nat.vignat import VigNat
from repro.net.app import RuntimeSpec, launch
from repro.packets.builder import make_udp_packet

EXT_DEVICE = 1


def config(max_flows=64):
    return NatConfig(
        max_flows=max_flows, expiration_time=60_000_000, start_port=1000
    )


flows = st.lists(
    st.tuples(
        st.integers(min_value=0x0A000001, max_value=0x0A0000FF),  # src ip
        st.integers(min_value=1024, max_value=65535),  # src port
    ),
    min_size=1,
    max_size=24,
    unique=True,
)
worker_counts = st.sampled_from((1, 2, 3, 4, 8))


def sharded(workers):
    return launch(
        RuntimeSpec(nf_factory=VigNat, config=config(), workers=workers)
    )


@settings(max_examples=60, deadline=None)
@given(flows=flows, workers=worker_counts)
def test_forward_worker_owns_the_allocated_port(flows, workers):
    """The steered worker allocates from its own slice, and only it
    holds the flow — so ownership steering finds the reply's worker."""
    runtime = sharded(workers)
    for src_ip, src_port in flows:
        packet = make_udp_packet(src_ip, "8.8.8.8", src_port, 53, device=0)
        fid = flow_id_of_packet(packet)
        worker = runtime.worker_for(packet)
        assert runtime.inject(0, packet, timestamp=1_000)
        runtime.main_loop_burst(now_us=1_000)

        owner_nf = runtime.nfs[worker]
        assert owner_nf.has_flow(fid)
        ext_port = owner_nf.external_port_of(fid)
        assert runtime.shards[worker].owns_port(ext_port)
        assert runtime.steering.owner_of_port(ext_port) == worker
        for other, nf in enumerate(runtime.nfs):
            if other != worker:
                assert not nf.has_flow(fid)

        # The translated reply steers straight back to the owner.
        reply = make_udp_packet(
            "8.8.8.8", runtime.config.external_ip, 53, ext_port,
            device=EXT_DEVICE,
        )
        assert runtime.worker_for(reply) == worker


@settings(max_examples=60, deadline=None)
@given(flows=flows, workers=worker_counts)
def test_no_cross_worker_state_access(flows, workers):
    """Each worker's own forwarded/dropped counters account for exactly
    the packets steered to it — nothing leaks across workers."""
    runtime = sharded(workers)
    for src_ip, src_port in flows:
        runtime.inject(
            0, make_udp_packet(src_ip, "8.8.8.8", src_port, 53, device=0),
            timestamp=1_000,
        )
    runtime.main_loop_burst(now_us=1_000, burst_size=64)

    per_worker = runtime.per_worker_counters()
    for worker, counters in enumerate(per_worker):
        handled = counters["forwarded"] + counters["dropped"]
        assert handled == runtime.steered[worker], (worker, counters)
    assert sum(runtime.steered) == len(flows)

    # Aggregation is a plain sum of the private per-worker counters.
    totals = runtime.op_counters()
    for key in ("forwarded", "dropped"):
        assert totals[key] == sum(c[key] for c in per_worker)
    assert runtime.flow_count() == sum(
        nf.flow_count() for nf in runtime.nfs
    )


@settings(max_examples=60, deadline=None)
@given(flows=flows, workers=worker_counts)
def test_flow_affinity_is_stable_across_packets(flows, workers):
    """Every later packet of a flow steers to the worker that opened it."""
    runtime = sharded(workers)
    for src_ip, src_port in flows:
        packet = make_udp_packet(src_ip, "8.8.8.8", src_port, 53, device=0)
        first = runtime.worker_for(packet)
        for _ in range(3):
            again = make_udp_packet(src_ip, "8.8.8.8", src_port, 53, device=0)
            assert runtime.worker_for(again) == first
