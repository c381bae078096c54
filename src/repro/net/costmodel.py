"""The calibrated per-packet cost model.

The simulation cannot measure real CPU time, so packet costs are derived
from the NF's *observable abstract work* — hash-table probes, netfilter
hook traversals, checksum bytes — scaled by constants calibrated so that
the baseline numbers land near the paper's §6 headline figures:

==================  ================  =================
NF                  latency (paper)   throughput (paper)
==================  ================  =================
No-op forwarding    4.75 µs           (above 3 Mpps)
Unverified NAT      5.03 µs           2.0 Mpps
Verified NAT        5.13 µs           1.8 Mpps
Linux NAT           ≈20 µs            0.6 Mpps
==================  ================  =================

Two cost figures exist per packet, as on real hardware:

- *latency cost*: what a packet experiences end to end — NIC/DMA/wire
  path overhead plus the processing time;
- *service cost*: how long the single core is busy per packet, which
  bounds throughput. It is smaller than the latency-visible processing
  (instruction-level parallelism and DPDK's amortized batching), which
  is why the paper can see a 0.10 µs latency gap and a 10% throughput
  gap at the same time.

Because the probe term comes from the *actual* data structures, the
occupancy effects of Fig. 12 emerge rather than being scripted: the
verified NAT's open-addressing map probes longer runs as the table fills
(the upturn at 64 k flows), while the chaining tables stay flat.

The model also reproduces the latency *outliers* of Fig. 13 ("two orders
of magnitude above the average ... due to DPDK, not NAT-specific
processing"): a small deterministic fraction of packets picks up a
~300 µs stall regardless of NF.
"""

from __future__ import annotations

import random
import weakref
from dataclasses import dataclass, field
from typing import Dict

from repro.nat.base import NetworkFunction

#: Fixed receive+transmit path overhead (NIC, DMA, PCIe), nanoseconds.
PATH_OVERHEAD_NS: Dict[str, int] = {
    "dpdk": 4_430,
    "linux": 14_500,  # interrupt path, skb allocation, softirq scheduling
}

#: Latency-visible processing baseline per NF, nanoseconds.
LATENCY_BASE_NS: Dict[str, int] = {
    "noop": 320,
    "unverified-nat": 585,
    "verified-nat": 672,
    "linux-nat": 3_800,
    "discard": 340,
}

#: Core-occupancy (service) baseline per NF, nanoseconds. The netfilter
#: NAT's dynamic work (hooks, software checksums) adds ~1.1 µs on top of
#: its base, which is why its base looks small next to its latency.
SERVICE_BASE_NS: Dict[str, int] = {
    "noop": 320,
    "unverified-nat": 490,
    "verified-nat": 545,
    "linux-nat": 480,
    "discard": 330,
}

#: Per-burst fixed (amortizable) share of each NF's base cost: the flow
#: expiry scan, loop/env setup, RX descriptor refill. At burst size 1 the
#: whole base is paid per packet (the tables above are unchanged); at
#: burst size n the amortizable share is paid once per burst, so the
#: per-packet cost falls toward ``base - amortizable`` — DPDK's batching
#: lever. The verified NAT amortizes the most (its per-iteration expiry
#: scan is the paper's fixed overhead); the kernel path amortizes some
#: GC but keeps its dominant per-packet hook/checksum work.
BURST_AMORTIZABLE_NS: Dict[str, int] = {
    "noop": 60,
    "unverified-nat": 140,
    "verified-nat": 185,
    "linux-nat": 150,
    "discard": 60,
}

#: Cost per hash-table slot probed (linear scans prefetch well).
PROBE_NS = 3
#: Cost per netfilter hook traversed.
HOOK_NS = 240
#: Cost per byte checksummed in software (kernel path).
CSUM_NS_PER_BYTE = 2

#: DPDK latency outliers (Fig. 13 tail): probability and magnitude.
OUTLIER_PROBABILITY = 1.0 / 20_000
OUTLIER_NS = 295_000

#: Service time saved per microflow-cache hit (see
#: :mod:`repro.nat.fastpath`): a hit skips the flow-table lookup, the
#: full header parse/repack and the per-iteration dispatch, replaying a
#: precomputed rewrite instead. The saving is per NF because the work
#: skipped differs — the verified NAT skips the most (its contracted
#: flow-table path is the costliest). The no-op forwarder has nothing
#: to skip and is never wrapped, and a replay still receives, rewrites
#: and transmits, so a hit may not model cheaper than a bare forward:
#: the constants keep the paper's no-op < unverified < verified
#: ordering at every hit rate — at a 100% hit rate and burst 32 the
#: per-packet service costs are ~262 (the no-op, as ever), ~279 and
#: ~286 ns respectively.
FASTPATH_HIT_SAVED_NS: Dict[str, int] = {
    "unverified-nat": 75,
    "verified-nat": 80,
}

#: Per-packet cost of the multi-queue path when RSS sharding is active:
#: the RX-queue indirection, per-queue doorbells and the cache traffic
#: of N cores sharing one NIC. Charged per packet on every worker when
#: ``workers > 1``; a single-worker run is byte-identical to the
#: unsharded path. Small next to any NF's base cost, so the paper's
#: ordering no-op < unverified < verified ≪ NetFilter is preserved at
#: every worker count.
RSS_STEER_NS = 45


def _work_ns(delta: Dict[str, int], nf_name: str = "") -> int:
    """Dynamic work: counter deltas times their per-unit costs.

    Microflow-cache hits *reduce* the dynamic work: each hit replaces
    the NF's full slow path with a cached-action replay, a per-NF
    saving. (Hits also produce no probe counters, so the probe term
    shrinks on its own.)
    """
    work = 0
    work += PROBE_NS * (delta.get("map_probes", 0) + delta.get("table_probes", 0))
    work += HOOK_NS * delta.get("hook_traversals", 0)
    work += CSUM_NS_PER_BYTE * delta.get("checksum_bytes", 0)
    work -= FASTPATH_HIT_SAVED_NS.get(nf_name, 0) * delta.get("fastpath_hits", 0)
    return work


@dataclass
class CostModel:
    """Stateful cost model: tracks counter deltas per NF instance.

    Snapshots are held in a WeakKeyDictionary: keying by the NF object
    (not ``id(nf)``) means a freed NF's slot disappears with it, so a
    new NF allocated at a recycled address can never inherit a stale
    snapshot and produce a bogus (even negative) first-packet delta.
    """

    outlier_seed: int = 2544
    _last_counters: "weakref.WeakKeyDictionary" = field(
        default_factory=weakref.WeakKeyDictionary
    )

    def __post_init__(self) -> None:
        self._rng = random.Random(self.outlier_seed)

    @staticmethod
    def _family(nf: NetworkFunction) -> str:
        return "linux" if nf.name == "linux-nat" else "dpdk"

    def path_overhead_ns(self, nf: NetworkFunction) -> int:
        """Fixed wire/NIC path cost for one forwarded packet."""
        return PATH_OVERHEAD_NS[self._family(nf)]

    @staticmethod
    def steering_overhead_ns(workers: int) -> int:
        """Per-packet RSS steering cost for a ``workers``-wide data path.

        Zero for a single worker — the multi-queue machinery is off and
        single-worker runs reproduce the unsharded numbers exactly.
        """
        if workers <= 1:
            return 0
        return RSS_STEER_NS

    def _delta(self, nf: NetworkFunction) -> Dict[str, int]:
        current = nf.op_counters()
        previous = self._last_counters.get(nf, {})
        self._last_counters[nf] = current
        return {k: v - previous.get(k, 0) for k, v in current.items()}

    def packet_costs(self, nf: NetworkFunction) -> tuple[int, int]:
        """(latency_ns, service_ns) for the packet just processed.

        Call exactly once per ``nf.process`` invocation: the dynamic
        component is the NF's counter delta since the previous call.
        A burst of one: base cost plus work, nothing amortized.
        """
        return self.burst_costs(nf, 1)

    def burst_costs(self, nf: NetworkFunction, batch_size: int) -> tuple[int, int]:
        """(per_packet_latency_ns, burst_service_ns) for a burst just processed.

        Call exactly once per ``nf.process_burst`` invocation: the
        counter delta covers the whole burst, so dynamic work is split
        evenly across its packets. The amortizable share of the base
        cost is charged once per burst; everything else is per packet.
        ``batch_size == 1`` is the per-packet cost (:meth:`packet_costs`).
        """
        if batch_size <= 0:
            raise ValueError("batch size must be positive")
        delta = self._delta(nf)
        work = _work_ns(delta, nf.name)
        work_per_packet = work // batch_size
        amortizable = BURST_AMORTIZABLE_NS.get(nf.name, 80)
        latency_base = LATENCY_BASE_NS.get(nf.name, 500)
        service_base = SERVICE_BASE_NS.get(nf.name, 500)
        latency = (
            (latency_base - amortizable)
            + amortizable // batch_size
            + work_per_packet
        )
        service_total = (
            (service_base - amortizable) * batch_size + amortizable + work
        )
        return latency, service_total

    def sample_outlier_ns(self) -> int:
        """Occasional DPDK stall added to a packet's latency (Fig. 13)."""
        if self._rng.random() < OUTLIER_PROBABILITY:
            return int(OUTLIER_NS * (0.8 + 0.4 * self._rng.random()))
        return 0
