"""Simulated NIC ports with bounded RX descriptor rings.

A port's RX ring holds a fixed number of descriptors (512 by default,
like the 82599's common configuration); packets arriving while the ring
is full are dropped and counted — this is where RFC 2544 throughput
loss comes from when the CPU cannot keep up. The host side moves a
burst per call (``rx_pop_burst``, ``transmit_burst``); ``rx_pop`` and
``transmit`` move one frame.

:class:`RssNic` models the multi-queue front-end of such a NIC: a
steering function (Receive-Side Scaling) assigns every arriving packet
to one of N RX queues, each typically served by its own core — the
hardware half of the sharded data path (see :mod:`repro.net.rss`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, List, Optional, Tuple

from repro.net.mbuf import Mbuf
from repro.packets.headers import Packet


@dataclass
class PortCounters:
    """Receive/transmit statistics, mirroring NIC hardware counters."""

    rx_packets: int = 0
    rx_dropped: int = 0
    #: RX attempts stalled by mbuf-pool exhaustion (rte_eth_stats.rx_nombuf).
    #: Unlike ``rx_dropped``, the packet stays on the ring — nothing is lost.
    rx_nombuf: int = 0
    tx_packets: int = 0


@dataclass
class Port:
    """One NIC port: a bounded RX ring plus TX capture."""

    port_id: int
    rx_capacity: int = 512
    counters: PortCounters = field(default_factory=PortCounters)

    def __post_init__(self) -> None:
        self._rx: Deque[Tuple[int, Packet]] = deque()
        self._tx: List[Tuple[int, Packet]] = []

    # -- receive side ----------------------------------------------------------
    def deliver(self, packet: Packet, timestamp: int) -> bool:
        """Wire-side packet arrival; False (and a drop) when the ring is full."""
        if len(self._rx) >= self.rx_capacity:
            self.counters.rx_dropped += 1
            return False
        self._rx.append((timestamp, packet))
        self.counters.rx_packets += 1
        return True

    def rx_pending(self) -> int:
        return len(self._rx)

    def rx_pop(self) -> Optional[Tuple[int, Packet]]:
        """Host-side descriptor fetch: (arrival_timestamp, packet)."""
        if not self._rx:
            return None
        return self._rx.popleft()

    def rx_pop_burst(self, n: int) -> List[Tuple[int, Packet]]:
        """Host-side fetch of up to ``n`` descriptors, oldest first."""
        rx = self._rx
        if n < len(rx):
            return [rx.popleft() for _ in range(n)]
        burst = list(rx)
        rx.clear()
        return burst

    def swap_tail(self) -> bool:
        """Swap the two newest RX descriptors (a reordering link).

        Timestamps stay with their descriptor slots so arrival times
        remain monotonic on the ring; only the payload order changes —
        exactly what a reordering wire does. Returns False (no-op) with
        fewer than two pending descriptors.
        """
        if len(self._rx) < 2:
            return False
        (ts_a, pkt_a), (ts_b, pkt_b) = self._rx[-2], self._rx[-1]
        self._rx[-2] = (ts_a, pkt_b)
        self._rx[-1] = (ts_b, pkt_a)
        return True

    # -- transmit side --------------------------------------------------------------
    def transmit(self, packet: Packet, timestamp: int) -> None:
        self._tx.append((timestamp, packet))
        self.counters.tx_packets += 1

    def transmit_burst(self, mbufs: List[Mbuf], timestamp: int) -> None:
        """Transmit the buffers' packets, as ``rte_eth_tx_burst`` takes mbufs."""
        tx = self._tx
        for mbuf in mbufs:
            tx.append((timestamp, mbuf.packet))
        self.counters.tx_packets += len(mbufs)

    def drain_tx(self) -> List[Tuple[int, Packet]]:
        """Collect everything transmitted since the last drain."""
        out, self._tx = self._tx, []
        return out

    # -- observability -------------------------------------------------------
    def register_metrics(self, registry, labels=None) -> None:
        """Expose the hardware-style port counters as callback metrics."""
        port_labels = dict(labels or {})
        port_labels["port"] = str(self.port_id)
        counters = self.counters
        registry.counter_fn(
            "nic_rx_packets_total",
            lambda: counters.rx_packets,
            "packets accepted onto the RX ring",
            port_labels,
        )
        registry.counter_fn(
            "nic_rx_dropped_total",
            lambda: counters.rx_dropped,
            "packets dropped because the RX ring was full",
            port_labels,
        )
        registry.counter_fn(
            "nic_rx_nombuf_total",
            lambda: counters.rx_nombuf,
            "RX attempts stalled by mbuf-pool exhaustion (nothing lost)",
            port_labels,
        )
        registry.counter_fn(
            "nic_tx_packets_total",
            lambda: counters.tx_packets,
            "packets transmitted",
            port_labels,
        )


class RssNic:
    """The RSS stage of a multi-queue NIC: packet → RX queue selection.

    Holds the steering function (by default the plain RSS 5-tuple hash
    of :func:`repro.net.rss.rss_queue`; the sharded NAT passes
    :meth:`repro.net.rss.NatSteering.worker_for` instead) plus the
    per-queue counters real NICs expose per RX queue. The queues
    themselves are the ports of whatever runtime sits behind each
    worker — this class only decides and counts, like the hardware
    redirection table.
    """

    def __init__(
        self,
        queue_count: int,
        steer: Optional[Callable[[Packet], int]] = None,
    ) -> None:
        if queue_count <= 0:
            raise ValueError("need at least one RX queue")
        if steer is None:
            from repro.net.rss import rss_queue

            steer = lambda packet: rss_queue(packet, queue_count)  # noqa: E731
        self.queue_count = queue_count
        self._steer = steer
        #: Packets steered to each queue so far.
        self.queue_packets: List[int] = [0] * queue_count

    def select(self, packet: Packet) -> int:
        """Steer one packet: returns its RX queue index and counts it."""
        queue = self._steer(packet)
        if not 0 <= queue < self.queue_count:
            raise ValueError(
                f"steering function returned queue {queue} "
                f"(have {self.queue_count})"
            )
        self.queue_packets[queue] += 1
        return queue

    # -- observability -------------------------------------------------------
    def register_metrics(self, registry, labels=None) -> None:
        """Per-RX-queue steering counters, like hardware per-queue stats."""
        for queue in range(self.queue_count):
            queue_labels = dict(labels or {})
            queue_labels["queue"] = str(queue)
            registry.counter_fn(
                "rss_steered_total",
                lambda q=queue: self.queue_packets[q],
                "packets steered to this RX queue",
                queue_labels,
            )
