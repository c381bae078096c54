"""A finite mbuf pool with ownership/leak accounting.

DPDK applications receive packets in pool-allocated buffers and must
free (or transmit) every one; forgetting to is the leak class Vigor's
ownership tracking caught in VigNAT (§5.2.4). The simulated pool keeps
the same discipline observable: allocation fails when the pool is
exhausted, and ``in_flight`` exposes outstanding buffers.

The data path moves a burst per call: :meth:`MbufPool.alloc_burst` takes
one free-count and high-water update per burst, and
:meth:`MbufPool.free_burst` checks every buffer (double free, twice in
one burst, another pool's, over-credit) before it credits any, so a bad
burst leaves the pool untouched. ``free`` is the one-buffer burst.
Buffers are never recycled, so a stale reference is always a double free.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.packets.headers import Packet

#: The on-wire record layout mirroring :class:`Mbuf`'s fields — port,
#: device, receive timestamp (us), wire length — followed by the raw
#: wire bytes. Both process-runtime transports (pipe frames and
#: shared-memory ring slots, :mod:`repro.net.shmring`) carry exactly
#: this shape, so a record round-trips between them byte-identically.
SLOT_HEADER = struct.Struct(">HHqI")


def pack_slot_record(
    port: int, device: int, timestamp: int, wire: bytes
) -> bytes:
    """Frame one packet as a slot record: header + raw wire bytes.

    ``device`` rides the record because :meth:`Packet.wire_bytes` does
    not carry it — it is runtime routing state, not an on-wire field.
    """
    return SLOT_HEADER.pack(port, device, timestamp, len(wire)) + wire


class SlotRecordError(ValueError):
    """A blob of slot records ends inside a record.

    A record header that does not fit, or one announcing more wire
    bytes than the blob has left: what a span cut short (or a length
    field overwritten) looks like from the reading side. Slicing would
    hand back a silently short frame; this refuses the whole blob.
    """


def unpack_slot_records(
    blob: bytes, offset: int = 0
) -> List[Tuple[int, int, int, bytes]]:
    """Parse concatenated slot records: (port, device, timestamp, wire).

    Raises :class:`SlotRecordError` unless the records tile the blob
    exactly.
    """
    records: List[Tuple[int, int, int, bytes]] = []
    append = records.append  # bound once: this loop runs per frame
    unpack_from = SLOT_HEADER.unpack_from
    end = len(blob)
    header_size = SLOT_HEADER.size
    while offset < end:
        if end - offset < header_size:
            raise SlotRecordError(
                f"truncated record header: {end - offset} of {header_size} "
                f"bytes at offset {offset}"
            )
        port, device, timestamp, length = unpack_from(blob, offset)
        offset += header_size
        stop = offset + length
        if stop > end:
            raise SlotRecordError(
                f"record announces {length} wire bytes, {end - offset} "
                f"left at offset {offset}"
            )
        append((port, device, timestamp, bytes(blob[offset:stop])))
        offset = stop
    return records


class MbufPoolExhausted(RuntimeError):
    """No free buffers remain in the pool."""


@dataclass(slots=True)
class Mbuf:
    """One packet buffer: the payload packet plus receive metadata."""

    packet: Packet
    port: int = 0
    timestamp: int = 0  # hardware receive timestamp, microseconds
    _freed: bool = field(default=False, repr=False)
    #: The pool this buffer belongs to (None for hand-built mbufs).
    #: Under a sharded runtime every worker owns a private pool; the
    #: tag makes a cross-worker free an error at the offending call
    #: site instead of silently corrupting another pool's accounting.
    _owner: Optional["MbufPool"] = field(default=None, repr=False, compare=False)


class MbufPool:
    """Fixed-size buffer pool (like rte_pktmbuf_pool)."""

    def __init__(self, capacity: int = 4096) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._free = capacity
        self.alloc_failures = 0
        #: Most buffers ever simultaneously in flight — the pool's
        #: high-water mark, a sizing signal for burst-mode main loops.
        #: Per-pool (per-worker) by construction: high-water marks are
        #: not additive, so merged snapshots report each worker's mark
        #: under its own label and aggregate by max, never by sum.
        self.high_water = 0

    @property
    def in_flight(self) -> int:
        """Buffers currently owned by the application."""
        return self.capacity - self._free

    @property
    def free_count(self) -> int:
        """Buffers currently available for allocation."""
        return self._free

    def alloc(self, packet: Packet, port: int = 0, timestamp: int = 0) -> Optional[Mbuf]:
        """Wrap a packet in a buffer; None when the pool is exhausted."""
        if self._free == 0:
            self.alloc_failures += 1
            return None
        self._free -= 1
        if self.in_flight > self.high_water:
            self.high_water = self.in_flight
        return Mbuf(packet, port, timestamp, False, self)

    def alloc_burst(self, received: List[Tuple[int, Packet]], port: int) -> List[Mbuf]:
        """Wrap received ``(timestamp, packet)`` descriptors, all or none."""
        n = len(received)
        if n > self._free:
            raise MbufPoolExhausted(f"{n} buffers wanted, {self._free} free")
        self._free -= n
        if self.capacity - self._free > self.high_water:
            self.high_water = self.capacity - self._free
        burst = []
        for timestamp, packet in received:
            burst.append(Mbuf(packet, port, timestamp, False, self))
        return burst

    def free(self, mbuf: Mbuf) -> None:
        """Return one buffer to the pool (see :meth:`free_burst`)."""
        self.free_burst((mbuf,))

    def free_burst(self, mbufs: Sequence[Mbuf]) -> None:
        """Return buffers to the pool, all checked before any is credited.

        A raise leaves the pool and the buffers as they were. Another
        pool's buffer is rejected outright (every sharded worker owns a
        private pool; crediting B for A's buffer corrupts both sides'
        ``in_flight`` whether or not B is full). For hand-built mbufs with
        no owner only the capacity check defends: crediting past it would
        let ``in_flight`` go negative and mask real leaks.
        """
        for i, mbuf in enumerate(mbufs):
            if mbuf._freed:
                error = "double free of mbuf"
            elif mbuf._owner is not self and mbuf._owner is not None:
                error = "over-credit: freeing another pool's mbuf (cross-worker free)"
            else:
                mbuf._freed = True
                continue
            break
        else:
            i = len(mbufs)
            if self._free + i <= self.capacity:
                self._free += i
                return
            error = "over-credit: freeing a foreign mbuf into a full pool"
        for mbuf in mbufs[:i]:
            mbuf._freed = False
        raise RuntimeError(error)

    # -- observability -------------------------------------------------------
    def register_metrics(self, registry, labels=None) -> None:
        """Expose pool state as callback instruments (collect-on-demand).

        ``pool_high_water`` merges by max across label sets: each
        worker's pool is a separate resource, and summing watermarks
        would report a capacity pressure no single pool ever saw.
        """
        registry.gauge_fn(
            "pool_capacity", lambda: self.capacity, "total buffers in the pool", labels
        )
        registry.gauge_fn(
            "pool_in_flight",
            lambda: self.in_flight,
            "buffers currently owned by the application",
            labels,
        )
        registry.gauge_fn(
            "pool_high_water",
            lambda: self.high_water,
            "most buffers ever simultaneously in flight",
            labels,
            merge="max",
        )
        registry.counter_fn(
            "pool_alloc_failures_total",
            lambda: self.alloc_failures,
            "allocations refused because the pool was exhausted",
            labels,
        )
