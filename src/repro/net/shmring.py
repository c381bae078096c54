"""Lock-free SPSC rings over POSIX shared memory: the zero-copy transport.

The pipe transport of :mod:`repro.net.procrun` moves every packet
through four copies (frame, join, kernel write, kernel read) and two
syscalls per turn per worker. This module replaces the payload path
with one :class:`ShmRing` per direction per worker, backed by
:class:`multiprocessing.shared_memory`: the producer writes a burst
straight into the mapped segment, the consumer reads it out, and the
only per-burst costs are one or two ``memcpy``-sized slice operations
on each side. That makes the byte movement alone — the ``copy_ns``
instrument of :class:`~repro.net.procrun.TransportStats` — roughly 8x
cheaper than the pipe's for a 32-packet burst. It is not an end-to-end
figure: with one worker on two cores, the pipe transport forwards more
frames per second at a lower probe latency (``docs/SCALING.md`` §4).

Layout (one segment per ring)::

    [0:8)            head — slots produced, free-running uint64
    [64:72)          tail — slots consumed, free-running uint64
    [128:128+N*S)    N fixed-size slots of S bytes

``head`` is written only by the producer, ``tail`` only by the
consumer — the single-producer/single-consumer discipline that makes
the ring correct without locks. The indexes live on separate cache
lines so the two sides never write the same line. Capacity is
``head - tail`` (free-running counters never wrap in practice:
2^64 slots outlives the process).

Slots carry mbuf-shaped records — ``port, device, timestamp, len,
wire[]`` (:data:`repro.net.mbuf.SLOT_HEADER`), exactly the fields a
:class:`~repro.net.mbuf.Mbuf` holds — and a whole burst of them
occupies a *contiguous run of slots* behind one small span header.
One packet per slot would force a Python-level loop per record on both
sides, which micro-benchmarks put at 5-10x the cost of the pipe it is
meant to replace; spanning lets a turn's enqueue be a single slice
assignment (two when the span wraps) while keeping slot-granular
accounting for backpressure.

Synchronization contract: the process runtime's control pipe provides
the ordering fence. A producer finishes its span writes *before* the
pipe message that makes the consumer look (a pipe write is a syscall —
a full barrier — and shared memory is coherent), so the consumer
always observes complete spans. Within a turn the two sides never
touch the same slot range: the head/tail protocol itself keeps the
regions disjoint.
"""

from __future__ import annotations

import struct
from multiprocessing import shared_memory
from typing import List, Optional, Tuple

from repro.net.mbuf import SLOT_HEADER, unpack_slot_records

#: Free-running produced/consumed slot counters (uint64, little-endian).
_INDEX = struct.Struct("<Q")
_HEAD_OFFSET = 0
_TAIL_OFFSET = 64
#: First slot starts here; head and tail each own a cache line.
DATA_OFFSET = 128

#: One span of records: total record bytes following the header.
_SPAN = struct.Struct("<I")

#: Default geometry: 4096 slots x 256 bytes = 1 MiB of payload ring.
#: Small slots keep internal fragmentation low (a span pads only to
#: its last slot boundary); plenty of slots keep backpressure rare.
DEFAULT_SLOTS = 4096
DEFAULT_SLOT_BYTES = 256


class RingClosed(RuntimeError):
    """The ring's shared memory segment is gone (peer unlinked it)."""


class ShmRing:
    """One single-producer/single-consumer ring over a shm segment.

    Exactly one process may push and exactly one may pop; the runtime
    creates two per worker (parent→worker inject, worker→parent TX).
    ``push_burst``/``pop_burst`` move whole bursts of mbuf-shaped
    records; ``free_slots``/``used_slots`` expose occupancy for
    backpressure decisions. The creator owns the segment's lifetime:
    call :meth:`unlink` exactly once (idempotent) when the fleet is
    torn down — :mod:`repro.net.procrun` guarantees this on every
    exit path via a ``weakref.finalize`` hook.
    """

    def __init__(
        self,
        name: Optional[str] = None,
        slots: int = DEFAULT_SLOTS,
        slot_bytes: int = DEFAULT_SLOT_BYTES,
        create: bool = True,
    ) -> None:
        if slots <= 0:
            raise ValueError("ring needs at least one slot")
        if slot_bytes < SLOT_HEADER.size + _SPAN.size:
            raise ValueError(
                f"slot_bytes must hold at least a span and record header "
                f"({SLOT_HEADER.size + _SPAN.size} bytes)"
            )
        self.slots = slots
        self.slot_bytes = slot_bytes
        self.capacity_bytes = slots * slot_bytes
        size = DATA_OFFSET + self.capacity_bytes
        self._shm = shared_memory.SharedMemory(
            name=name, create=create, size=size
        )
        self._created = create
        if create:
            _INDEX.pack_into(self._shm.buf, _HEAD_OFFSET, 0)
            _INDEX.pack_into(self._shm.buf, _TAIL_OFFSET, 0)

    # -- index protocol ------------------------------------------------------
    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def head(self) -> int:
        return _INDEX.unpack_from(self._buf(), _HEAD_OFFSET)[0]

    @property
    def tail(self) -> int:
        return _INDEX.unpack_from(self._buf(), _TAIL_OFFSET)[0]

    def _publish_head(self, value: int) -> None:
        _INDEX.pack_into(self._buf(), _HEAD_OFFSET, value)

    def _publish_tail(self, value: int) -> None:
        _INDEX.pack_into(self._buf(), _TAIL_OFFSET, value)

    @property
    def used_slots(self) -> int:
        return self.head - self.tail

    @property
    def free_slots(self) -> int:
        return self.slots - self.used_slots

    def span_slots(self, record_bytes: int) -> int:
        """Slots one burst of ``record_bytes`` of records occupies."""
        return -(-(_SPAN.size + record_bytes) // self.slot_bytes)

    # -- producer side -------------------------------------------------------
    def try_push_burst(self, records: bytes) -> bool:
        """Enqueue one burst of concatenated records; False when full.

        ``records`` is the same concatenation of mbuf-shaped frames the
        pipe transport ships (``pack_slot_record`` output) — the span header
        plus the bytes land in ``span_slots`` consecutive slots with
        one slice assignment (two on wraparound). An empty burst is a
        no-op (the consumer would have nothing to see).
        """
        if not records:
            return True
        need = self.span_slots(len(records))
        if need > self.slots:
            raise ValueError(
                f"burst of {len(records)} bytes needs {need} slots; "
                f"ring only has {self.slots} — raise ring_slots or "
                f"ring_slot_bytes"
            )
        head = self.head
        if need > self.slots - (head - self.tail):
            return False
        payload = _SPAN.pack(len(records)) + records
        start = (head % self.slots) * self.slot_bytes
        buf = self._buf()
        first = min(len(payload), self.capacity_bytes - start)
        buf[DATA_OFFSET + start : DATA_OFFSET + start + first] = payload[:first]
        if first < len(payload):  # span wraps: remainder starts at slot 0
            rest = len(payload) - first
            buf[DATA_OFFSET : DATA_OFFSET + rest] = payload[first:]
        self._publish_head(head + need)
        return True

    # -- consumer side -------------------------------------------------------
    def pop_burst_bytes(self) -> Optional[bytes]:
        """Dequeue one burst's raw record bytes, or None when empty."""
        tail = self.tail
        if self.head == tail:
            return None
        buf = self._buf()
        start = (tail % self.slots) * self.slot_bytes
        header_first = min(_SPAN.size, self.capacity_bytes - start)
        if header_first == _SPAN.size:
            (nbytes,) = _SPAN.unpack_from(buf, DATA_OFFSET + start)
        else:  # the 4-byte span header itself wraps
            raw = bytes(buf[DATA_OFFSET + start : DATA_OFFSET + start + header_first])
            raw += bytes(buf[DATA_OFFSET : DATA_OFFSET + _SPAN.size - header_first])
            (nbytes,) = _SPAN.unpack(raw)
        begin = (start + _SPAN.size) % self.capacity_bytes
        first = min(nbytes, self.capacity_bytes - begin)
        records = bytes(buf[DATA_OFFSET + begin : DATA_OFFSET + begin + first])
        if first < nbytes:
            records += bytes(buf[DATA_OFFSET : DATA_OFFSET + nbytes - first])
        self._publish_tail(tail + self.span_slots(nbytes))
        return records

    def pop_burst(self) -> Optional[List[Tuple[int, int, int, bytes]]]:
        """Dequeue one burst as (port, device, timestamp, wire) records."""
        records = self.pop_burst_bytes()
        if records is None:
            return None
        return unpack_slot_records(records)

    def drain(self) -> List[Tuple[int, int, int, bytes]]:
        """Pop every burst currently visible, preserving order."""
        out: List[Tuple[int, int, int, bytes]] = []
        while True:
            burst = self.pop_burst()
            if burst is None:
                return out
            out.extend(burst)

    # -- lifecycle -----------------------------------------------------------
    def _buf(self):
        buf = self._shm.buf
        if buf is None:
            raise RingClosed(f"ring {self._shm.name} is closed")
        return buf

    def close(self) -> None:
        """Detach this process's mapping (does not destroy the segment)."""
        try:
            self._shm.close()
        except (OSError, BufferError):
            pass

    def unlink(self) -> None:
        """Destroy the segment. Idempotent; only the creator should call."""
        self.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass


def unlink_rings(rings) -> None:
    """Best-effort unlink of a batch of rings (every exit path funnels
    here: ``stop()``, crash handling, and the ``weakref.finalize``
    registered at fleet construction, which also covers parent
    exceptions and interpreter exit)."""
    for ring in rings:
        try:
            ring.unlink()
        except Exception:  # noqa: BLE001 — cleanup must never mask the exit
            pass


__all__ = [
    "DEFAULT_SLOTS",
    "DEFAULT_SLOT_BYTES",
    "RingClosed",
    "ShmRing",
    "unlink_rings",
]
