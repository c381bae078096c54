"""Lock-free SPSC rings over POSIX shared memory: the zero-copy transport.

The pipe transport of :mod:`repro.net.procrun` moves every packet
through four copies (frame, join, kernel write, kernel read) and two
syscalls per turn per worker. This module replaces the payload path
with one :class:`ShmRing` per direction per worker, backed by
:class:`multiprocessing.shared_memory`: the producer writes a burst
straight into the mapped segment, the consumer reads it out, and the
only per-burst costs are one or two ``memcpy``-sized slice operations
on each side. The byte movement alone — the ``copy_ns`` instrument of
:class:`~repro.net.procrun.TransportStats` — reads ~8x lower than the
pipe's for a 32-packet burst (traced ``nat-proc``: ~0.4 against ~3.3
µs per frame). That compares a copy with a wait: on the benchmark's
one CPU a pipe write that wakes the peer can hand it the CPU inside
``send_bytes``, so the pipe's ``copy_ns`` also books the peer's run.
Nor is it an end-to-end figure. With one worker sharing the driver's
one CPU the ring costs what the pipe does per frame but more per turn,
so the pipe still forwards more frames per second at a lower probe
latency (``docs/SCALING.md`` §4).

Layout (one segment per ring)::

    [0:8)            head — slots produced, free-running uint64
    [64:72)          tail — slots consumed, free-running uint64
    [128:128+N*S)    N fixed-size slots of S bytes

``head`` is written only by the producer, ``tail`` only by the
consumer — the single-producer/single-consumer discipline that makes
the ring correct without locks. The indexes live on separate cache
lines so the two sides never write the same line. Capacity is
``head - tail`` (free-running counters never wrap in practice:
2^64 slots outlives the process). Each index is read and written as
one aligned native ``uint64`` item of a ``memoryview.cast("Q")``: a
single 8-byte load or store, which the other side sees whole.
``struct.pack_into`` would not do: it zero-fills its target before it
writes, so a reader that looks in between — the other CPU, or the
same one after a preemption — sees an index of 0, takes stale slot
bytes for a span and corrupts the ring.

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

#: First slot starts here; head and tail each own a cache line, at
#: byte offsets 0 and 64: items 0 and 8 of the ``uint64`` index view.
DATA_OFFSET = 128
_HEAD = 0
_TAIL = 64 // 8

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
        #: The mapping, taken once and kept until :meth:`close` drops
        #: it, and the head/tail items over its first cache lines.
        self._view = self._shm.buf
        self._index = self._view[:DATA_OFFSET].cast("Q")
        if create:
            self._index[_HEAD] = self._index[_TAIL] = 0

    # -- index protocol ------------------------------------------------------
    @property
    def name(self) -> str:
        return self._shm.name

    @property
    def head(self) -> int:
        return self._live_index()[_HEAD]

    @property
    def tail(self) -> int:
        return self._live_index()[_TAIL]

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
        pipe transport ships (``pack_slot_records`` output). The span
        header is packed into the first slot and the bytes follow in
        ``span_slots`` consecutive slots with one slice assignment (two
        on wraparound). An empty burst is a no-op (the consumer would
        have nothing to see).
        """
        size = len(records)
        if not size:
            return True
        need = self.span_slots(size)
        if need > self.slots:
            raise ValueError(
                f"burst of {size} bytes needs {need} slots; "
                f"ring only has {self.slots} — raise "
                f"repro.net.procrun.RING_SLOTS or RING_SLOT_BYTES"
            )
        index = self._live_index()
        head = index[_HEAD]
        if need > self.slots - (head - index[_TAIL]):
            return False
        buf = self._view
        # A span starts on a slot boundary and a slot holds more than
        # the 4-byte header, so only the records can wrap.
        start = DATA_OFFSET + (head % self.slots) * self.slot_bytes
        _SPAN.pack_into(buf, start, size)
        start += _SPAN.size
        end = DATA_OFFSET + self.capacity_bytes
        if start + size <= end:
            buf[start : start + size] = records
        else:  # the records wrap: the remainder starts at slot 0
            first = end - start
            buf[start:end] = records[:first]
            buf[DATA_OFFSET : DATA_OFFSET + size - first] = records[first:]
        index[_HEAD] = head + need
        return True

    # -- consumer side -------------------------------------------------------
    def pop_burst_bytes(self) -> Optional[bytes]:
        """Dequeue one burst's raw record bytes, or None when empty."""
        index = self._live_index()
        tail = index[_TAIL]
        if index[_HEAD] == tail:
            return None
        buf = self._view
        start = DATA_OFFSET + (tail % self.slots) * self.slot_bytes
        (nbytes,) = _SPAN.unpack_from(buf, start)
        begin = start + _SPAN.size
        stop = begin + nbytes
        end = DATA_OFFSET + self.capacity_bytes
        if stop <= end:
            records = bytes(buf[begin:stop])
        else:
            records = bytes(buf[begin:end]) + bytes(
                buf[DATA_OFFSET : DATA_OFFSET + stop - end]
            )
        index[_TAIL] = tail + self.span_slots(nbytes)
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
    def _live_index(self):
        index = self._index
        if index is None:
            raise RingClosed(f"ring {self._shm.name} is closed")
        return index

    def close(self) -> None:
        """Detach this process's mapping (does not destroy the segment)."""
        index, self._index, self._view = self._index, None, None
        if index is not None:
            index.release()
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
