"""Unit proofs for the SPSC shared-memory ring.

The differential suite proves the rings end-to-end inside the process
runtime; these tests pin the ring's own contract in isolation — span
accounting, wraparound of the payload (the 4-byte span header never
wraps: spans start on slot boundaries), full/empty boundaries, index
stores a concurrent peer sees whole, and idempotent lifecycle — so a
future failure localizes to the ring or to the runtime, not to
"somewhere in shm".
"""

import glob
import multiprocessing
import time

import pytest

from repro.net.mbuf import SLOT_HEADER, pack_slot_record
from repro.net.shmring import (
    DEFAULT_SLOT_BYTES,
    DEFAULT_SLOTS,
    RingClosed,
    ShmRing,
    unlink_rings,
)


@pytest.fixture
def ring():
    r = ShmRing(slots=8, slot_bytes=64)
    yield r
    r.unlink()


def records_blob(count, size=40, tag=0):
    return b"".join(
        pack_slot_record(i, 1, 1_000 + tag, bytes([tag % 256]) * size)
        for i in range(count)
    )


class TestGeometry:
    def test_rejects_nonpositive_slots(self):
        with pytest.raises(ValueError):
            ShmRing(slots=0)

    def test_rejects_slots_too_small_for_headers(self):
        with pytest.raises(ValueError):
            ShmRing(slot_bytes=4)

    def test_span_slots_rounds_up(self, ring):
        assert ring.span_slots(1) == 1
        # span header (4) + 60 = 64 → exactly one slot
        assert ring.span_slots(60) == 1
        assert ring.span_slots(61) == 2

    def test_defaults_are_a_mebibyte_of_payload(self):
        assert DEFAULT_SLOTS * DEFAULT_SLOT_BYTES == 1 << 20


class TestPushPop:
    def test_round_trips_records(self, ring):
        blob = records_blob(3)
        assert ring.try_push_burst(blob)
        assert ring.pop_burst_bytes() == blob
        assert ring.pop_burst_bytes() is None

    def test_pop_burst_parses_slot_records(self, ring):
        wire = b"\xabxyz"
        ring.try_push_burst(pack_slot_record(7, 1, 99, wire))
        assert ring.pop_burst() == [(7, 1, 99, wire)]

    def test_bursts_stay_separate_and_ordered(self, ring):
        first, second = records_blob(1, tag=1), records_blob(1, tag=2)
        assert ring.try_push_burst(first)
        assert ring.try_push_burst(second)
        assert ring.pop_burst_bytes() == first
        assert ring.pop_burst_bytes() == second

    def test_empty_burst_is_a_noop(self, ring):
        assert ring.try_push_burst(b"")
        assert ring.used_slots == 0

    def test_full_ring_refuses_then_accepts_after_pop(self, ring):
        blob = records_blob(4)  # 4 + 4*(16+40) = 228 bytes → 4 slots
        assert ring.try_push_burst(blob)
        assert ring.try_push_burst(blob)
        assert ring.free_slots == 0
        assert not ring.try_push_burst(records_blob(1))
        assert ring.pop_burst_bytes() == blob
        assert ring.try_push_burst(records_blob(1))

    def test_oversized_burst_raises_with_sizing_advice(self, ring):
        with pytest.raises(ValueError, match="RING_SLOTS"):
            ring.try_push_burst(records_blob(20))

    def test_drain_flattens_all_visible_bursts(self, ring):
        ring.try_push_burst(records_blob(2, tag=1))
        ring.try_push_burst(records_blob(1, tag=2))
        drained = ring.drain()
        assert len(drained) == 3
        assert drained[-1][2] == 1_002  # tag 2's timestamp, order kept


class TestWraparound:
    def test_payload_wraps_the_edge(self, ring):
        """Offset the ring, then push a span that must split in two."""
        ring.try_push_burst(records_blob(4))  # 4 slots
        assert ring.pop_burst_bytes() is not None
        big = records_blob(5)  # 5 slots: starts at slot 4, wraps at 8
        assert ring.try_push_burst(big)
        assert ring.pop_burst_bytes() == big

    def test_wrap_from_every_slot_offset(self):
        """Multi-slot spans starting at each slot, including the last.

        A span launched from the final slot keeps only its header plus
        a sliver of payload before the edge — the tightest split the
        slot-aligned protocol can produce (the 4-byte header itself can
        never straddle the edge, since spans start on slot boundaries
        and a slot always holds at least 20 bytes).
        """
        ring = ShmRing(slots=8, slot_bytes=64)
        try:
            ring.try_push_burst(records_blob(1, size=10))  # 1 slot
            ring.pop_burst_bytes()
            for i in range(8):  # start offsets walk 1,4,7,2,5,0,3,6
                start_slot = ring.head % ring.slots
                blob = records_blob(2, size=60, tag=i)  # 3 slots
                assert ring.try_push_burst(blob)
                assert ring.pop_burst_bytes() == blob, (
                    f"span from slot {start_slot} corrupted"
                )
        finally:
            ring.unlink()

    def test_free_running_indexes_never_reset(self, ring):
        for i in range(50):
            ring.try_push_burst(records_blob(2, tag=i))
            ring.pop_burst_bytes()
        assert ring.head == ring.tail
        assert ring.head > ring.slots  # lapped several times

    def test_long_mixed_sequence_stays_fifo(self):
        import random

        rng = random.Random(7)
        ring = ShmRing(slots=16, slot_bytes=64)
        expected = []
        tag = 0
        try:
            for _ in range(500):
                if rng.random() < 0.6:
                    blob = records_blob(rng.randint(1, 5), tag=tag)
                    tag += 1
                    if ring.try_push_burst(blob):
                        expected.append(blob)
                else:
                    got = ring.pop_burst_bytes()
                    if expected:
                        assert got == expected.pop(0)
                    else:
                        assert got is None
            while expected:
                assert ring.pop_burst_bytes() == expected.pop(0)
        finally:
            ring.unlink()


class TestSharedAccess:
    def test_attach_by_name_sees_producer_writes(self, ring):
        consumer = ShmRing(
            name=ring.name, slots=8, slot_bytes=64, create=False
        )
        try:
            blob = records_blob(2)
            ring.try_push_burst(blob)
            assert consumer.pop_burst_bytes() == blob
            assert ring.used_slots == 0  # tail published back
        finally:
            consumer.close()


#: A cycle of distinct bursts: consecutive ones always differ.
_CYCLE = [records_blob(1 + i % 3, tag=i) for i in range(256)]


def _produce(ring, bursts):
    for i in range(bursts):
        while not ring.try_push_burst(_CYCLE[i % 256]):
            pass


class TestConcurrentSides:
    def test_the_consumer_sees_every_index_store_whole(self):
        """Producer and consumer in two processes, both spinning: the
        consumer never sees ``head`` move back, and every burst arrives
        whole and in order. An index store with a visible intermediate
        value (``struct.pack_into`` zero-fills its target, then writes)
        shows as a ``head`` of 0, and a consumer that drains while the
        producer sits in that window reads past the published spans."""
        bursts = 50_000
        ring = ShmRing(slots=64, slot_bytes=64)
        producer = multiprocessing.get_context("fork").Process(
            target=_produce, args=(ring, bursts), daemon=True
        )
        producer.start()
        try:
            deadline = time.monotonic() + 60
            seen = 0
            for i in range(bursts):
                burst = None
                while burst is None:
                    assert time.monotonic() < deadline, f"stuck at burst {i}"
                    head = ring.head
                    assert head >= seen, f"head read {head} after {seen}"
                    seen = head
                    burst = ring.pop_burst_bytes()
                assert burst == _CYCLE[i % 256], f"burst {i}"
            assert ring.pop_burst_bytes() is None
        finally:
            producer.kill()
            producer.join()
            ring.unlink()


class TestLifecycle:
    def test_unlink_is_idempotent(self):
        ring = ShmRing(slots=8, slot_bytes=64)
        ring.unlink()
        ring.unlink()  # second unlink must not raise

    def test_closed_ring_raises_ring_closed(self):
        ring = ShmRing(slots=8, slot_bytes=64)
        name = ring.name
        ring.unlink()
        with pytest.raises(RingClosed):
            ring.try_push_burst(records_blob(1))
        with pytest.raises(RingClosed):
            ring.pop_burst_bytes()
        assert not glob.glob(f"/dev/shm/{name}")

    def test_unlink_rings_swallows_everything(self):
        ring = ShmRing(slots=8, slot_bytes=64)
        unlink_rings([ring, ring, object.__new__(ShmRing)])

    def test_segment_visible_in_dev_shm_until_unlink(self):
        ring = ShmRing(name="repro-ring-selftest", slots=8, slot_bytes=64)
        assert glob.glob("/dev/shm/repro-ring-selftest")
        ring.unlink()
        assert not glob.glob("/dev/shm/repro-ring-selftest")
