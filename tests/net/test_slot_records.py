"""The slot-record framing both process transports carry.

``pack_slot_records`` frames a whole burst with one join;
``unpack_slot_records`` reads it back. The layout is the one
``pack_slot_record`` gives a single record, byte for byte, and the
reader refuses any blob its records do not tile exactly. A framed burst
too long for one ring span is cut at record boundaries where a list of
records would have been.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.mbuf import (
    SLOT_HEADER,
    SlotRecordError,
    pack_slot_record,
    pack_slot_records,
    unpack_slot_records,
)
from repro.net.procrun import _spans
from repro.packets.headers import Packet

_U16 = st.integers(0, 0xFFFF)
_BURSTS = st.lists(
    st.tuples(
        _U16,  # port
        st.integers(-(1 << 63), (1 << 63) - 1),  # timestamp
        _U16,  # device
        st.binary(max_size=64),  # wire
    ),
    max_size=8,
)


def _descriptors(burst):
    """``(port, timestamp, packet)``, as a runtime's ``collect`` hands
    them over; the packets are wire-backed over arbitrary bytes."""
    return [
        (port, timestamp, Packet.from_image(wire, device))
        for port, timestamp, device, wire in burst
    ]


def _records(burst):
    return [(port, device, ts, wire) for port, ts, device, wire in burst]


def _boundaries(blob):
    """Offsets at which a record starts or the blob ends."""
    offsets, offset = [0], 0
    while offset < len(blob):
        offset += SLOT_HEADER.size + SLOT_HEADER.unpack_from(blob, offset)[3]
        offsets.append(offset)
    return offsets


class TestRoundTrip:
    @given(burst=_BURSTS)
    @settings(max_examples=200, deadline=None)
    def test_unpack_reads_back_what_pack_framed(self, burst):
        blob = pack_slot_records(_descriptors(burst))
        assert blob == b"".join(
            pack_slot_record(port, device, ts, wire)
            for port, device, ts, wire in _records(burst)
        )
        assert unpack_slot_records(blob) == _records(burst)
        for buffer in (bytearray(blob), memoryview(blob)):
            records = unpack_slot_records(buffer)
            assert records == _records(burst)
            assert all(type(wire) is bytes for *_, wire in records)

    @given(burst=_BURSTS, prefix=st.binary(max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_offset_skips_a_prefix(self, burst, prefix):
        blob = pack_slot_records(_descriptors(burst))
        assert unpack_slot_records(prefix + blob, len(prefix)) == _records(burst)


class TestEveryMalformedBlobIsRefused:
    @given(burst=_BURSTS.filter(bool))
    @settings(max_examples=100, deadline=None)
    def test_every_truncation(self, burst):
        """Cut at a record boundary, the blob is the records before the
        cut; cut anywhere else, it is refused."""
        blob = pack_slot_records(_descriptors(burst))
        boundaries = _boundaries(blob)
        for cut in range(len(blob)):
            if cut in boundaries:
                count = boundaries.index(cut)
                assert unpack_slot_records(blob[:cut]) == _records(burst)[:count]
            else:
                with pytest.raises(SlotRecordError):
                    unpack_slot_records(blob[:cut])

    @given(burst=_BURSTS.filter(bool), extra=st.integers(1, 1 << 16))
    @settings(max_examples=100, deadline=None)
    def test_every_over_long_length(self, burst, extra):
        """A record whose length field announces more bytes than the
        blob has left after its header is refused, whichever it is."""
        blob = pack_slot_records(_descriptors(burst))
        for start in _boundaries(blob)[:-1]:
            port, device, ts, _ = SLOT_HEADER.unpack_from(blob, start)
            left = len(blob) - start - SLOT_HEADER.size
            bad = bytearray(blob)
            SLOT_HEADER.pack_into(
                bad, start, port, device, ts, min(left + extra, 0xFFFFFFFF)
            )
            with pytest.raises(SlotRecordError):
                unpack_slot_records(bytes(bad))


def _chunk_by_frames(frames, max_bytes):
    """The span cut as it was made from a list of framed records: a run
    is closed before the record that would take it past ``max_bytes``."""
    chunks, batch, size = [], [], 0
    for frame in frames:
        if batch and size + len(frame) > max_bytes:
            chunks.append(b"".join(batch))
            batch, size = [], 0
        batch.append(frame)
        size += len(frame)
    if batch:
        chunks.append(b"".join(batch))
    return chunks


class TestSpanCut:
    @given(burst=_BURSTS.filter(bool), max_bytes=st.integers(1, 400))
    @settings(max_examples=300, deadline=None)
    def test_cutting_the_framed_burst_equals_cutting_its_records(
        self, burst, max_bytes
    ):
        frames = [
            pack_slot_record(port, device, ts, wire)
            for port, device, ts, wire in _records(burst)
        ]
        assert _spans(b"".join(frames), max_bytes) == _chunk_by_frames(
            frames, max_bytes
        )
