"""Checksum arithmetic: RFC 1071 vectors and RFC 1624 incremental updates."""

import struct

from hypothesis import given, settings, strategies as st

from repro.packets.checksum import (
    checksum_apply_delta,
    checksum_delta_u16,
    checksum_delta_u32,
    checksum_update_u16,
    checksum_update_u32,
    checksums_equivalent,
    internet_checksum,
    ipv4_header_checksum,
    l4_checksum,
)


class TestInternetChecksum:
    def test_rfc1071_example(self):
        # The classic RFC 1071 worked example: 00 01 f2 03 f4 f5 f6 f7.
        data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
        # Sum = 0x0001 + 0xf203 + 0xf4f5 + 0xf6f7 = 0x2ddf0 -> fold 0xddf2
        assert internet_checksum(data) == (~0xDDF2) & 0xFFFF

    def test_zero_data(self):
        assert internet_checksum(b"\x00\x00") == 0xFFFF

    def test_odd_length_padding(self):
        # A trailing odd byte is padded with zero on the right.
        assert internet_checksum(b"\xab") == internet_checksum(b"\xab\x00")

    def test_checksum_of_data_with_checksum_is_zero(self):
        # Inserting the checksum into the data makes the sum fold to 0.
        data = b"\x45\x00\x00\x28\x1c\x46\x40\x00\x40\x06"
        csum = internet_checksum(data + b"\x00\x00" + b"\x0a\x00\x00\x01\x0a\x00\x00\x02")
        full = data + struct.pack(">H", csum) + b"\x0a\x00\x00\x01\x0a\x00\x00\x02"
        assert internet_checksum(full) == 0

    @given(st.binary(min_size=0, max_size=64))
    def test_checksum_is_16_bit(self, data):
        assert 0 <= internet_checksum(data) <= 0xFFFF


class TestIncrementalUpdate:
    @given(
        st.binary(min_size=20, max_size=40).filter(lambda d: len(d) % 2 == 0),
        st.integers(0, 9),
        st.integers(0, 0xFFFF),
    )
    def test_u16_patch_equals_recompute(self, data, word_index, new_value):
        """RFC 1624: patching a 16-bit word incrementally == recomputing."""
        offset = word_index * 2
        old_value = struct.unpack_from(">H", data, offset)[0]
        original = internet_checksum(data)
        patched_data = data[:offset] + struct.pack(">H", new_value) + data[offset + 2 :]
        expected = internet_checksum(patched_data)
        patched = checksum_update_u16(original, old_value, new_value)
        assert checksums_equivalent(patched, expected)

    @given(
        st.binary(min_size=20, max_size=40).filter(lambda d: len(d) % 4 == 0),
        st.integers(0, 4),
        st.integers(0, 0xFFFFFFFF),
    )
    def test_u32_patch_equals_recompute(self, data, dword_index, new_value):
        offset = dword_index * 4
        old_value = struct.unpack_from(">I", data, offset)[0]
        original = internet_checksum(data)
        patched_data = data[:offset] + struct.pack(">I", new_value) + data[offset + 4 :]
        expected = internet_checksum(patched_data)
        patched = checksum_update_u32(original, old_value, new_value)
        assert checksums_equivalent(patched, expected)

    @given(
        st.integers(0, 0xFFFF),
        st.integers(0, 0xFFFF),
        st.integers(0, 0xFFFF),
    )
    @settings(max_examples=200, deadline=None)
    def test_precomputed_delta_is_bit_exact(self, checksum, old, new):
        """Precomputed deltas equal the slow path's in-place updates.

        This is the property that lets a compiled closure fold
        ``checksum_delta_u16(old, new)`` into a constant once and apply
        it to any packet's stored checksum: the result is bit-identical
        (not just one's-complement-equivalent) to updating with
        (old, new) directly.
        """
        delta = checksum_delta_u16(old, new)
        assert checksum_apply_delta(checksum, delta) == checksum_update_u16(
            checksum, old, new
        )

        old32 = (old << 16) | new
        new32 = (new << 16) | old
        high, low = checksum_delta_u32(old32, new32)
        stepped = checksum_apply_delta(checksum_apply_delta(checksum, high), low)
        assert stepped == checksum_update_u32(checksum, old32, new32)

    def test_identity_patch(self):
        assert checksum_update_u16(0x1234, 0xBEEF, 0xBEEF) == 0x1234

    def test_u16_range_check(self):
        import pytest

        with pytest.raises(ValueError):
            checksum_update_u16(0, 0x10000, 0)


class TestNatRewriteProperty:
    """Incremental patching == full recompute for whole NAT rewrites.

    A NAT rewrite touches an IP address (IPv4 header checksum and the
    L4 pseudo-header) and a port (L4 only); the incremental RFC 1624
    path the NATs use must agree with a full recompute via
    ``ipv4_header_checksum``/``l4_checksum`` under
    ``checksums_equivalent`` for every randomized rewrite.
    """

    @staticmethod
    def _ipv4_header(src_ip, dst_ip, checksum=0):
        return struct.pack(
            ">BBHHHBBHII", 0x45, 0, 20, 0x1C46, 0x4000, 64, 17, checksum,
            src_ip, dst_ip,
        )

    @staticmethod
    def _udp_segment(src_port, dst_port, payload, checksum=0):
        return struct.pack(
            ">HHHH", src_port, dst_port, 8 + len(payload), checksum
        ) + payload

    @given(
        src_ip=st.integers(0, 0xFFFFFFFF),
        dst_ip=st.integers(0, 0xFFFFFFFF),
        new_ip=st.integers(0, 0xFFFFFFFF),
    )
    def test_ip_rewrite_patches_ipv4_header_checksum(self, src_ip, dst_ip, new_ip):
        original = ipv4_header_checksum(self._ipv4_header(src_ip, dst_ip))
        patched = checksum_update_u32(original, src_ip, new_ip)
        recomputed = ipv4_header_checksum(self._ipv4_header(new_ip, dst_ip))
        assert checksums_equivalent(patched, recomputed)

    @given(
        src_ip=st.integers(0, 0xFFFFFFFF),
        dst_ip=st.integers(0, 0xFFFFFFFF),
        src_port=st.integers(0, 0xFFFF),
        dst_port=st.integers(0, 0xFFFF),
        new_ip=st.integers(0, 0xFFFFFFFF),
        new_port=st.integers(0, 0xFFFF),
        payload=st.binary(min_size=0, max_size=32),
    )
    def test_source_rewrite_patches_l4_checksum(
        self, src_ip, dst_ip, src_port, dst_port, new_ip, new_port, payload
    ):
        """The full source rewrite (IP in the pseudo-header + port)."""
        segment = self._udp_segment(src_port, dst_port, payload)
        original = l4_checksum(src_ip, dst_ip, 17, segment)
        patched = checksum_update_u32(original, src_ip, new_ip)
        patched = checksum_update_u16(patched, src_port, new_port)
        rewritten = self._udp_segment(new_port, dst_port, payload)
        recomputed = l4_checksum(new_ip, dst_ip, 17, rewritten)
        assert checksums_equivalent(patched, recomputed)

    def test_zero_ffff_edge(self):
        """The one's-complement double zero (0x0000 vs 0xFFFF).

        Patching the only nonzero word of a block to zero: the full
        recompute of the all-zero block yields 0xFFFF, while the
        incremental path lands on 0x0000 — different bit patterns, the
        same checksum on the wire.
        """
        data = struct.pack(">H", 0x1234) + b"\x00" * 18
        original = internet_checksum(data)
        patched = checksum_update_u16(original, 0x1234, 0x0000)
        recomputed = internet_checksum(b"\x00" * 20)
        assert recomputed == 0xFFFF
        assert patched == 0x0000
        assert patched != recomputed
        assert checksums_equivalent(patched, recomputed)


class TestL4Checksum:
    def test_pseudo_header_contributes(self):
        seg = b"\x00" * 8
        a = l4_checksum(0x0A000001, 0x0A000002, 17, seg)
        b = l4_checksum(0x0A000001, 0x0A000003, 17, seg)
        assert a != b

    def test_ipv4_header_checksum_requires_20_bytes(self):
        import pytest

        with pytest.raises(ValueError):
            ipv4_header_checksum(b"\x00" * 19)
