"""Internet checksum arithmetic (RFC 1071) and incremental updates (RFC 1624).

A NAT rewrites source/destination addresses and ports, so it must patch the
IPv4 header checksum and the TCP/UDP checksum (which covers a pseudo-header
containing the IP addresses). High-performance NATs patch checksums
incrementally instead of recomputing them over the whole packet; both forms
are provided here and tested against each other.
"""

from __future__ import annotations

import struct


def _fold(total: int) -> int:
    """Fold a sum into 16 bits by adding carries back in."""
    while total > 0xFFFF:
        total = (total & 0xFFFF) + (total >> 16)
    return total


def internet_checksum(data: bytes, initial: int = 0) -> int:
    """One's-complement 16-bit checksum of ``data`` (RFC 1071).

    ``initial`` is a partial sum (NOT complemented) to continue from, which
    is how the pseudo-header sum is chained into the L4 checksum.
    """
    total = initial
    length = len(data)
    # Sum 16-bit big-endian words; pad a trailing odd byte with zero.
    for i in range(0, length - 1, 2):
        total += (data[i] << 8) | data[i + 1]
    if length % 2:
        total += data[-1] << 8
    return (~_fold(total)) & 0xFFFF


def ipv4_header_checksum(header: bytes) -> int:
    """Checksum of an IPv4 header whose checksum field is zeroed."""
    if len(header) < 20:
        raise ValueError("IPv4 header must be at least 20 bytes")
    return internet_checksum(header)


def _pseudo_header_sum(src_ip: int, dst_ip: int, proto: int, l4_len: int) -> int:
    """Partial (unfolded, uncomplemented) sum of the IPv4 pseudo-header."""
    pseudo = struct.pack(">IIBBH", src_ip, dst_ip, 0, proto, l4_len)
    total = 0
    for i in range(0, len(pseudo), 2):
        total += (pseudo[i] << 8) | pseudo[i + 1]
    return total


def l4_checksum(src_ip: int, dst_ip: int, proto: int, segment: bytes) -> int:
    """TCP/UDP checksum over pseudo-header plus segment (checksum zeroed)."""
    return internet_checksum(
        segment, initial=_pseudo_header_sum(src_ip, dst_ip, proto, len(segment))
    )


def checksums_equivalent(a: int, b: int) -> bool:
    """Equality modulo the one's-complement double zero (RFC 1624 §3).

    One's-complement arithmetic has two representations of zero, 0x0000
    and 0xFFFF; an incrementally patched checksum may land on the other
    representation than a full recompute. Receivers validate by summing,
    so for the IPv4 header and TCP the two are interchangeable on the
    wire. For UDP they are not: a transmitted 0x0000 means "no checksum"
    (RFC 768), so an enabled UDP checksum is sent as 0xFFFF
    (:func:`udp_checksum_on_wire`). Here both still *validate*.
    """
    if a == b:
        return True
    return {a, b} == {0x0000, 0xFFFF}


def udp_checksum_on_wire(computed: int) -> int:
    """The word an *enabled* UDP checksum is sent as (RFC 768).

    A transmitted 0 means the sender computed no checksum, so a sum
    that computes to 0x0000 goes out as 0xFFFF, its one's-complement
    twin. Every UDP checksum writer calls this on an enabled checksum
    only: a disabled one stays 0.
    """
    return computed or 0xFFFF


def checksum_update_u16(checksum: int, old: int, new: int) -> int:
    """Incrementally patch a checksum for a 16-bit field change (RFC 1624 eq. 3).

    ``HC' = ~(~HC + ~m + m')`` computed in one's-complement arithmetic.
    """
    if not (0 <= old <= 0xFFFF and 0 <= new <= 0xFFFF):
        raise ValueError("field values must be 16-bit")
    total = (~checksum & 0xFFFF) + (~old & 0xFFFF) + new
    return (~_fold(total)) & 0xFFFF


def checksum_update_u32(checksum: int, old: int, new: int) -> int:
    """Incrementally patch a checksum for a 32-bit field change.

    Treats the 32-bit value as two 16-bit words, as the checksum does.
    """
    if not (0 <= old <= 0xFFFFFFFF and 0 <= new <= 0xFFFFFFFF):
        raise ValueError("field values must be 32-bit")
    checksum = checksum_update_u16(checksum, (old >> 16) & 0xFFFF, (new >> 16) & 0xFFFF)
    return checksum_update_u16(checksum, old & 0xFFFF, new & 0xFFFF)


def checksum_delta_u16(old: int, new: int) -> int:
    """Precompute the RFC 1624 delta for a 16-bit field change.

    ``checksum_apply_delta(c, checksum_delta_u16(old, new))`` equals
    ``checksum_update_u16(c, old, new)`` for every checksum ``c`` — the
    same ``~old + new`` term is added either way — so a flow cache can
    compute the delta once at learn time and replay it per packet.
    """
    if not (0 <= old <= 0xFFFF and 0 <= new <= 0xFFFF):
        raise ValueError("field values must be 16-bit")
    return (~old & 0xFFFF) + new


def checksum_delta_u32(old: int, new: int) -> tuple:
    """Per-word deltas for a 32-bit field change (high word first).

    Applied in order they reproduce ``checksum_update_u32`` bit-exactly.
    """
    if not (0 <= old <= 0xFFFFFFFF and 0 <= new <= 0xFFFFFFFF):
        raise ValueError("field values must be 32-bit")
    return (
        checksum_delta_u16((old >> 16) & 0xFFFF, (new >> 16) & 0xFFFF),
        checksum_delta_u16(old & 0xFFFF, new & 0xFFFF),
    )


def checksum_apply_delta(checksum: int, delta: int) -> int:
    """Apply one precomputed delta to a stored checksum (RFC 1624 eq. 3)."""
    return (~_fold((~checksum & 0xFFFF) + delta)) & 0xFFFF
