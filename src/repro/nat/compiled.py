"""Compiled per-flow actions: the fast path as a specialized closure.

The action cache (:mod:`repro.nat.fastpath`) skips the slow path; this
module makes what a hit does cheap, the way OVS compiles a megaflow
into an action list the datapath executes without consulting the
classifier: the flow's rewrite is *compiled* into a closure whose work
per frame is two struct reads, two folded RFC 1624 delta applications,
and a single ``bytes`` splice. No header object is built.

What makes the compilation sound:

- **The flow key pins the rewritten region.** Frame bytes 26..38
  (src ip, dst ip, src port, dst port) are part of the microflow key,
  so for every packet of the flow they are *constants* — the compiled
  action carries their post-rewrite value as a precomputed 12-byte
  string (``mid12``) and never reads them again.
- **Checksum deltas fold.** ``checksum_apply_delta`` adds a
  non-negative delta and folds; folding is congruence mod 0xFFFF on
  positive sums, so applying deltas ``d1`` then ``d2`` is bit-identical
  to applying ``d1 + d2`` once. All of a rewrite's patch calls therefore
  collapse into one constant per checksum field.
- **RFC 768 is read once.** A UDP checksum of 0 means "no checksum".
  The shared rewrite helper reads that sentinel once, off the arriving
  packet, and otherwise takes every patch — so the UDP closure tests the
  frame's arriving checksum once and, when it is enabled, applies the
  one folded delta even where the helper's intermediate sum passes
  through 0; a result of 0 leaves as 0xFFFF, as the helper's does. A
  rewrite that never tests it (``udp_zero_check=False``:
  ``UnverifiedNat``'s hand-rolled inbound patch) patches a 0 like any
  other word, as TCP's does.
- **Canonical form pins the layout.** A closure only ever runs on a
  frame in canonical form (:func:`~repro.packets.headers.is_canonical`):
  option-less IPv4 and TCP, lengths agreeing with the frame. The fixed
  offsets below are therefore the fields they name, and a splice of
  fixed-width fields leaves the output canonical too.
- **Verification backstops the compiler.** ``FastPathNat`` caches an
  action only after its closure has turned the learning packet's frame
  into the verified slow path's own bytes. A miscompiled closure never
  serves a packet.

A closure lives on its flow's action and the action lives exactly as
long as the flow, so a hit checks nothing before firing one.
"""

from __future__ import annotations

import struct
from typing import Callable

from repro.packets.checksum import (
    checksum_delta_u16,
    checksum_delta_u32,
    udp_checksum_on_wire,
)
from repro.packets.headers import (
    OFF_IP_CSUM,
    OFF_SRC_IP,
    OFF_TCP_CSUM,
    OFF_UDP_CSUM,
    PROTO_UDP,
    FlowKey,
)

_U16 = struct.Struct(">H")
#: src_ip, dst_ip, src_port, dst_port — wire order at offset 26.
_MID = struct.Struct(">IIHH")
_MID_END = OFF_SRC_IP + _MID.size  # 38: first byte after dst_port


def _identity(buf) -> bytes:
    return bytes(buf)


def _build_closure(
    mid12: bytes,
    ip_delta: int,
    l4_delta: int,
    l4_offset: int,
    sentinel: int,
) -> Callable[..., bytes]:
    """Generate the per-frame rewrite closure for one flow's constants.

    Every patch folds into one constant per checksum field. An arriving
    L4 checksum equal to ``sentinel`` (0 for UDP under RFC 768, else -1,
    which no 16-bit word equals) passes through unpatched; under RFC 768
    an enabled one that patches to 0 leaves as 0xFFFF. The RFC 1624
    fold is inlined — ``apply_delta(c, d) = ~fold(~c + d)`` — so a
    packet costs two struct reads, the folds, and a single ``bytes``
    splice.
    """
    unpack_from = _U16.unpack_from
    pack = _U16.pack
    rfc768 = sentinel == 0
    ip_off = OFF_IP_CSUM
    mid_end = _MID_END
    l4_end = l4_offset + 2

    def apply_one(buf) -> bytes:
        x = (~unpack_from(buf, ip_off)[0] & 0xFFFF) + ip_delta
        while x > 0xFFFF:
            x = (x & 0xFFFF) + (x >> 16)
        l4 = unpack_from(buf, l4_offset)[0]
        if l4 != sentinel:
            y = (~l4 & 0xFFFF) + l4_delta
            while y > 0xFFFF:
                y = (y & 0xFFFF) + (y >> 16)
            l4 = ~y & 0xFFFF
            if not l4 and rfc768:
                l4 = udp_checksum_on_wire(l4)
        return b"".join(
            (
                buf[:ip_off],
                pack(~x & 0xFFFF),
                mid12,
                buf[mid_end:l4_offset],
                pack(l4),
                buf[l4_end:],
            )
        )

    return apply_one


def compile_action(
    key: FlowKey, action, udp_zero_check: bool = True
) -> Callable[..., bytes]:
    """Compile a :class:`~repro.nat.fastpath.CachedAction` for flow ``key``.

    Returns the closure ``frame -> rewritten bytes``; the output device
    and liveness token stay on the action it was compiled from, which
    is also what holds the closure. An action that rewrites nothing
    compiles to the identity.

    The pre-rewrite endpoint values are read off the key (the key *is*
    the packet's endpoints); the post-rewrite values come from the
    action. Each rewritten endpoint adds its address words to both
    checksums' deltas and its port word to the L4 delta, as the shared
    rewrite helper patches them; ``udp_zero_check=False`` compiles a
    UDP rewrite that patches a disabled checksum too.
    """
    src, dst = action.src, action.dst
    if src is None and dst is None:
        return _identity
    _, proto, src_ip, src_port, dst_ip, dst_port = key
    # One straight pass: this runs once per learn, on every new flow.
    ip_delta = port_delta = 0
    if src is None:
        src = (src_ip, src_port)
    else:
        high, low = checksum_delta_u32(src_ip, src[0])
        ip_delta = high + low
        port_delta = checksum_delta_u16(src_port, src[1])
    if dst is None:
        dst = (dst_ip, dst_port)
    else:
        high, low = checksum_delta_u32(dst_ip, dst[0])
        ip_delta += high + low
        port_delta += checksum_delta_u16(dst_port, dst[1])
    udp = proto == PROTO_UDP
    return _build_closure(
        _MID.pack(src[0], dst[0], src[1], dst[1]),
        ip_delta,
        ip_delta + port_delta,
        OFF_UDP_CSUM if udp else OFF_TCP_CSUM,
        0 if udp and udp_zero_check else -1,
    )


__all__ = ["compile_action"]
