"""Compiled per-flow actions: the fast path as a specialized closure.

The action cache (:mod:`repro.nat.fastpath`) skips the slow path; this
module makes what a hit does cheap, the way OVS compiles a megaflow
into an action list the datapath executes without consulting the
classifier: the flow's rewrite is *compiled* into a closure whose work
per frame is two struct reads, one or two folded RFC 1624 delta
applications, and a single ``bytes`` splice. No header object is built.

What makes the compilation sound:

- **The flow key pins the rewritten region.** Frame bytes 26..38
  (src ip, dst ip, src port, dst port) are part of the microflow key,
  so for every packet of the flow they are *constants* — the compiled
  action carries their post-rewrite value as a precomputed 12-byte
  string (``mid12``) and never reads them again.
- **Checksum deltas fold.** ``checksum_apply_delta`` adds a
  non-negative delta and folds; folding is congruence mod 0xFFFF on
  positive sums, so applying deltas ``d1`` then ``d2`` is bit-identical
  to applying ``d1 + d2`` once. All unconditional patch calls therefore
  collapse into one constant per checksum field.
- **RFC 768 bounds the folding.** A UDP checksum of 0 means "no
  checksum", and the shared rewrite helpers re-check for 0 before
  *each* of their L4 patch calls — an intermediate patch may land on 0,
  disabling the rest. So for UDP the L4 deltas are folded only *within*
  each patch call (one stage per call, zero-checked between stages);
  for TCP, which has no such sentinel, every stage folds into a single
  constant. A rewrite that never zero-checks (``udp_zero_check=False``:
  ``UnverifiedNat``'s hand-rolled inbound patch) folds like TCP's at
  the UDP checksum offset.
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
from typing import Callable, List, Tuple

from repro.packets.checksum import checksum_delta_u16, checksum_delta_u32
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


def _build_closure(
    mid12: bytes,
    ip_delta: int,
    l4_stages: Tuple[int, ...],
    l4_offset: int,
    zero_check: bool,
) -> Callable[..., bytes]:
    """Generate the per-frame rewrite closure for one flow's constants.

    Three shapes, selected at compile time so the per-packet code has
    no branches on the flow's properties: identity (no rewrite — the
    frame passes through as-is), folded (every checksum stage folded
    into one constant, no sentinel checks: TCP, and UDP rewritten
    without the check), staged (UDP deltas with the RFC 768 zero-check
    between stages). The RFC 1624 fold is inlined —
    ``apply_delta(c, d) = ~fold(~c + d)`` — so a packet costs two
    struct reads, the folds, and a single ``bytes`` splice.
    """
    unpack_from = _U16.unpack_from
    pack = _U16.pack
    ip_off = OFF_IP_CSUM
    mid_end = _MID_END
    l4_end = l4_offset + 2

    if not l4_stages:
        def apply_one(buf) -> bytes:
            return bytes(buf)

        return apply_one

    if not zero_check:
        stage = l4_stages[0]

        def apply_one(buf) -> bytes:
            x = (~unpack_from(buf, ip_off)[0] & 0xFFFF) + ip_delta
            while x > 0xFFFF:
                x = (x & 0xFFFF) + (x >> 16)
            y = (~unpack_from(buf, l4_offset)[0] & 0xFFFF) + stage
            while y > 0xFFFF:
                y = (y & 0xFFFF) + (y >> 16)
            return b"".join(
                (
                    buf[:ip_off],
                    pack(~x & 0xFFFF),
                    mid12,
                    buf[mid_end:l4_offset],
                    pack(~y & 0xFFFF),
                    buf[l4_end:],
                )
            )

        return apply_one

    def apply_one(buf) -> bytes:
        x = (~unpack_from(buf, ip_off)[0] & 0xFFFF) + ip_delta
        while x > 0xFFFF:
            x = (x & 0xFFFF) + (x >> 16)
        l4 = unpack_from(buf, l4_offset)[0]
        for delta in l4_stages:
            if l4 == 0:  # RFC 768: "no checksum" stays disabled
                break
            y = (~l4 & 0xFFFF) + delta
            while y > 0xFFFF:
                y = (y & 0xFFFF) + (y >> 16)
            l4 = ~y & 0xFFFF
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
    is also what holds the closure.

    The pre-rewrite endpoint values are read off the key (the key *is*
    the packet's endpoints); the post-rewrite values come from the
    action. Delta terms are emitted per patch call of the shared
    rewrite helpers in call order — IP-header, L4-for-src-ip,
    L4-for-src-port, then the same for dst — and folded exactly as far
    as the helpers' own zero-checks allow (see module docstring);
    ``udp_zero_check=False`` compiles a UDP rewrite that has none.
    """
    _, proto, src_ip, src_port, dst_ip, dst_port = key
    new_src = action.src if action.src is not None else (src_ip, src_port)
    new_dst = action.dst if action.dst is not None else (dst_ip, dst_port)
    ip_delta = 0
    stages: List[int] = []
    for old_pair, new_pair, rewritten in (
        ((src_ip, src_port), new_src, action.src is not None),
        ((dst_ip, dst_port), new_dst, action.dst is not None),
    ):
        if not rewritten:
            continue
        ip_words = checksum_delta_u32(old_pair[0], new_pair[0])
        ip_delta += ip_words[0] + ip_words[1]
        # One stage per L4 patch call: _patch_l4_for_ip (both address
        # words fold — no zero-check between them), then
        # _patch_l4_for_port.
        stages.append(ip_words[0] + ip_words[1])
        stages.append(checksum_delta_u16(old_pair[1], new_pair[1]))
    udp = proto == PROTO_UDP
    zero_check = udp and udp_zero_check
    if not zero_check and stages:
        # Nothing zero-checks between stages: they fold into one constant.
        stages = [sum(stages)]
    return _build_closure(
        mid12=_MID.pack(new_src[0], new_dst[0], new_src[1], new_dst[1]),
        ip_delta=ip_delta,
        l4_stages=tuple(stages),
        l4_offset=OFF_UDP_CSUM if udp else OFF_TCP_CSUM,
        zero_check=zero_check,
    )


__all__ = ["compile_action"]
