"""Seeded frame schedules: the program under test sees only these bytes.

Every random choice comes from one ``random.Random`` seeded with the
workload's shape and ``--seed``, so a seed names one byte-identical
schedule and another seed gives other flows of the same shape. Frames are
built with ``repro.packets.builder``; NAT reply frames target only the
external endpoints observed in the warm-up outputs (``observe``), never a
port derived from knowledge of the allocator.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Deque, Dict, Iterator, List, Tuple

from repro.packets.builder import make_tcp_packet, make_udp_packet
from repro.packets.headers import PROTO_TCP, PROTO_UDP, Packet

from workloads import (
    BURST,
    CHURN_NEW_PER_BURST,
    CHURN_RECENT,
    CHURN_WARMUP_BURSTS,
    LAP_BURSTS,
    STABLE_FLOWS,
    Shape,
)

#: One offered frame: (wire port it arrives on, frame bytes).
Frame = Tuple[int, bytes]
Burst = List[Frame]

_UDP_HEADERS = 14 + 20 + 8
_TCP_HEADERS = 14 + 20 + 20
_MIN_FRAME = 64


class _Flow:
    __slots__ = ("proto", "src_ip", "src_port", "dst_ip", "dst_port", "payload")

    def __init__(self, proto, src_ip, src_port, dst_ip, dst_port, payload):
        self.proto = proto
        self.src_ip = src_ip
        self.src_port = src_port
        self.dst_ip = dst_ip
        self.dst_port = dst_port
        self.payload = payload

    def frame(self, reverse_to: Tuple[int, int] | None = None) -> bytes:
        """The forward frame, or the reply addressed to ``reverse_to``."""
        if reverse_to is None:
            ends = (self.src_ip, self.dst_ip, self.src_port, self.dst_port)
        else:
            ends = (self.dst_ip, reverse_to[0], self.dst_port, reverse_to[1])
        make = make_udp_packet if self.proto == PROTO_UDP else make_tcp_packet
        # to_bytes, not wire_bytes: the ledger wraps wire_bytes, and the
        # generator's own serializing must not be booked as the program's.
        return make(*ends, payload=self.payload).to_bytes()


class Traffic:
    """One workload's schedule for one seed."""

    def __init__(self, shape: Shape, seed: int) -> None:
        self.shape = shape
        self.stable = shape.kind != "churn"
        self._rng = random.Random(f"e2e/{shape.kind}/{shape.payload}/{seed}")
        self._dst_ip = self._rng.randrange(0xC6120000, 0xC6140000)  # 198.18/15
        self._dst_port_base = self._rng.randrange(2000, 30000)
        self._src_base = 0x0A000000 + self._rng.randrange(1, 0x7F0000)
        self._made = 0
        #: (proto, dst_ip, dst_port) of a forward frame -> (ext_ip, ext_port)
        self._external: Dict[Tuple[int, int, int], Tuple[int, int]] = {}
        self._flows: List[_Flow] = []
        self._lap: List[Burst] = []
        self._probe_cursor = 0
        self._recent: Deque[Frame] = deque(maxlen=CHURN_RECENT)
        if self.stable:
            self._flows = [self._new_flow() for _ in range(STABLE_FLOWS)]

    # -- flows ---------------------------------------------------------------
    def _new_flow(self) -> _Flow:
        index = self._made
        self._made += 1
        proto = PROTO_UDP if index % 2 == 0 else PROTO_TCP
        headers = _UDP_HEADERS if proto == PROTO_UDP else _TCP_HEADERS
        size = self.shape.payload or _MIN_FRAME - headers
        return _Flow(
            proto,
            self._src_base + index,
            self._rng.randrange(1024, 65536),
            self._dst_ip,
            # Unique per stable flow, so a NAT output names its flow.
            (self._dst_port_base + index) % 60000 + 1024,
            self._rng.randbytes(size),
        )

    # -- phase 1: warm-up ----------------------------------------------------
    def warmup(self) -> Iterator[Burst]:
        """Warm-up bursts; call :meth:`observe` with each burst's outputs."""
        shape = self.shape
        if shape.kind == "churn":
            for _ in range(CHURN_WARMUP_BURSTS):
                yield self._churn_burst()
            return
        if shape.kind == "nat-replies":
            forward = [(0, flow.frame()) for flow in self._flows]
            for i in range(0, len(forward), BURST):
                yield forward[i : i + BURST]
            missing = len(self._flows) - len(self._external)
            if missing:
                raise RuntimeError(f"{missing} flows got no external endpoint")
        self._lap = self._build_lap()
        yield from self._lap

    def observe(self, outputs: List[Frame]) -> None:
        """Harvest external endpoints from frames leaving the outer port."""
        if self.shape.kind != "nat-replies" or self._lap:
            return
        for port, frame in outputs:
            if port != 1:
                continue
            packet = Packet.from_bytes(frame)
            key = (packet.ipv4.protocol, packet.ipv4.dst_ip, packet.l4.dst_port)
            self._external[key] = (packet.ipv4.src_ip, packet.l4.src_port)

    def _build_lap(self) -> List[Burst]:
        """Every flow equally often in both directions, order shuffled."""
        per_direction = LAP_BURSTS * BURST // (2 * len(self._flows))
        pool: List[Frame] = []
        for flow in self._flows:
            if self.shape.kind == "nat-replies":
                external = self._external[(flow.proto, flow.dst_ip, flow.dst_port)]
            else:  # both-ways: the far end answers the near end directly
                external = (flow.src_ip, flow.src_port)
            pool += [(0, flow.frame())] * per_direction
            pool += [(1, flow.frame(reverse_to=external))] * per_direction
        self._rng.shuffle(pool)
        return [pool[i : i + BURST] for i in range(0, len(pool), BURST)]

    # -- phases 2 and 3: the timed stream --------------------------------------
    def segment(self, bursts: int) -> List[Burst]:
        """The next ``bursts`` bursts (whole laps when the schedule is stable)."""
        if self.stable:
            laps, rest = divmod(bursts, LAP_BURSTS)
            if rest:
                raise ValueError("stable segments are whole laps")
            return self._lap * laps
        return [self._churn_burst() for _ in range(bursts)]

    def probe_frames(self, count: int) -> List[Tuple[int, Frame]]:
        """The next ``count`` frames for single-frame turns, each with the
        index of the lap burst it comes from (meaningless under churn)."""
        picked: List[Tuple[int, Frame]] = []
        while len(picked) < count:
            if self.stable:
                burst_index = self._probe_cursor // BURST % LAP_BURSTS
                frame = self._lap[burst_index][self._probe_cursor % BURST]
                picked.append((burst_index, frame))
                self._probe_cursor += 1
            else:
                picked += [(0, frame) for frame in self._churn_burst()]
        return picked[:count]

    def _churn_burst(self) -> Burst:
        fresh = [(0, self._new_flow().frame()) for _ in range(CHURN_NEW_PER_BURST)]
        self._recent.extend(fresh)
        burst = fresh + self._rng.choices(self._recent, k=BURST - len(fresh))
        self._rng.shuffle(burst)
        return burst
