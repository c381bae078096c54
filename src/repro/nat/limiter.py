"""VigLimiter: a verified per-source rate limiter — the tutorial NF.

Fourth NF on libVig (see ``docs/TUTORIAL.md`` for a step-by-step
walkthrough of how it was built and verified). Policy:

- traffic entering on the protected ingress (device 0) is budgeted per
  source IP: each source may send at most ``max_packets`` packets per
  ``window`` (a fixed window: the budget entry expires ``window`` after
  the *first* packet and is **never refreshed** — unlike the NAT's idle
  timeout, traffic does not extend its own window);
- a source over budget is dropped; a new source when the table is full
  is dropped (fail closed);
- traffic in the other direction (device 1) passes through untouched.

Verification-wise the interesting bits are (a) the *absence* of
rejuvenation is itself a proven property (fixed window vs idle window),
and (b) the counter increment ``count + 1`` is only provably free of
u32 overflow because it sits under the ``count < max_packets`` guard —
remove the guard and P2 fails (see the mutation test).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Protocol, Set

from repro.libvig.double_chain import DoubleChain
from repro.libvig.map import Map
from repro.libvig.static_array import StaticArray
from repro.nat.concrete import ConcreteEnv, LibvigNf
from repro.packets.headers import ETHERTYPE_IPV4, FlowKey, Packet


@dataclass(frozen=True)
class LimiterConfig:
    """Static limiter configuration."""

    ingress_device: int = 0
    egress_device: int = 1
    capacity: int = 65_536  # distinct sources tracked concurrently
    window: int = 1_000_000  # microseconds (1 s fixed window)
    max_packets: int = 100  # budget per source per window

    def __post_init__(self) -> None:
        if self.ingress_device == self.egress_device:
            raise ValueError("devices must differ")
        if self.capacity <= 0 or self.window <= 0 or self.max_packets <= 0:
            raise ValueError("capacity, window and budget must be positive")


class LimiterEnv(Protocol):
    """The libVig + DPDK interface of the limiter's stateless code."""

    def current_time(self) -> Any: ...

    def expire_budgets(self, min_time: Any) -> None: ...

    def receive(self) -> Optional[Any]: ...

    def budget_get(self, src_ip: Any) -> Optional[Any]: ...  # index or None

    def budget_create(self, src_ip: Any, now: Any) -> Optional[Any]: ...

    def counter_read(self, index: Any) -> Any: ...

    def counter_bump(self, index: Any, new_value: Any) -> None: ...

    def forward(self, packet: Any, device: Any) -> None: ...

    def drop(self, packet: Any) -> None: ...


def limiter_loop_iteration(env: LimiterEnv, config: Any) -> None:
    """One loop iteration of the limiter; shared concrete/symbolic."""
    now = env.current_time()
    if now >= config.window:
        min_time = now - config.window + 1
    else:
        min_time = 0
    env.expire_budgets(min_time)

    packet = env.receive()
    if packet is None:
        return
    if packet.ethertype != ETHERTYPE_IPV4:
        env.drop(packet)
        return

    if packet.device == config.ingress_device:
        index = env.budget_get(packet.src_ip)
        if index is None:
            # First packet of the window: open a budget (fail closed
            # when the table is full — an unbudgeted source never
            # bypasses the limiter).
            index = env.budget_create(packet.src_ip, now)
            if index is None:
                env.drop(packet)
                return
            env.forward(packet, device=config.egress_device)
            return
        count = env.counter_read(index)
        if count < config.max_packets:
            # The guard bounds the increment: count + 1 <= max_packets,
            # so the u32 addition provably cannot wrap (P2).
            env.counter_bump(index, count + 1)
            env.forward(packet, device=config.egress_device)
        else:
            env.drop(packet)  # over budget for this window
    elif packet.device == config.egress_device:
        env.forward(packet, device=config.ingress_device)
    else:
        env.drop(packet)


class _ConcreteLimiterEnv(ConcreteEnv):
    """``LimiterEnv`` over the limiter's libVig budget table."""

    __slots__ = ()
    expire_budgets = ConcreteEnv.expire

    def budget_get(self, src_ip: int) -> Optional[int]:
        return self._nf._table.get(src_ip)

    def budget_create(self, src_ip: int, now: int) -> Optional[int]:
        index = self._nf._chain.allocate_new_index(now)
        if index is None:
            return None
        self._nf._adopt(index, (src_ip, 1))
        return index

    def counter_read(self, index: int) -> int:
        return self._nf._counters.get(index)

    def counter_bump(self, index: int, new_value: int) -> None:
        self._nf._bump(index, new_value)


#: Learn token of the pass-through direction: no budget to spend.
_EGRESS_TOKEN = -1


class VigLimiter(LibvigNf):
    """The verified per-source fixed-window rate limiter."""

    name = "verified-limiter"
    LOOP = staticmethod(limiter_loop_iteration)
    ENV = _ConcreteLimiterEnv
    ROWS = "budgets"
    LIFETIME = "window"

    def __init__(self, config: LimiterConfig | None = None) -> None:
        super().__init__(config if config is not None else LimiterConfig())
        self._table = Map(self.config.capacity + self.config.capacity // 8 + 1)
        self._chain = DoubleChain(self.config.capacity)
        self._counters = StaticArray(self.config.capacity)
        self._source_of: Dict[int, int] = {}
        #: One budget covers every 5-tuple its source sends, so the
        #: provider remembers per open budget the flow keys it issued
        #: tokens for: the actions to drop when it ends.
        self._issued: Dict[int, Set[FlowKey]] = {}

    def _expire(self, min_time: int) -> None:
        """The one expiry scan: close every window opened before ``min_time``."""
        ended = self._flow_freed
        while True:
            index = self._chain.expire_one_index(min_time)
            if index is None:
                return
            if ended is not None:
                ended(index)
            self._table.erase(self._source_of.pop(index))
            self._expired_total += 1

    def _bump(self, index: int, new_value: int) -> None:
        """The one place a budget is spent: slow path and fast path alike.

        The packet that takes the last of the budget also ends the
        source's cached actions, so the next one meets the slow path's
        ``count < max_packets`` test and drops.
        """
        self._counters.set(index, new_value)
        if new_value >= self.config.max_packets and self._flow_freed is not None:
            self._flow_freed(index)

    # -- the fast-path provider ---------------------------------------------
    def fastpath_hooks(self) -> "VigLimiter":
        """Opt into the microflow fast path (:mod:`repro.nat.fastpath`).

        A hit is "spend one packet", not "skip": the ingress token is
        the source's budget index and :meth:`rejuvenate` bumps its
        counter through :meth:`_bump` — the slow path's ``counter_bump``
        — which frees the source's actions the moment the count reaches
        ``max_packets``; :meth:`_expire` (the slow path's scan and
        ``begin_burst``'s) frees them when the fixed window closes. So a
        cached ingress action is always inside an open budget with
        packets left, and a hit checks nothing. A hit never refreshes
        the window: no rejuvenation is the limiter's proven property.
        The other direction is stateless pass-through — a sentinel
        token, nothing to spend, nothing that ends.
        """
        return self

    def learn_token(self, packet: Packet) -> Optional[int]:
        config = self.config
        if packet.device == config.egress_device:
            return _EGRESS_TOKEN
        key = packet.flow_key()
        if packet.device != config.ingress_device or key is None:
            return None
        index = self._table.get(key[2])  # the source address
        if index is None or self._counters.get(index) >= config.max_packets:
            return None  # no budget, or none left: the next packet drops
        # A set: asking again about a cached key changes nothing.
        self._issued.setdefault(index, set()).add(key)
        return index

    def _freed_keys(self, index: int):
        return self._issued.pop(index, ())

    def rejuvenate(self, token: int, now: int) -> None:
        if token != _EGRESS_TOKEN:
            self._bump(token, self._counters.get(token) + 1)

    def tracked_sources(self) -> int:
        """Number of sources with an open budget window."""
        return self._chain.size()

    def budget_used(self, src_ip: int) -> Optional[int]:
        """Packets this source has spent in its current window."""
        index = self._table.get(src_ip)
        if index is None:
            return None
        return self._counters.get(index)

    def op_counters(self) -> Dict[str, int]:
        return {"map_probes": self._table.stats.probes, **self._declared_counters()}

    # -- checkpoint rows: open budget windows -------------------------------
    def _row(self, index: int):
        return self._source_of[index], self._counters.get(index)

    def _parse_row(self, index: int, rest):
        """Sources must be distinct, spent counts within ``(0, max_packets]``."""
        src_ip, count = rest
        if not 0 < count <= self.config.max_packets:
            raise ValueError(
                f"source {src_ip} spent {count} of a "
                f"{self.config.max_packets}-packet budget"
            )
        return src_ip, (src_ip, count)

    def _adopt(self, index: int, budget) -> None:
        src_ip, count = budget
        self._table.put(src_ip, index)
        self._source_of[index] = src_ip
        self._counters.set(index, count)
