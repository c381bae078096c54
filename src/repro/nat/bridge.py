"""VigBridge: a verified MAC-learning bridge — third NF on libVig.

A two-port transparent bridge (IEEE 802.1D learning/filtering, aging):

- *learn*: the source MAC is bound to the arrival port; a known station
  that moved ports is re-bound; when the table is full, new stations are
  simply not learned (they keep being flooded — never evict);
- *filter/forward*: a frame whose destination MAC is known **on the
  arrival port** is filtered (dropped); anything else — unknown,
  broadcast, or known on the other port — is forwarded out the other
  port, unchanged at every byte;
- *aging*: entries idle longer than the aging time expire.

Unlike the NAT and firewall this NF is layer-2 only (no IPv4 parsing at
all) and its table is single-keyed — exercising the toolchain on a
different state shape. As with the other NFs, the stateless logic is one
shared function run concretely here and symbolically by
the ``bridge`` entry of :data:`repro.verif.proofs.PROOFS`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Protocol

from repro.libvig.double_chain import DoubleChain
from repro.libvig.map import Map
from repro.nat.concrete import ConcreteEnv, LibvigNf

#: The all-ones broadcast address, as a 48-bit integer.
BROADCAST_MAC = (1 << 48) - 1

#: 802.1D default aging time: 300 seconds, in microseconds.
DEFAULT_AGING_TIME_US = 300_000_000


@dataclass(frozen=True)
class BridgeConfig:
    """Static bridge configuration."""

    device_a: int = 0
    device_b: int = 1
    capacity: int = 4_096
    aging_time: int = DEFAULT_AGING_TIME_US  # microseconds

    def __post_init__(self) -> None:
        if self.device_a == self.device_b:
            raise ValueError("bridge ports must differ")
        if self.capacity <= 0:
            raise ValueError("capacity must be positive")
        if self.aging_time <= 0:
            raise ValueError("aging time must be positive")

    def other(self, device: int) -> int:
        return self.device_b if device == self.device_a else self.device_a


class BridgeEnv(Protocol):
    """The libVig + DPDK interface of the bridge's stateless code."""

    def current_time(self) -> Any: ...

    def expire_entries(self, min_time: Any) -> None: ...

    def receive(self) -> Optional[Any]: ...  # frame view: device/src_mac/dst_mac

    def table_get(self, mac: Any) -> Optional[Any]: ...  # port or None

    def table_learn_new(self, mac: Any, device: Any, now: Any) -> None: ...

    def table_refresh(self, mac: Any, device: Any, now: Any) -> None: ...

    def table_has_room(self) -> Any: ...

    def forward(self, frame: Any, device: Any) -> None: ...

    def drop(self, frame: Any) -> None: ...


def bridge_loop_iteration(env: BridgeEnv, config: Any) -> None:
    """One loop iteration of the bridge; shared concrete/symbolic."""
    now = env.current_time()
    if now >= config.aging_time:
        min_time = now - config.aging_time + 1
    else:
        min_time = 0
    env.expire_entries(min_time)

    frame = env.receive()
    if frame is None:
        return
    if frame.device == config.device_a:
        out_device = config.device_b
    elif frame.device == config.device_b:
        out_device = config.device_a
    else:
        env.drop(frame)
        return

    # Learning: bind/refresh the source station to the arrival port.
    # Broadcast/multicast sources are malformed and never learned.
    if frame.src_mac != BROADCAST_MAC:
        known = env.table_get(frame.src_mac)
        if known is None:
            if env.table_has_room():
                env.table_learn_new(frame.src_mac, frame.device, now)
        else:
            env.table_refresh(frame.src_mac, frame.device, now)

    # Filtering/forwarding: only frames whose destination is known to
    # sit on the arrival port are filtered; all else goes out the other
    # port (known-other-port and unknown/flooded coincide on 2 ports).
    if frame.dst_mac != BROADCAST_MAC:
        location = env.table_get(frame.dst_mac)
        if location is not None:
            if location == frame.device:
                env.drop(frame)  # destination is on the same segment
                return
    env.forward(frame, device=out_device)


@dataclass
class _Station:
    mac: int
    device: int


class _ConcreteBridgeEnv(ConcreteEnv):
    """``BridgeEnv`` over the bridge's libVig station table."""

    __slots__ = ()
    expire_entries = ConcreteEnv.expire

    def table_get(self, mac: int) -> Optional[int]:
        return self._nf.port_of(mac)

    def table_has_room(self) -> bool:
        return self._nf._chain.size() < self._nf.config.capacity

    def table_learn_new(self, mac: int, device: int, now: int) -> None:
        index = self._nf._chain.allocate_new_index(now)
        assert index is not None  # guarded by table_has_room
        self._nf._adopt(index, _Station(mac=mac, device=device))

    def table_refresh(self, mac: int, device: int, now: int) -> None:
        bridge = self._nf
        index = bridge._table.get(mac)
        bridge._chain.rejuvenate_index(index, now)
        bridge._stations[index].device = device  # station may have moved


class VigBridge(LibvigNf):
    """The verified two-port learning bridge."""

    name = "verified-bridge"
    LOOP = staticmethod(bridge_loop_iteration)
    ENV = _ConcreteBridgeEnv
    ROWS = "stations"

    def __init__(self, config: BridgeConfig | None = None) -> None:
        super().__init__(config if config is not None else BridgeConfig())
        self._table = Map(self.config.capacity + self.config.capacity // 8 + 1)
        self._chain = DoubleChain(self.config.capacity)
        self._stations: Dict[int, _Station] = {}

    def _expire(self, min_time: int) -> None:
        """The one expiry scan: forget every station idle since ``min_time``."""
        while True:
            index = self._chain.expire_one_index(min_time)
            if index is None:
                return
            self._table.erase(self._stations.pop(index).mac)
            self._expired_total += 1

    def station_count(self) -> int:
        """Number of learned stations."""
        return self._chain.size()

    def port_of(self, mac: int) -> Optional[int]:
        """The port a MAC was learned on, or None."""
        index = self._table.get(mac)
        if index is None:
            return None
        return self._stations[index].device

    def op_counters(self) -> Dict[str, int]:
        return {"map_probes": self._table.stats.probes, **self._declared_counters()}

    # -- checkpoint rows: learned stations ----------------------------------
    def _row(self, index: int):
        station = self._stations[index]
        return station.mac, station.device

    def _parse_row(self, index: int, rest):
        """MACs must be distinct and bound to one of this bridge's two ports."""
        mac, device = rest
        valid_devices = (self.config.device_a, self.config.device_b)
        if device not in valid_devices:
            raise ValueError(
                f"station {mac:012x} bound to device {device}; this "
                f"bridge has ports {valid_devices}"
            )
        return f"{mac:012x}", _Station(mac=mac, device=device)

    def _adopt(self, index: int, station: _Station) -> None:
        self._table.put(station.mac, index)
        self._stations[index] = station
