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
from typing import Any, Dict, List, Optional, Protocol

from repro.libvig.double_chain import DoubleChain
from repro.libvig.map import Map
from repro.nat.base import NetworkFunction
from repro.packets.headers import Packet

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


class _FrameView:
    """Adapter exposing a concrete frame's fields to the stateless code."""

    __slots__ = ("packet",)

    def __init__(self, packet: Packet) -> None:
        self.packet = packet

    @property
    def device(self) -> int:
        return self.packet.device

    @property
    def src_mac(self) -> int:
        return int.from_bytes(self.packet.eth.src, "big")

    @property
    def dst_mac(self) -> int:
        return int.from_bytes(self.packet.eth.dst, "big")


@dataclass
class _Station:
    mac: int
    device: int


class _ConcreteBridgeEnv:
    """Binds the bridge logic to libVig and real frames."""

    def __init__(self, bridge: "VigBridge", packet: Packet, now: int) -> None:
        self._bridge = bridge
        self._packet = packet
        self._now = now
        self.outputs: List[Packet] = []

    def current_time(self) -> int:
        return self._now

    def expire_entries(self, min_time: int) -> None:
        bridge = self._bridge
        while True:
            index = bridge._chain.expire_one_index(min_time)
            if index is None:
                return
            station = bridge._stations.pop(index)
            bridge._table.erase(station.mac)
            bridge._expired_total += 1

    def receive(self) -> _FrameView:
        return _FrameView(self._packet)

    def table_get(self, mac: int) -> Optional[int]:
        index = self._bridge._table.get(mac)
        if index is None:
            return None
        return self._bridge._stations[index].device

    def table_has_room(self) -> bool:
        return self._bridge._chain.size() < self._bridge.config.capacity

    def table_learn_new(self, mac: int, device: int, now: int) -> None:
        bridge = self._bridge
        index = bridge._chain.allocate_new_index(now)
        assert index is not None  # guarded by table_has_room
        bridge._table.put(mac, index)
        bridge._stations[index] = _Station(mac=mac, device=device)

    def table_refresh(self, mac: int, device: int, now: int) -> None:
        bridge = self._bridge
        index = bridge._table.get(mac)
        bridge._chain.rejuvenate_index(index, now)
        bridge._stations[index].device = device  # station may have moved

    def forward(self, frame: _FrameView, device: int) -> None:
        out = frame.packet.clone()
        out.device = device
        self.outputs.append(out)
        self._bridge._forwarded_total += 1

    def drop(self, frame: _FrameView) -> None:
        self._bridge._dropped_total += 1


class VigBridge(NetworkFunction):
    """The verified two-port learning bridge."""

    name = "verified-bridge"

    def __init__(self, config: BridgeConfig | None = None) -> None:
        self.config = config if config is not None else BridgeConfig()
        self._table = Map(self.config.capacity + self.config.capacity // 8 + 1)
        self._chain = DoubleChain(self.config.capacity)
        self._stations: Dict[int, _Station] = {}
        self._expired_total = 0
        self._dropped_total = 0
        self._forwarded_total = 0

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
        return {
            "map_probes": self._table.stats.probes,
            "expired": self._expired_total,
            "dropped": self._dropped_total,
            "forwarded": self._forwarded_total,
        }

    def process(self, packet: Packet, now: int) -> List[Packet]:
        env = _ConcreteBridgeEnv(self, packet, now)
        bridge_loop_iteration(env, self.config)
        return env.outputs

    def checkpoint_state(self) -> Dict:
        """Learned stations in chain age order, plus counters."""
        stations = []
        for index, touched in self._chain.cells():
            station = self._stations[index]
            stations.append([index, touched, station.mac, station.device])
        return {
            "stations": stations,
            "free_list": list(self._chain.free_list()),
            "counters": {
                "expired": self._expired_total,
                "dropped": self._dropped_total,
                "forwarded": self._forwarded_total,
            },
        }

    def restore_state(self, state: Dict) -> None:
        """Rebuild the station table from a checkpoint, validated first.

        Checks run before any structure is mutated: MACs must be
        distinct and bound to one of this bridge's two ports, and the
        chain cells age-ordered with in-range indices (enforced by
        :meth:`DoubleChain.restore_cells`).
        """
        if self._chain.size() or self._stations:
            raise ValueError("restore_state requires a freshly constructed NF")
        cells = []
        entries = []
        seen = set()
        valid_devices = (self.config.device_a, self.config.device_b)
        for index, touched, mac, device in state.get("stations", []):
            if mac in seen:
                raise ValueError(f"MAC {mac:012x} appears twice in checkpoint")
            if device not in valid_devices:
                raise ValueError(
                    f"station {mac:012x} bound to device {device}; this "
                    f"bridge has ports {valid_devices}"
                )
            seen.add(mac)
            cells.append((index, touched))
            entries.append((index, _Station(mac=mac, device=device)))
        self._chain.restore_cells(cells, state.get("free_list"))
        for index, station in entries:
            self._table.put(station.mac, index)
            self._stations[index] = station
        counters = state.get("counters", {})
        self._expired_total = int(counters.get("expired", 0))
        self._dropped_total = int(counters.get("dropped", 0))
        self._forwarded_total = int(counters.get("forwarded", 0))
