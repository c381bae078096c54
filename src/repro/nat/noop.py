"""No-op forwarding — the DPDK baseline NF (§6).

Receives on one port, transmits on the other, no inspection. Shows the
best latency/throughput the substrate can achieve; every NAT's extra cost
is measured against it.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.nat.base import NetworkFunction
from repro.packets.headers import Packet


class _NoopFastPathHooks:
    """Fast-path hooks for the stateless forwarder.

    No flow state exists, so no flow is ever freed (a learned action
    is good forever), expiry is a no-op and the learn token is a
    constant sentinel.
    """

    __slots__ = ("_nf",)
    supports_raw = True

    def __init__(self, nf: "NoopForwarder") -> None:
        self._nf = nf

    @staticmethod
    def on_flow_freed(observer) -> None:
        pass

    @staticmethod
    def begin_burst(now: int) -> int:
        return now

    @staticmethod
    def learn_token(packet: Packet) -> Optional[int]:
        return 0

    @staticmethod
    def rejuvenate(token: int, now: int) -> None:
        pass

    @staticmethod
    def apply(packet: Packet, action) -> Packet:
        out = packet.clone()
        out.device = action.out_device
        return out


class NoopForwarder(NetworkFunction):
    """Forward every packet to the paired device, untouched."""

    name = "noop"
    COUNTERS = {"forwarded": "_forwarded_total", **NetworkFunction.BURST_COUNTERS}

    def __init__(self, device_a: int = 0, device_b: int = 1) -> None:
        if device_a == device_b:
            raise ValueError("devices must differ")
        self.device_a = device_a
        self.device_b = device_b
        self._zero_counters()

    def process(self, packet: Packet, now: int) -> List[Packet]:
        out = packet.clone()
        if packet.device == self.device_a:
            out.device = self.device_b
        elif packet.device == self.device_b:
            out.device = self.device_a
        else:
            return []
        self._forwarded_total += 1
        return [out]

    def fastpath_hooks(self) -> _NoopFastPathHooks:
        return _NoopFastPathHooks(self)

    # -- checkpoint/restore ------------------------------------------------
    def checkpoint_state(self) -> Dict:
        """No flow state — only the counters, for seamless metrics."""
        return {"counters": self._declared_counters()}

    def restore_state(self, state: Dict) -> None:
        self._restore_counters(state)
