"""No-op forwarding — the DPDK baseline NF (§6).

Receives on one port, transmits on the other, no inspection. Shows the
best latency/throughput the substrate can achieve; every NAT's extra cost
is measured against it.
"""

from __future__ import annotations

from typing import Dict, List

from repro.nat.base import NetworkFunction
from repro.packets.headers import Packet


class NoopForwarder(NetworkFunction):
    """Forward every packet to the paired device, untouched.

    No fast-path provider: a wire-backed no-op forward costs less than
    one cache lookup (0.70-0.76x wrapped; ``docs/FASTPATH.md`` §3).
    """

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

    # -- checkpoint/restore ------------------------------------------------
    def checkpoint_state(self) -> Dict:
        """No flow state — only the counters, for seamless metrics."""
        return {"counters": self._declared_counters()}

    def restore_state(self, state: Dict) -> None:
        self._restore_counters(state)
