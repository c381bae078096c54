"""Abstract NAT state: the mathematical flow table of Fig. 6.

The specification never mentions hash tables or chains — its state is a
partial map from internal flow IDs to entries carrying a timestamp and
the allocated external port. Immutable, like all spec-level objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.nat.flow import FlowId


@dataclass(frozen=True)
class AbstractFlowEntry:
    """One flow-table entry G of Fig. 6."""

    external_port: int
    timestamp: int


@dataclass(frozen=True)
class AbstractNatState:
    """The spec's entire state: flow_table plus static configuration."""

    flows: Mapping[FlowId, AbstractFlowEntry] = field(default_factory=dict)
    capacity: int = 0

    def size(self) -> int:
        return len(self.flows)

    def has(self, flow_id: FlowId) -> bool:
        return flow_id in self.flows

    def entry(self, flow_id: FlowId) -> AbstractFlowEntry:
        return self.flows[flow_id]

    def with_flow(self, flow_id: FlowId, entry: AbstractFlowEntry) -> "AbstractNatState":
        updated = dict(self.flows)
        updated[flow_id] = entry
        return AbstractNatState(updated, self.capacity)

    def expire(self, now: int, expiration_time: int) -> "AbstractNatState":
        """Fig. 6 expire_flows: drop every G with timestamp + Texp <= t."""
        survivors = {
            fid: entry
            for fid, entry in self.flows.items()
            if entry.timestamp + expiration_time > now
        }
        return AbstractNatState(survivors, self.capacity)

    def allocated_ports(self) -> frozenset:
        """External ports currently bound to some flow."""
        return frozenset(entry.external_port for entry in self.flows.values())

    def flow_of_external_port(self, port: int) -> FlowId | None:
        """Internal flow ID owning ``port``, or None."""
        for fid, entry in self.flows.items():
            if entry.external_port == port:
                return fid
        return None
