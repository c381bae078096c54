"""Asynchronous flow-state replication: deltas, a lagged channel, a standby.

The active NF emits per-flow deltas through its ``delta_sink`` hook —
``create`` when a translation is allocated, ``touch`` on rejuvenation,
``free`` on expiry/eviction. A :class:`ReplicationChannel` ships them to
a :class:`StandbyReplica` with a configurable *lag*: the newest ``lag``
deltas are always in flight, modeling the asynchrony of a real
replication link. At failover time the in-flight deltas are exactly the
state the standby never saw — lag 0 means a synchronous channel and
zero established-flow loss on promotion.

The standby does not run a full NF: it mirrors the *abstract* flow state
(an insertion-ordered map of key → flow, exactly the LRU order both NAT
implementations maintain) and synthesizes a ``repro-ckpt/v1`` checkpoint
when its active dies, which a freshly constructed NF then restores.
Replication therefore reuses the checkpoint path end to end — one
serialization format, one set of validation rules — and the rebuild is
the one recovery primitive, :meth:`repro.net.dpdk.SteeringFront.recover`,
whose loss ledger is a :class:`FailoverReport`.

A shard buffers its NF's deltas for the turn; the front end publishes
them on the shard's channel after the turn. A process worker ships them
to the parent in its turn acknowledgement, in the form
:func:`pack_deltas` writes.
"""

from __future__ import annotations

import struct
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from repro.nat.config import NatConfig
from repro.nat.flow import Flow, FlowId
from repro.resil.checkpoint import Checkpoint

#: Delta operations, as emitted by ``NetworkFunction.delta_sink`` sinks.
OPS = ("create", "touch", "free")

#: One delta in a turn acknowledgement: op index, key, t_us, then the
#: created flow's 5-tuple and external port (zeros for touch and free).
_WIRE = struct.Struct(">BIqIHIHBH")
_COUNT = struct.Struct(">I")


@dataclass(frozen=True, slots=True)
class FlowDelta:
    """One incremental flow-state change.

    ``key`` is the NF's own flow handle (chain index for the verified
    NAT, external port for the unverified one); ``payload`` is the flow
    identity on ``create`` (a :class:`~repro.nat.flow.Flow` or
    :class:`~repro.nat.flow.FlowId`) and None otherwise.
    """

    op: str
    key: int
    payload: Any
    t_us: int


def pack_deltas(raws) -> bytes:
    """A turn's raw deltas, ``(op, key, payload, t_us)`` tuples, as bytes."""
    parts = [_COUNT.pack(len(raws))]
    for op, key, payload, t_us in raws:
        flow = (0, 0, 0, 0, 0, 0)
        if payload is not None:
            fid = getattr(payload, "internal_id", payload)
            flow = (
                fid.src_ip,
                fid.src_port,
                fid.dst_ip,
                fid.dst_port,
                fid.protocol,
                getattr(payload, "external_port", key),
            )
        parts.append(_WIRE.pack(OPS.index(op), key, t_us, *flow))
    return b"".join(parts)


def unpack_deltas(buf: bytes, offset: int) -> Tuple[List[tuple], int]:
    """The raw deltas :func:`pack_deltas` wrote at ``offset``, and the
    offset past them. A create's payload comes back as a
    :class:`~repro.nat.flow.Flow`, which both NATs' standbys read."""
    (count,) = _COUNT.unpack_from(buf, offset)
    start = offset + _COUNT.size
    end = start + count * _WIRE.size
    raws = []
    for op, key, t_us, *fid, port in _WIRE.iter_unpack(buf[start:end]):
        payload = Flow(FlowId(*fid), port) if op == 0 else None
        raws.append((OPS[op], key, payload, t_us))
    return raws, end


@dataclass
class FailoverReport:
    """The loss ledger of one recovery: a dead shard rebuilt alone."""

    worker: int
    killed_at_us: int
    detected_at_us: int
    #: Measured wall time from detection until the rebuilt shard
    #: answered, microseconds.
    recovery_us: int
    #: Flows the dead shard held: its standby's keys after the deltas
    #: lost at the cut. Without a standby the parent knows the shard only
    #: at its fence, so this reads the fence's flows.
    flows_at_kill: int
    #: Flows the rebuilt shard holds.
    flows_recovered: int
    #: Flows the dead shard held that the standby never learned of
    #: (their deltas were in flight when the channel was cut).
    flows_lost: int
    #: In-flight deltas destroyed with the channel (creates, touches
    #: and frees — a superset of ``flows_lost``'s causes).
    deltas_lost: int
    #: Frames queued for the dead worker, lost with it.
    packets_lost_queue: int


class ReplicationChannel:
    """A FIFO delta stream with a fixed in-flight window (the lag).

    ``lag`` is the number of most-recent deltas still in transit at any
    moment; :meth:`drain` delivers everything older. On failover the
    channel is cut: :meth:`lost_in_flight` reports (and discards) the
    deltas the standby will never receive.
    """

    def __init__(self, lag: int = 0) -> None:
        if lag < 0:
            raise ValueError("replication lag cannot be negative")
        self.lag = lag
        self._in_flight: Deque[FlowDelta] = deque()
        self.published_total = 0
        self.delivered_total = 0
        self.lost_total = 0

    def publish(self, delta: FlowDelta) -> List[FlowDelta]:
        """Enqueue a delta; returns the deltas that complete transit."""
        self._in_flight.append(delta)
        self.published_total += 1
        delivered = []
        while len(self._in_flight) > self.lag:
            delivered.append(self._in_flight.popleft())
        self.delivered_total += len(delivered)
        return delivered

    def drain(self) -> List[FlowDelta]:
        """Deliver everything, as after a clean synchronization barrier."""
        delivered = list(self._in_flight)
        self._in_flight.clear()
        self.delivered_total += len(delivered)
        return delivered

    def lost_in_flight(self) -> List[FlowDelta]:
        """Cut the channel: the in-flight deltas are lost, not delivered."""
        lost = list(self._in_flight)
        self._in_flight.clear()
        self.lost_total += len(lost)
        return lost

    def in_flight_count(self) -> int:
        return len(self._in_flight)


class StandbyReplica:
    """A passive mirror of one NF's abstract flow state, fed by deltas.

    Supports the two NATs with delta emission: ``verified-nat`` (keys
    are chain indices; the mirrored order *is* the double chain's age
    order) and ``unverified-nat`` (keys are external ports; the order is
    the LRU dict's). :meth:`to_checkpoint` rebuilds the NF-specific
    checkpoint payload from the mirror.
    """

    def __init__(self, nf_name: str, config: NatConfig) -> None:
        if nf_name not in ("verified-nat", "unverified-nat"):
            raise ValueError(
                f"standby replication is not supported for NF {nf_name!r}"
            )
        self.nf_name = nf_name
        self.config = config
        # key -> [fid_fields, external_port, last_touch_us], LRU order.
        self._flows: "OrderedDict[int, list]" = OrderedDict()
        self._last_t_us = 0
        self.applied_total = 0
        self.out_of_order_total = 0

    def flow_count(self) -> int:
        return len(self._flows)

    def apply(self, delta: FlowDelta) -> None:
        """Mirror one delta. Unknown keys on touch/free are tolerated —
        they refer to flows whose create was emitted before this replica
        attached (or to a free the active re-emitted); losing a touch
        only ages the flow early, never corrupts state."""
        self.applied_total += 1
        self._last_t_us = max(self._last_t_us, delta.t_us)
        if delta.op == "create":
            payload = delta.payload
            fid = getattr(payload, "internal_id", payload)
            port = getattr(payload, "external_port", delta.key)
            if self.nf_name == "unverified-nat":
                port = delta.key
            # A reused key (its free was in flight when the create
            # arrived) must move to the back — assignment alone would
            # keep the old position and break the mirrored age order.
            self._flows.pop(delta.key, None)
            self._flows[delta.key] = [
                [fid.src_ip, fid.src_port, fid.dst_ip, fid.dst_port, fid.protocol],
                port,
                delta.t_us,
            ]
        elif delta.op == "touch":
            row = self._flows.get(delta.key)
            if row is None:
                self.out_of_order_total += 1
                return
            row[2] = delta.t_us
            self._flows.move_to_end(delta.key)
        elif delta.op == "free":
            if self._flows.pop(delta.key, None) is None:
                self.out_of_order_total += 1
        else:
            raise ValueError(f"unknown delta op {delta.op!r}")

    def apply_all(self, deltas) -> None:
        for delta in deltas:
            self.apply(delta)

    def adopt(self, state: Dict) -> None:
        """Mirror a checkpoint payload outright (the inverse of
        :meth:`_state_dict`): what the standby of a just-restored
        active holds, whatever it had mirrored before."""
        self._flows.clear()
        if self.nf_name == "verified-nat":
            for key, touched, fid_fields, port in state.get("flows", []):
                self._flows[key] = [list(fid_fields), port, touched]
        else:
            for last_seen, fid_fields, port in state.get("flows", []):
                self._flows[port] = [list(fid_fields), port, last_seen]
        self._last_t_us = max(
            [int(state.get("last_now_us", 0))]
            + [row[2] for row in self._flows.values()]
        )

    # -- promotion ---------------------------------------------------------
    def _state_dict(self) -> Dict:
        if self.nf_name == "verified-nat":
            flows = [
                [key, row[2], row[0], row[1]]
                for key, row in self._flows.items()
            ]
            return {
                "flows": flows,
                "last_now_us": self._last_t_us,
            }
        # unverified-nat: rows are [last_seen, fid_fields, port] in LRU
        # order. The replica cannot see the ad-hoc allocator's internals,
        # so it resumes the bump allocator past every port it has ever
        # mirrored — ports in gaps are simply never reused, which keeps
        # uniqueness (the property that matters) without the free list.
        flows = [
            [row[2], row[0], row[1]] for row in self._flows.values()
        ]
        next_port = self.config.start_port
        if self._flows:
            next_port = max(row[1] for row in self._flows.values()) + 1
        return {
            "flows": flows,
            "next_port": next_port,
            "free_ports": [],
        }

    def to_checkpoint(self, now_us: Optional[int] = None) -> Checkpoint:
        """Synthesize the checkpoint a promotion restores from."""
        from dataclasses import asdict

        return Checkpoint(
            nf=self.nf_name,
            taken_at_us=self._last_t_us if now_us is None else now_us,
            config=asdict(self.config),
            state=self._state_dict(),
        )

    def established_keys(self) -> Tuple[int, ...]:
        """The flow keys this replica currently holds (for loss accounting)."""
        return tuple(self._flows)

    def keys_after(self, deltas) -> Set[int]:
        """The keys this replica would hold had ``deltas`` arrived: what
        its active held when the channel was cut."""
        keys = set(self._flows)
        for delta in deltas:
            if delta.op == "create":
                keys.add(delta.key)
            elif delta.op == "free":
                keys.discard(delta.key)
        return keys


__all__ = [
    "OPS",
    "FailoverReport",
    "FlowDelta",
    "ReplicationChannel",
    "StandbyReplica",
    "pack_deltas",
    "unpack_deltas",
]
