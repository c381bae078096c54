"""The flight recorder: a bounded ring of per-packet trace events.

Inspired by hardware flight recorders and OVS's last-N-packets
tracing: the data path appends one compact event per interesting
per-packet step (rx, steer, slow-path, fastpath-hit, tx, drop — with a
reason code) and the ring keeps only the last N. :meth:`FlightRecorder.dump`
writes the retained events as JSON lines plus, for every event that
captured frame bytes, those packets as a standard pcap openable in
Wireshark.

The one ring the data paths write is the live recorder's
(:func:`repro.obs.recorder`): every runtime, chain stages included,
traces there and nowhere else. Recording is append-into-a-preallocated-
ring: one index increment and one tuple store per event; the event
objects are built on read. When observability is disabled the data
path never calls in here at all (see :mod:`repro.obs`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

# -- stages ------------------------------------------------------------------
RX = "rx"
STEER = "steer"
SLOW_PATH = "slow-path"
FASTPATH_HIT = "fastpath-hit"
TX = "tx"
DROP = "drop"
#: A flow delta shipped (or lost) on the replication channel.
REPLICATE = "replicate"
#: A failover step: worker kill detected, standby promoted, ownership moved.
FAILOVER = "failover"

STAGES = (RX, STEER, SLOW_PATH, FASTPATH_HIT, TX, DROP, REPLICATE, FAILOVER)

# -- drop reason codes ----------------------------------------------
REASON_NONE = ""
REASON_NF_DROP = "nf-drop"
REASON_RING_FULL = "rx-ring-full"
REASON_NO_MBUF = "rx-no-mbuf"
REASON_LINK_FAULT = "link-fault"
REASON_WORKER_KILL = "worker-kill"
REASON_REPLICATION_LOSS = "replication-loss"
#: A chain stage emitted on a device that maps to no neighbor or wire.
REASON_CHAIN_MISROUTE = "chain-misroute"


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One recorded per-packet step."""

    seq: int
    t_us: int
    worker: int
    stage: str
    reason: str = REASON_NONE
    detail: str = ""
    #: Raw frame bytes, when the call site chose to capture them.
    wire: Optional[bytes] = None

    def to_dict(self) -> Dict:
        data: Dict = {
            "seq": self.seq,
            "t_us": self.t_us,
            "worker": self.worker,
            "stage": self.stage,
        }
        if self.reason:
            data["reason"] = self.reason
        if self.detail:
            data["detail"] = self.detail
        if self.wire is not None:
            data["wire_len"] = len(self.wire)
        return data


class FlightRecorder:
    """Bounded ring buffer of trace events, dumpable to disk.

    The ring holds plain tuples; a :class:`TraceEvent` is built when
    someone reads (:meth:`last`, :meth:`dump`), never per packet. A
    call site that names a port or device passes the number as
    ``detail`` and the read renders it ``"port N"``.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        #: (t_us, worker, stage, reason, detail, wire) at slot seq % capacity.
        self._ring: List[Optional[tuple]] = [None] * capacity
        self._next_seq = 0
        self.dumps = 0

    # -- recording ----------------------------------------------------------
    def record(
        self,
        stage: str,
        t_us: int = 0,
        worker: int = 0,
        reason: str = REASON_NONE,
        detail: Union[str, int] = "",
        wire: Optional[bytes] = None,
    ) -> None:
        seq = self._next_seq
        self._ring[seq % self.capacity] = (t_us, worker, stage, reason, detail, wire)
        self._next_seq = seq + 1

    @property
    def recorded_total(self) -> int:
        """Events ever recorded (≥ the number still retained)."""
        return self._next_seq

    def __len__(self) -> int:
        return min(self._next_seq, self.capacity)

    def last(self, n: Optional[int] = None) -> List[TraceEvent]:
        """The most recent ``n`` (default: all retained) events, oldest first."""
        retained = len(self)
        if n is None or n > retained:
            n = retained
        events = []
        for seq in range(self._next_seq - n, self._next_seq):
            t_us, worker, stage, reason, detail, wire = self._ring[seq % self.capacity]
            if type(detail) is int:
                detail = f"port {detail}"
            events.append(TraceEvent(seq, t_us, worker, stage, reason, detail, wire))
        return events

    # -- dumping ------------------------------------------------------------
    def dump(self, directory, tag: str, reason: str) -> Dict[str, str]:
        """Write the retained events under ``directory``; returns paths.

        ``<tag>.trace.jsonl`` holds one JSON object per event (newest
        last) with a header line naming ``reason``; every event that
        captured frame bytes also lands in ``<tag>.pcap`` with its
        event time as the capture timestamp.
        """
        import pathlib

        from repro.packets.pcap import write_pcap_file

        directory = pathlib.Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        events = self.last()
        trace_path = directory / f"{tag}.trace.jsonl"
        lines = [json.dumps({"anomaly": reason, "events": len(events)})]
        lines.extend(json.dumps(event.to_dict()) for event in events)
        trace_path.write_text("\n".join(lines) + "\n")
        paths = {"trace": str(trace_path)}
        frames = [
            (event.t_us, event.wire) for event in events if event.wire is not None
        ]
        if frames:
            pcap_path = directory / f"{tag}.pcap"
            write_pcap_file(str(pcap_path), frames)
            paths["pcap"] = str(pcap_path)
        self.dumps += 1
        return paths


# -- differential trace diff -------------------------------------------------
@dataclass(frozen=True, slots=True)
class TraceDiff:
    """Where two differential replays first disagree."""

    index: int
    expected: Tuple[Tuple[bytes, int], ...]
    actual: Tuple[Tuple[bytes, int], ...]

    def render(self) -> str:
        def side(outputs: Tuple[Tuple[bytes, int], ...]) -> str:
            if not outputs:
                return "    (dropped)"
            return "\n".join(
                f"    dev {device}: {wire.hex()}" for wire, device in outputs
            )

        return "\n".join(
            [
                f"first divergence at packet #{self.index}:",
                "  expected (reference path):",
                side(self.expected),
                "  actual (path under test):",
                side(self.actual),
            ]
        )


def first_divergence(
    expected: Sequence[Sequence[Tuple[bytes, int]]],
    actual: Sequence[Sequence[Tuple[bytes, int]]],
) -> Optional[TraceDiff]:
    """The first per-packet output mismatch between two replays, if any.

    Inputs are parallel lists of per-packet outputs as (wire bytes,
    device) pairs — the shape the differential harnesses already
    compare. A length mismatch diverges at the first missing index.
    """
    for index in range(max(len(expected), len(actual))):
        want = tuple(tuple(o) for o in expected[index]) if index < len(expected) else ()
        got = tuple(tuple(o) for o in actual[index]) if index < len(actual) else ()
        if want != got:
            return TraceDiff(index=index, expected=want, actual=got)
    return None


__all__ = [
    "DROP",
    "FAILOVER",
    "FASTPATH_HIT",
    "REPLICATE",
    "RX",
    "SLOW_PATH",
    "STAGES",
    "STEER",
    "TX",
    "REASON_CHAIN_MISROUTE",
    "REASON_LINK_FAULT",
    "REASON_NF_DROP",
    "REASON_NO_MBUF",
    "REASON_NONE",
    "REASON_REPLICATION_LOSS",
    "REASON_RING_FULL",
    "REASON_WORKER_KILL",
    "FlightRecorder",
    "TraceDiff",
    "TraceEvent",
    "first_divergence",
]
