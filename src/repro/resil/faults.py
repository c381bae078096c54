"""Composable fault injection for the simulated data path.

A :class:`FaultPlan` is an ordered set of :class:`Fault` windows —
link drop/corrupt/delay, network partition, mbuf-pool exhaustion,
worker kill/hang, clock skew — each scoped to a time window (µs, the
NF clock) and optionally to one worker. The plan is *consulted* by the
data path (:class:`repro.net.dpdk.SteeringFront`, the front end of
both sharded runtimes, and :class:`repro.net.link.LinkModel`) at its
natural choke points; a ``None`` plan keeps every consultation site on its original
code path, so runs without faults are byte-identical to runs on a tree
without this module.

Fault kinds and where they bite:

=============== ===========================================================
``link-drop``   wire → NIC boundary: the packet never reaches the RX ring
``partition``   same as drop, but total by convention (probability 1)
``link-corrupt`` the packet's L4 checksum is damaged in flight
``link-delay``  the packet's arrival timestamp slips by ``magnitude`` µs
``pool-exhaust`` ``magnitude`` mbufs of the worker's pool are seized
``worker-kill`` the worker dies until recovered; its queued packets are lost
``worker-hang`` the worker stops serving; its queued packets survive
``clock-skew``  the worker's ``now`` reads ``magnitude`` µs off true time
``reorder``     the packet swaps with its predecessor in the RX ring
=============== ===========================================================

``clock-skew`` with a negative magnitude drives the NF clock *backwards*
— exactly the regression the NATs' monotonic clamp absorbs — so the
harness can demonstrate the clamp under fault rather than only in unit
tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

KINDS = (
    "link-drop",
    "link-corrupt",
    "link-delay",
    "partition",
    "pool-exhaust",
    "worker-kill",
    "worker-hang",
    "clock-skew",
    "reorder",
)


@dataclass(frozen=True)
class Fault:
    """One fault window: a kind, when, where, and how hard."""

    kind: str
    start_us: int = 0
    end_us: Optional[int] = None  # None = until the end of the run
    worker: Optional[int] = None  # None = every worker
    magnitude: int = 0  # µs for delay/skew, buffers for pool-exhaust
    probability: float = 1.0  # per-packet chance for link faults

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.end_us is not None and self.end_us < self.start_us:
            raise ValueError("fault window ends before it starts")
        if not 0.0 < self.probability <= 1.0:
            raise ValueError("fault probability must be in (0, 1]")

    def active_at(self, t_us: int, worker: Optional[int] = None) -> bool:
        if t_us < self.start_us:
            return False
        if self.end_us is not None and t_us >= self.end_us:
            return False
        if (
            self.worker is not None
            and worker is not None
            and worker != self.worker
        ):
            return False
        return True


class FaultPlan:
    """An ordered, composable set of fault windows with seeded randomness.

    Builders chain::

        plan = (FaultPlan(seed=7)
                .kill_worker(worker=1, at_us=5_000)
                .link_drop(start_us=0, end_us=2_000, probability=0.01)
                .skew_clock(worker=0, start_us=3_000, end_us=4_000,
                            magnitude_us=-500))

    Consultations count what they applied in :attr:`applied`, so runs
    can report how much of each fault actually fired.
    """

    def __init__(self, seed: int = 4242) -> None:
        self.faults: List[Fault] = []
        self.seed = seed
        self._rng = random.Random(seed)
        self.applied: Dict[str, int] = {}

    # -- builders ----------------------------------------------------------
    def add(self, fault: Fault) -> "FaultPlan":
        self.faults.append(fault)
        return self

    def link_drop(
        self,
        start_us: int = 0,
        end_us: Optional[int] = None,
        worker: Optional[int] = None,
        probability: float = 1.0,
    ) -> "FaultPlan":
        return self.add(
            Fault("link-drop", start_us, end_us, worker, 0, probability)
        )

    def link_corrupt(
        self,
        start_us: int = 0,
        end_us: Optional[int] = None,
        worker: Optional[int] = None,
        probability: float = 1.0,
    ) -> "FaultPlan":
        return self.add(
            Fault("link-corrupt", start_us, end_us, worker, 0, probability)
        )

    def link_delay(
        self,
        magnitude_us: int,
        start_us: int = 0,
        end_us: Optional[int] = None,
        worker: Optional[int] = None,
    ) -> "FaultPlan":
        if magnitude_us < 0:
            raise ValueError("link delay cannot be negative")
        return self.add(
            Fault("link-delay", start_us, end_us, worker, magnitude_us)
        )

    def partition(
        self,
        start_us: int,
        end_us: Optional[int] = None,
        worker: Optional[int] = None,
    ) -> "FaultPlan":
        return self.add(Fault("partition", start_us, end_us, worker))

    def exhaust_pool(
        self,
        buffers: int,
        start_us: int = 0,
        end_us: Optional[int] = None,
        worker: Optional[int] = None,
    ) -> "FaultPlan":
        if buffers <= 0:
            raise ValueError("must seize at least one buffer")
        return self.add(
            Fault("pool-exhaust", start_us, end_us, worker, buffers)
        )

    def kill_worker(self, worker: int, at_us: int) -> "FaultPlan":
        """The worker dies at ``at_us``; only a recovery brings it back."""
        return self.add(Fault("worker-kill", at_us, None, worker))

    def hang_worker(
        self, worker: int, start_us: int, end_us: Optional[int] = None
    ) -> "FaultPlan":
        return self.add(Fault("worker-hang", start_us, end_us, worker))

    def skew_clock(
        self,
        magnitude_us: int,
        start_us: int = 0,
        end_us: Optional[int] = None,
        worker: Optional[int] = None,
    ) -> "FaultPlan":
        return self.add(
            Fault("clock-skew", start_us, end_us, worker, magnitude_us)
        )

    def reorder(
        self,
        start_us: int = 0,
        end_us: Optional[int] = None,
        worker: Optional[int] = None,
        probability: float = 1.0,
    ) -> "FaultPlan":
        """A reordering link: delivered packets swap with their
        predecessor in the RX ring with the given per-packet chance."""
        return self.add(
            Fault("reorder", start_us, end_us, worker, 0, probability)
        )

    def clear(
        self, kind: Optional[str] = None, worker: Optional[int] = None
    ) -> "FaultPlan":
        """Retire matching fault windows (both filters AND together).

        A recovery uses this after rebuilding a dead worker: its
        ``worker-kill`` window is cleared so the rebuilt worker is not
        killed again.
        """
        self.faults = [
            f
            for f in self.faults
            if not (
                (kind is None or f.kind == kind)
                and (worker is None or f.worker == worker)
            )
        ]
        return self

    # -- consultations -----------------------------------------------------
    def _note(self, kind: str, count: int = 1) -> None:
        self.applied[kind] = self.applied.get(kind, 0) + count

    def _fires(self, fault: Fault) -> bool:
        if fault.probability >= 1.0:
            return True
        return self._rng.random() < fault.probability

    def link_verdict(
        self, t_us: int, worker: Optional[int] = None
    ) -> Tuple[str, int]:
        """What the wire does to one packet: (verdict, delay_us).

        Verdict is ``"deliver"``, ``"drop"`` or ``"corrupt"``; delays
        from every active ``link-delay`` window accumulate and apply
        regardless of verdict (a dropped packet's delay is moot).
        """
        verdict = "deliver"
        delay_us = 0
        for fault in self.faults:
            if not fault.active_at(t_us, worker):
                continue
            if fault.kind in ("link-drop", "partition"):
                if verdict == "deliver" and self._fires(fault):
                    verdict = "drop"
                    self._note(fault.kind)
            elif fault.kind == "link-corrupt":
                if verdict == "deliver" and self._fires(fault):
                    verdict = "corrupt"
                    self._note(fault.kind)
            elif fault.kind == "link-delay":
                delay_us += fault.magnitude
                self._note(fault.kind)
        return verdict, delay_us

    def reorder_fires(self, t_us: int, worker: Optional[int] = None) -> bool:
        """Whether one just-delivered packet swaps with its ring
        predecessor. Consulted only for packets the wire delivered, so
        the seeded draw sequence is shared with :meth:`link_verdict`."""
        fired = False
        for fault in self.faults:
            if fault.kind != "reorder" or not fault.active_at(t_us, worker):
                continue
            if not fired and self._fires(fault):
                fired = True
                self._note("reorder")
        return fired

    def worker_killed(self, t_us: int, worker: int) -> bool:
        return any(
            f.kind == "worker-kill" and f.active_at(t_us, worker)
            for f in self.faults
        )

    def worker_hung(self, t_us: int, worker: int) -> bool:
        return any(
            f.kind == "worker-hang" and f.active_at(t_us, worker)
            for f in self.faults
        )

    def clock_skew_us(self, t_us: int, worker: int) -> int:
        """Net clock error for this worker at true time ``t_us``."""
        return sum(
            f.magnitude
            for f in self.faults
            if f.kind == "clock-skew" and f.active_at(t_us, worker)
        )

    def pool_seizure(self, t_us: int, worker: int) -> int:
        """Buffers that should be held hostage from this worker's pool."""
        return sum(
            f.magnitude
            for f in self.faults
            if f.kind == "pool-exhaust" and f.active_at(t_us, worker)
        )

    @property
    def empty(self) -> bool:
        return not self.faults

    @staticmethod
    def corrupt_packet(packet):
        """Wire corruption: a bit burst through the L4 checksum field.

        Damaging the checksum keeps the frame parseable (so it exercises
        the NF's validation path rather than the parser) while making it
        verifiably wrong — the canonical single-event upset.
        """
        out = packet.clone()
        if out.l4 is not None:
            out.l4.checksum ^= 0x5555
        elif out.ipv4 is not None:
            out.ipv4.checksum ^= 0x5555
        return out


__all__ = ["KINDS", "Fault", "FaultPlan"]
