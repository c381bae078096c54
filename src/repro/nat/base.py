"""The common shape of a network function in this reproduction.

An NF consumes received packets at a simulated time and returns the
packets to transmit (each carries its output device in ``packet.device``).
Two entry points exist, as on real DPDK hardware:

- :meth:`NetworkFunction.process` — one packet at a time, the unit the
  paper's verification explores;
- :meth:`NetworkFunction.process_burst` — a whole RX burst at once, the
  unit a DPDK main loop actually delivers. NFs override it to amortize
  per-iteration work (flow expiry, environment setup) across the burst.

NFs additionally expose monotone operation counters that the testbed's
cost model turns into per-packet processing latency — the simulation
analogue of the CPU work a real DPDK NF performs. An NF declares them
once, as its :attr:`NetworkFunction.COUNTERS` table.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Sequence

from repro.packets.headers import Packet


class NetworkFunction(abc.ABC):
    """One packet (or burst) in, zero or more packets out, with visible work."""

    #: Human-readable name used in experiment reports.
    name: str = "nf"

    #: The counters this NF keeps as plain ints: ``op_counters()`` key →
    #: attribute, in reporting order. Declared once; zeroing,
    #: ``op_counters()``, a checkpoint's ``"counters"`` and
    #: ``restore_state`` all read this table.
    COUNTERS: Dict[str, str] = {}

    #: The burst-path entries (bursts seen, packets they carried) a
    #: burst-aware NF ends its table with.
    BURST_COUNTERS = {
        "bursts": "_bursts_total",
        "burst_packets": "_burst_packets_total",
    }

    # Class-level defaults so subclasses need not call ``__init__`` here;
    # the first increment shadows them with instance attributes.
    _bursts_total: int = 0
    _burst_packets_total: int = 0

    @abc.abstractmethod
    def process(self, packet: Packet, now: int) -> List[Packet]:
        """Handle one received packet at time ``now`` (microseconds).

        Returns the packets to transmit; an empty list means drop.
        """

    def process_burst(
        self, packets: Sequence[Packet], now: int
    ) -> List[List[Packet]]:
        """Handle a burst of packets received together at time ``now``.

        Returns one output list per input packet, parallel to
        ``packets``. The base implementation degrades to per-packet
        :meth:`process` calls; burst-aware NFs override it to run
        expiry and environment setup once per burst.
        """
        self._note_burst(len(packets))
        return [self.process(packet, now) for packet in packets]

    def _note_burst(self, size: int) -> None:
        self._bursts_total += 1
        self._burst_packets_total += size

    def _zero_counters(self) -> None:
        for attr in self.COUNTERS.values():
            setattr(self, attr, 0)

    def _declared_counters(self) -> Dict[str, int]:
        return {key: getattr(self, attr) for key, attr in self.COUNTERS.items()}

    def _restore_counters(self, state: Dict) -> None:
        """Adopt a checkpoint's ``"counters"``; a key it lacks reads 0."""
        saved = state.get("counters", {})
        for key, attr in self.COUNTERS.items():
            setattr(self, attr, int(saved.get(key, 0)))

    def op_counters(self) -> Dict[str, int]:
        """Monotone counters of abstract work done so far.

        The cost model charges latency per counter increment. The base
        implementation reports the declared :attr:`COUNTERS` — nothing
        for an NF that declares none, i.e. only its fixed per-packet
        cost applies; NFs with a derived entry (table probes) prepend it.
        """
        return self._declared_counters()

    def flow_count(self) -> int:
        """Live flow-state entries (0: an NF without a flow table)."""
        return 0

    def fastpath_hooks(self):
        """The fast-path provider (see :mod:`repro.nat.fastpath`): the
        NF itself when it implements the protocol, else None — and
        :func:`~repro.net.dpdk.build_nf` never wraps it: it takes its
        slow path, ``fastpath="compiled"`` or not.
        """
        return None

    # -- checkpoint/restore (see :mod:`repro.resil.checkpoint`) -----------
    def checkpoint_state(self) -> Dict:
        """This NF's mutable flow state as a JSON-serializable dict.

        The payload of a ``repro-ckpt/v1`` checkpoint. The base
        implementation reports an empty dict — correct for stateless
        NFs, whose whole behavior is determined by their configuration.
        """
        return {}

    def restore_state(self, state: Dict) -> None:
        """Adopt a :meth:`checkpoint_state` payload into this fresh NF.

        Implementations must validate the payload against their own
        invariants and raise ``ValueError`` (or a subclass) rather than
        apply inconsistent state. The base implementation accepts only
        the empty state a stateless NF produces.
        """
        if state:
            raise ValueError(
                f"{type(self).__name__} is stateless; checkpoint carries "
                f"unexpected state keys {sorted(state)}"
            )

    def delta_sink(self, sink) -> None:
        """Attach (or detach, with None) a per-flow delta observer.

        ``sink`` is called with ``(op, index, payload, t_us)`` tuples —
        ``op`` one of ``"create"``/``"touch"``/``"free"`` — as flow
        state changes; replication (:mod:`repro.resil.replication`)
        feeds standbys from it. Stateless NFs have nothing to emit, so
        the base implementation ignores the attachment.
        """

    def register_metrics(self, registry, labels=None) -> None:
        """Expose this NF's counters as callback metrics (collect-on-demand).

        The base implementation publishes every ``op_counters()`` entry
        as an ``nf_op_total`` sample labeled by operation and NF name —
        values are read live at snapshot time, so registration adds no
        per-packet work. Stateful NFs extend this with flow-table
        occupancy/expiry instruments.
        """
        base_labels = dict(labels or {})
        base_labels["nf"] = self.name
        for key in self.op_counters():
            registry.counter_fn(
                "nf_op_total",
                lambda k=key: self.op_counters().get(k, 0),
                "NF operation counters (see op_counters)",
                {**base_labels, "op": key},
            )
