"""The concrete half of a verified NF, written once.

The paper's §9 claim is that libVig amortises across NFs: a new NF is a
stateless ``*_loop_iteration`` plus a thin binding to the library. The
proof side of that binding is :mod:`repro.verif` (one symbolic table
skeleton, one contract registry); this module is the deployed side —
what :class:`~repro.nat.vignat.VigNat`,
:class:`~repro.nat.firewall.VigFirewall`,
:class:`~repro.nat.limiter.VigLimiter`,
:class:`~repro.nat.bridge.VigBridge` and
:class:`~repro.nat.cgnat.DetNat` do identically:

- :class:`PacketView` — the fields of a real packet, as the stateless
  code reads them;
- :class:`ConcreteEnv` — the clock, packet I/O and the amortised expiry
  scan of an env; an NF's own env adds only its table operations;
- :class:`LibvigNf` — *the* turn: clamp the clock, bind one env per
  burst, run ``LOOP``. ``LOOP`` is the very function object the NF's
  proof explores (``tests/integration/test_end_to_end.py`` holds every
  proof to that), so "the code that runs is the code that was verified"
  is established here, for every NF at once.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

from repro.nat.base import NetworkFunction
from repro.nat.compiled import compile_action
from repro.nat.flow import FlowId, flow_id_of_packet
from repro.nat.rewrite import rewrite_destination, rewrite_source
from repro.packets.headers import Packet


class PacketView:
    """Adapter exposing a concrete packet's fields to the stateless code."""

    __slots__ = ("packet", "_flow_id")

    def __init__(self, packet: Packet) -> None:
        self.packet = packet
        self._flow_id = None

    @property
    def ethertype(self) -> int:
        return self.packet.eth.ethertype

    @property
    def protocol(self) -> int:
        # A non-IPv4 packet never reaches the protocol check (the
        # stateless code tests ethertype first), but return a harmless
        # value for robustness.
        return self.packet.ipv4.protocol if self.packet.ipv4 is not None else 0

    @property
    def device(self) -> int:
        return self.packet.device

    @property
    def src_mac(self) -> int:
        return int.from_bytes(self.packet.eth.src, "big")

    @property
    def dst_mac(self) -> int:
        return int.from_bytes(self.packet.eth.dst, "big")

    @property
    def src_ip(self) -> int:
        assert self.packet.ipv4 is not None
        return self.packet.ipv4.src_ip

    @property
    def dst_ip(self) -> int:
        assert self.packet.ipv4 is not None
        return self.packet.ipv4.dst_ip

    @property
    def src_port(self) -> int:
        return self.packet.src_port

    @property
    def dst_port(self) -> int:
        return self.packet.dst_port

    def flow_id(self) -> FlowId:
        if self._flow_id is None:  # extracted once, however often asked
            self._flow_id = flow_id_of_packet(self.packet)
        return self._flow_id


class ConcreteEnv:
    """Binds stateless NF logic to real packet I/O and the NF's counters.

    One env serves a whole burst: :meth:`rebind` points it at the next
    packet, and the expiry scan runs only on the first loop iteration —
    the stateless code still *requests* expiry every iteration (its
    verified structure is untouched), but within one burst all packets
    share one timestamp, so rescanning would find nothing to expire.

    A subclass aliases :meth:`expire` to the name its loop calls
    (``expire_flows = ConcreteEnv.expire``) and adds its table
    operations over ``self._nf``; a flow table's get and create record
    the index they resolved in ``index``.
    """

    __slots__ = ("_nf", "_packet", "_now", "_expiry_done", "outputs", "index")

    def __init__(self, nf, packet: Packet, now: int = 0) -> None:
        self._nf = nf
        self._packet = packet
        self._now = now
        self._expiry_done = False
        self.outputs: List[Packet] = []
        self.index = None

    def rebind(self, packet: Packet) -> None:
        """Point the env at the next packet of the burst."""
        self._packet = packet
        self.outputs = []

    def current_time(self) -> int:
        return self._now

    def expire(self, min_time: int) -> None:
        nf = self._nf
        if self._expiry_done:
            nf._expiry_scans_amortized += 1
            return
        self._expiry_done = True
        nf._expire(min_time)

    def receive(self) -> PacketView:
        return PacketView(self._packet)

    def forward(self, packet: PacketView, device: int) -> None:
        out = packet.packet.clone()
        out.device = device
        self.outputs.append(out)
        self._nf._forwarded_total += 1

    def emit(
        self,
        packet: PacketView,
        device: int,
        src_ip: int,
        src_port: int,
        dst_ip: int,
        dst_port: int,
    ) -> None:
        out = packet.packet.clone()
        if (src_ip, src_port) != (packet.src_ip, packet.src_port):
            rewrite_source(out, src_ip, src_port)
        if (dst_ip, dst_port) != (packet.dst_ip, packet.dst_port):
            rewrite_destination(out, dst_ip, dst_port)
        out.device = device
        self.outputs.append(out)
        self._nf._forwarded_total += 1

    def drop(self, packet: PacketView) -> None:
        self._nf._dropped_total += 1


class LibvigNf(NetworkFunction):
    """A verified NF over libVig state: its loop, its env, its table.

    A subclass names ``LOOP`` (``staticmethod(<its>_loop_iteration)``)
    and ``ENV`` (its :class:`ConcreteEnv`), builds its table and a
    ``self._chain`` (the :class:`~repro.libvig.double_chain.DoubleChain`
    that ages it), and writes ``_expire(min_time)`` — the one expiry
    scan, the slow path's and the fast path's — plus its checkpoint
    rows: ``ROWS``, ``_row``, ``_parse_row``, ``_adopt``.

    A table NF is also most of a fast-path provider
    (``docs/FASTPATH.md`` §3). The fast path must keep the table's
    *observable* behavior identical to an all-slow-path run: the
    per-burst expiry scan still happens (:meth:`begin_burst` — once per
    burst, exactly what :class:`ConcreteEnv` amortises) and every hit
    rejuvenates its entry, or sustained fast-path traffic would let live
    flows expire. A subclass opts in by naming ``LIFETIME``, answering
    ``fastpath_hooks()`` with itself and writing ``_lookup(packet)`` (or
    ``learn_token``) and ``_freed_keys(index)``; its ``_expire`` hands
    ``_flow_freed`` to the scan as the per-index observer, called
    *before* the entry is erased — still readable, its index and port
    not yet reallocated.
    """

    LOOP: Callable[..., None]
    ENV: type
    #: The checkpoint key the table's rows travel under.
    ROWS: str
    #: Provider half: the config field holding an entry's lifetime.
    LIFETIME: str
    #: Provider half: the slow path rewrites through the shared helpers,
    #: so its actions compile to the RFC shape.
    compile = staticmethod(compile_action)

    COUNTERS = {
        "expired": "_expired_total",
        "dropped": "_dropped_total",
        "forwarded": "_forwarded_total",
        "expiry_scans_amortized": "_expiry_scans_amortized",
        "clock_clamped": "_clock_clamped",
        **NetworkFunction.BURST_COUNTERS,
    }

    def __init__(self, config) -> None:
        self.config = config
        self._zero_counters()
        self._last_now = 0
        #: The microflow cache's per-index entry-freed observer (set
        #: through :meth:`on_flow_freed`); None when unwrapped.
        self._flow_freed = None
        #: ``(packet, index)``: the index the last :meth:`process` resolved,
        #: until :meth:`learn_token` takes it or the table may change.
        self._handover = None

    def _clamp_now(self, now: int) -> int:
        """Monotonic clock at the concrete-env boundary.

        libVig's double chain keeps timestamps non-decreasing and raises
        :class:`~repro.libvig.double_chain.TimeRegression` on violation —
        correct for the library, but a backwards hardware timestamp must
        not crash an NF's data path (P2 is a crash-freedom proof). A
        regressing ``now`` is clamped to the newest time already seen,
        the same defense ``rte_get_timer_cycles`` wrappers apply.
        """
        if now < self._last_now:
            self._clock_clamped += 1
            return self._last_now
        self._last_now = now
        return now

    @property
    def clock(self) -> int:
        """The newest time seen: any earlier ``now`` is clamped to it."""
        return self._last_now

    # -- the packet path: the shared stateless logic over libVig ------------
    def process(self, packet: Packet, now: int) -> List[Packet]:
        """One loop iteration: expire, update, forward (Fig. 6)."""
        env = self.ENV(self, packet, self._clamp_now(now))
        self.LOOP(env, self.config)
        self._handover = (packet, env.index)
        return env.outputs

    def process_burst(
        self, packets: Sequence[Packet], now: int
    ) -> List[List[Packet]]:
        """One RX burst through the loop, expiry scanned once for all.

        All packets of a burst share one receive timestamp (one
        ``rte_rdtsc`` read per main-loop turn, as VigNAT's C loop does),
        so the expiry scan on the first iteration already covers the
        rest; the shared env suppresses the redundant rescans and counts
        them as ``expiry_scans_amortized``.
        """
        now = self._clamp_now(now)
        self._note_burst(len(packets))
        self._handover = None
        if not packets:
            return []
        env = self.ENV(self, packets[0], now)
        loop, config = self.LOOP, self.config
        results: List[List[Packet]] = []
        for packet in packets:
            env.rebind(packet)
            loop(env, config)
            results.append(env.outputs)
        return results

    # -- the fast-path provider half (see the class docstring) ---------------
    def on_flow_freed(self, observer) -> None:
        # Built once, not per burst: expiry hands out indices, the
        # cache wants the dying entry's keys.
        freed_keys = self._freed_keys

        def flow_freed(index: int) -> None:
            observer(freed_keys(index))

        self._flow_freed = flow_freed

    def begin_burst(self, now: int) -> int:
        """The burst's one scan, under the clamped, underflow-free
        threshold every ``*_loop_iteration`` computes (P2 requires the
        guard): the oldest timestamp still alive at ``now``."""
        now = self._clamp_now(now)
        lifetime = getattr(self.config, self.LIFETIME)
        self._handover = None
        self._expire(now - lifetime + 1 if now >= lifetime else 0)
        return now

    def learn_token(self, packet: Packet):
        """The index ``packet``'s flow holds, or None: the slow path's own
        lookup when it was ``packet``'s (``_handover``), else asked."""
        handover, self._handover = self._handover, None
        if handover is not None and handover[0] is packet:
            return handover[1]
        return self._lookup(packet)

    def rejuvenate(self, token: int, now: int) -> None:
        self._chain.rejuvenate_index(token, now)

    # -- checkpoint/restore ------------------------------------------------
    def checkpoint_state(self) -> Dict:
        """The table's rows in chain age order, plus the counters.

        The chain's cell list *is* the abstract state the refinement
        contracts reason about; serializing in that order lets restore
        rebuild an identical chain (same LRU order, same free list).
        Every row is ``[index, touched, *self._row(index)]``.
        """
        return {
            self.ROWS: [
                [index, touched, *self._row(index)]
                for index, touched in self._chain.cells()
            ],
            # Free-index order is observable through what future
            # allocations pick; carrying it makes a restored NF replay
            # byte-identically. Standby-synthesized checkpoints omit it.
            "free_list": list(self._chain.free_list()),
            "counters": self._declared_counters(),
        }

    def _parse_rows(self, rows) -> List:
        """``(index, entry)`` per row, every row checked, nothing mutated.

        ``_parse_row(index, rest)`` answers ``(key, entry)`` for the
        row ``[index, touched, *rest]`` or raises ``ValueError``; keys
        must be distinct across the table.
        """
        seen = set()
        entries = []
        for index, _touched, *rest in rows:
            try:
                key, entry = self._parse_row(index, rest)
                repeated = key in seen
            except TypeError as exc:
                raise ValueError(f"{self.ROWS}: malformed row {rest!r}") from exc
            if repeated:
                raise ValueError(
                    f"{self.ROWS}: {key!r} appears twice in checkpoint"
                )
            seen.add(key)
            entries.append((index, entry))
        return entries

    def restore_state(self, state: Dict) -> None:
        """Rebuild libVig state from a checkpoint payload, validated first.

        All checks run before any structure is mutated: its shape (ints
        in lists), the NF's own per-row invariants and key uniqueness
        (:meth:`_parse_rows`), then the chain's — cells age-ordered with
        distinct in-range indices (:meth:`DoubleChain.restore_cells`).

        The restored clock (``_last_now``) is the checkpoint's when it
        carries one, floored at the newest row's timestamp — so a
        restore at an earlier wall time T' < T *clamps* forward instead
        of mass-expiring (thresholds are computed from the clamped
        clock) or tripping TimeRegression.
        """
        if self._chain.size():
            raise ValueError("restore_state requires a freshly constructed NF")
        rows = state.get(self.ROWS, [])
        counters = state.get("counters", {})
        if not (
            type(rows) is list
            and all(_ints(row, 2) and _ints(row[:2], 1) for row in rows)
            and _ints(state.get("free_list", []), 1)
            and type(state.get("last_now_us", 0)) is int
            and type(counters) is dict
            and _ints(list(counters.values()), 1)
        ):
            raise ValueError(f"malformed {type(self).__name__} checkpoint state")
        entries = self._parse_rows(rows)
        cells = [(row[0], row[1]) for row in rows]
        self._chain.restore_cells(cells, state.get("free_list"))
        self._handover = None
        for index, entry in entries:
            self._adopt(index, entry)
        newest = cells[-1][1] if cells else 0
        self._last_now = max(state.get("last_now_us", 0), newest)
        self._restore_counters(state)


def _ints(value, depth: int) -> bool:
    """A list of ints (never bools) or of such lists, ``depth`` deep."""
    return type(value) is list and all(
        type(item) is int or depth > 1 and _ints(item, depth - 1) for item in value
    )
