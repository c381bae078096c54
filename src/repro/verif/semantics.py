"""Semantic trace properties: the P1 obligations woven into each trace.

The paper's Validator takes each symbolic trace and weaves in the NF's
specification as pre/post-conditions, producing a verification task per
trace (§5.2.2, Fig. 10). This module builds those obligations.

:class:`TraceIndex` is the one view of a trace every specification reads
(first call per function, ``now``, the received frame, entailment under
the path condition). :class:`TableSemantics` is the one template every
table-keeping NF's specification fills with its own cases::

    threshold → invariants → idle → state obligations → ≤1 send
              → forward-justified | silence-justified

- :class:`NatSemantics` — the RFC 3022 decision tree of Fig. 6 expressed
  over the trace's symbols: forwarded packets carry exactly the rewritten
  headers the spec mandates for their case, drops happen exactly when the
  spec mandates a drop, and the state updates (create/refresh/expire) use
  the right timestamps and ports. The external-packet security property
  ("unsolicited external traffic never creates state") is one of the
  structural obligations.
- :class:`FirewallSemantics` — the same flow-table discipline, no rewrite.
- :class:`DiscardSemantics` — the §3 example's property: no emitted
  packet targets port 9.

The bridge's and the limiter's specifications live beside their models
(:mod:`repro.verif.nf_env_bridge`, :mod:`repro.verif.nf_env_limiter`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Dict, List, Optional

from repro.nat.config import NatConfig
from repro.nat.discard import DISCARD_PORT
from repro.packets.headers import ETHERTYPE_IPV4, PROTO_TCP, PROTO_UDP
from repro.verif.expr import (
    BoolExpr,
    FALSE,
    IntExpr,
    TRUE,
    conj,
    const,
    disj,
    eq,
    le,
    lt,
    ne,
    negate,
)
from repro.verif.solver import Solver
from repro.verif.trace import CallRecord, PathTrace, SendRecord


@dataclass
class Obligation:
    """One provable fact a trace must satisfy (part of P1)."""

    name: str
    formula: BoolExpr
    #: False when the obligation failed structurally (e.g. two packets
    #: emitted where the spec allows at most one) — no proof attempted.
    structural_ok: bool = True
    detail: str = ""


class TraceIndex:
    """What a specification reads off one trace."""

    def __init__(self, trace: PathTrace) -> None:
        self.trace = trace
        self._solver = Solver(trace.widths)
        #: The first call to each traced function on this path.
        self.first: Dict[str, CallRecord] = {}
        for call in trace.calls:
            self.first.setdefault(call.fn, call)
        time_call = self.first.get("current_time")
        self.now: Optional[IntExpr] = (
            time_call.rets["now"] if time_call is not None else None
        )
        #: The ``receive`` call; its ``rets`` are the frame's fields.
        self.recv = self.first.get("receive")

    def entailed(self, goal: BoolExpr) -> bool:
        """True when the path condition proves ``goal``."""
        return self._solver.proves(self.trace.pc, goal)

    @property
    def idle(self) -> bool:
        """No frame arrived on this path."""
        return self.recv is None or self.entailed(
            eq(self.recv.rets["received"], const(0))
        )


class DiscardSemantics:
    """The discard NF's semantic property: never emit to port 9."""

    name = "discard protocol (RFC 863)"

    def obligations(self, trace: PathTrace) -> List[Obligation]:
        return [
            Obligation(
                name=f"send[{i}].dst_port != {DISCARD_PORT}",
                formula=ne(send.dst_port, const(DISCARD_PORT)),
            )
            for i, send in enumerate(trace.sends)
        ]


class TableSemantics:
    """The specification template of an NF that keeps one expiring table.

    A subclass names its specification, its expiry threshold and its
    silence obligation, says how long an entry lives, and fills in the
    three case hooks; the order of the obligations is the template's.
    """

    name: ClassVar[str]
    threshold_name: ClassVar[str] = "expiry-threshold"
    silence_name: ClassVar[str] = "drop-justified"

    def __init__(self, config: Any) -> None:
        #: The NF's configuration: the constants the cases compare with.
        self.config = config

    def lifetime(self) -> int:
        """Microseconds an untouched entry stays in the table."""
        raise NotImplementedError

    def invariants(self, t: TraceIndex) -> List[Obligation]:
        """Obligations that hold on every path, idle or not."""
        return []

    def state_obligations(self, t: TraceIndex) -> List[Obligation]:
        """What the path's table updates must satisfy."""
        raise NotImplementedError

    def forward_justified(self, t: TraceIndex, send: SendRecord) -> BoolExpr:
        """The cases in which emitting exactly ``send`` is right."""
        raise NotImplementedError

    def silence_justified(self, t: TraceIndex) -> BoolExpr:
        """The cases in which emitting nothing is right."""
        raise NotImplementedError

    def obligations(self, trace: PathTrace) -> List[Obligation]:
        t = TraceIndex(trace)
        obligations: List[Obligation] = []

        # Fig. 6 l.2: the expiration threshold is exactly t - Texp
        # (inclusive), clamped at zero.
        expire = t.first.get("expire_items")
        if expire is not None and t.now is not None:
            lifetime = const(self.lifetime())
            min_time = expire.args["min_time"]
            obligations.append(
                Obligation(
                    self.threshold_name,
                    disj(
                        conj(
                            le(lifetime, t.now),
                            eq(min_time, t.now.sub(lifetime).add(const(1))),
                        ),
                        conj(lt(t.now, lifetime), eq(min_time, const(0))),
                    ),
                )
            )
        obligations.extend(self.invariants(t))

        if t.idle:
            obligations.append(
                Obligation(
                    "silent-when-idle",
                    TRUE,
                    structural_ok=not trace.sends,
                    detail="no packet was received on this path",
                )
            )
            return obligations

        obligations.extend(self.state_obligations(t))

        if len(trace.sends) > 1:
            obligations.append(
                Obligation(
                    "at-most-one-send",
                    TRUE,
                    structural_ok=False,
                    detail=f"{len(trace.sends)} packets emitted for one arrival",
                )
            )
        elif trace.sends:
            justified = self.forward_justified(t, trace.sends[0])
            obligations.append(Obligation("forward-justified", justified))
        else:
            obligations.append(Obligation(self.silence_name, self.silence_justified(t)))
        return obligations


class NatSemantics(TableSemantics):
    """The RFC 3022 decision tree (Fig. 6) as per-trace obligations."""

    name = "RFC 3022 NAT semantics"
    config: NatConfig

    def lifetime(self) -> int:
        return self.config.expiration_time

    def _view(self, t: TraceIndex):
        """What every case reads: ``(internal, external, is_flow)`` of the
        received packet, then the internal-key lookup, the external-key
        lookup and the allocation (each None when the path made none)."""
        cfg = self.config
        frame = t.recv.rets
        is_flow = conj(
            eq(frame["ethertype"], const(ETHERTYPE_IPV4)),
            disj(
                eq(frame["protocol"], const(PROTO_TCP)),
                eq(frame["protocol"], const(PROTO_UDP)),
            ),
        )
        return (
            eq(frame["device"], const(cfg.internal_device)),
            eq(frame["device"], const(cfg.external_device)),
            is_flow,
            t.first.get("dmap_get_by_first_key"),
            t.first.get("dmap_get_by_second_key"),
            t.first.get("dchain_allocate_new_index"),
        )

    # -- state-update obligations (Fig. 6 ll.10-17) ----------------------------
    def state_obligations(self, t: TraceIndex) -> List[Obligation]:
        cfg = self.config
        internal, external, _, get_int, get_ext, alloc = self._view(t)
        put = t.first.get("dmap_put")
        rejuvenate = t.first.get("dchain_rejuvenate_index")
        now = t.now
        obligations: List[Obligation] = []

        if rejuvenate is not None and now is not None:
            obligations.append(
                Obligation(
                    "refresh-uses-arrival-time",
                    eq(rejuvenate.args["time"], now),
                )
            )
            found_index = None
            if get_int is not None and "index" in get_int.rets:
                found_index = get_int.rets["index"]
            elif get_ext is not None and "index" in get_ext.rets:
                found_index = get_ext.rets["index"]
            if found_index is not None:
                obligations.append(
                    Obligation(
                        "refresh-targets-matched-flow",
                        eq(rejuvenate.args["index"], found_index),
                    )
                )

        if rejuvenate is None:
            # Fig. 6 ll.10-12: a matched flow's timestamp must be
            # refreshed. Without a rejuvenate call, the path must be
            # provably a no-match path.
            for get in (get_int, get_ext):
                if get is not None:
                    obligations.append(
                        Obligation(
                            "match-implies-refresh",
                            eq(get.rets["found"], const(0)),
                        )
                    )

        if put is not None:
            # Creation is only legal for internal arrivals (the NAT's
            # security property: unsolicited external traffic never
            # creates state).
            obligations.append(Obligation("create-only-internal", internal))
            if now is not None and "time" in put.args:
                obligations.append(
                    Obligation("create-uses-arrival-time", eq(put.args["time"], now))
                )
            if "ext_port" in put.args:
                obligations.append(
                    Obligation(
                        "create-respects-port-rule",
                        eq(
                            put.args["ext_port"],
                            put.args["index"].add(const(cfg.start_port)),
                        ),
                    )
                )
            if alloc is not None and "index" in alloc.rets:
                obligations.append(
                    Obligation(
                        "create-uses-allocated-index",
                        eq(put.args["index"], alloc.rets["index"]),
                    )
                )
            obligations.append(
                Obligation(
                    "create-only-when-room",
                    lt(put.args["size"], const(cfg.max_flows)),
                )
            )
        elif t.entailed(external):
            obligations.append(
                Obligation(
                    "no-state-for-external",
                    TRUE,
                    structural_ok=alloc is None,
                    detail="external packets must not allocate flow state",
                )
            )
        return obligations

    # -- forwarding obligations (Fig. 6 ll.20-39) ---------------------------------
    def silence_justified(self, t: TraceIndex) -> BoolExpr:
        internal, external, is_flow, get_int, get_ext, alloc = self._view(t)
        drop_cases: List[BoolExpr] = [
            negate(is_flow),
            conj(negate(internal), negate(external)),
        ]
        if get_ext is not None:
            drop_cases.append(conj(external, eq(get_ext.rets["found"], const(0))))
        if get_int is not None and alloc is not None:
            drop_cases.append(
                conj(
                    internal,
                    eq(get_int.rets["found"], const(0)),
                    eq(alloc.rets["success"], const(0)),
                )
            )
        return disj(*drop_cases)

    def forward_justified(self, t: TraceIndex, send: SendRecord) -> BoolExpr:
        internal, external, is_flow, get_int, get_ext, alloc = self._view(t)
        cases: List[BoolExpr] = []
        if get_int is not None:
            # Outbound: the flow was matched, or was just created.
            admitted = eq(get_int.rets["found"], const(1))
            if alloc is not None:
                admitted = disj(
                    admitted,
                    conj(
                        eq(get_int.rets["found"], const(0)),
                        eq(alloc.rets["success"], const(1)),
                    ),
                )
            cases.append(
                conj(internal, is_flow, admitted, self._outbound_fields(t, send))
            )
        if get_ext is not None:
            # Inbound: only a matched flow lets a packet in.
            fields = self._inbound_fields(t, send)
            if fields is not None:
                cases.append(
                    conj(external, is_flow, eq(get_ext.rets["found"], const(1)), fields)
                )
        return disj(*cases) if cases else FALSE

    # -- the per-NF part: the output fields each direction mandates --------
    def _outbound_fields(self, t: TraceIndex, send: SendRecord) -> BoolExpr:
        """Fig. 6 ll.20-29: source rewritten to the external endpoint."""
        cfg = self.config
        packet = t.recv.rets
        out_fields = conj(
            eq(send.device, const(cfg.external_device)),
            eq(send.src_ip, const(cfg.external_ip)),
            eq(send.dst_ip, packet["dst_ip"]),
            eq(send.dst_port, packet["dst_port"]),
            eq(send.protocol, packet["protocol"]),
        )
        get_value = t.first.get("dmap_get_value")
        if get_value is not None:
            out_fields = conj(out_fields, eq(send.src_port, get_value.rets["ext_port"]))
        return out_fields

    def _inbound_fields(self, t: TraceIndex, send: SendRecord) -> Optional[BoolExpr]:
        """Fig. 6 ll.30-37: destination rewritten to the internal host;
        None (no inbound case) when the path never read the entry."""
        get_value = t.first.get("dmap_get_value")
        if get_value is None:
            return None
        packet = t.recv.rets
        return conj(
            eq(send.device, const(self.config.internal_device)),
            eq(send.src_ip, packet["src_ip"]),
            eq(send.src_port, packet["src_port"]),
            eq(send.dst_ip, get_value.rets["int_ip"]),
            eq(send.dst_port, get_value.rets["int_port"]),
            eq(send.protocol, packet["protocol"]),
        )


class FirewallSemantics(NatSemantics):
    """The connection-tracking firewall's semantic specification.

    Same flow-table discipline as the NAT (create only for internal
    arrivals when there is room, refresh on match, expire by idle time),
    but forwarding never rewrites a header: every field of the emitted
    packet equals the received one, only the device changes.
    """

    name = "stateful firewall semantics (allow outbound, track sessions)"

    def _preserved(self, t: TraceIndex, send: SendRecord) -> BoolExpr:
        packet = t.recv.rets
        return conj(
            eq(send.src_ip, packet["src_ip"]),
            eq(send.src_port, packet["src_port"]),
            eq(send.dst_ip, packet["dst_ip"]),
            eq(send.dst_port, packet["dst_port"]),
            eq(send.protocol, packet["protocol"]),
        )

    def _outbound_fields(self, t: TraceIndex, send: SendRecord) -> BoolExpr:
        return conj(
            self._preserved(t, send),
            eq(send.device, const(self.config.external_device)),
        )

    def _inbound_fields(self, t: TraceIndex, send: SendRecord) -> BoolExpr:
        return conj(
            self._preserved(t, send),
            eq(send.device, const(self.config.internal_device)),
        )
