"""The limiter's proof: its model of the budget table and its specification.

This file is the worked example of ``docs/TUTORIAL.md``: everything a
new table-keeping NF writes on the proof side. The frame's fields, the
table's own operations on the skeleton's two call shapes
(:class:`~repro.verif.models.base.TableModel`), and the cases of the
specification template (:class:`~repro.verif.semantics.TableSemantics`).
Its contracts are four entries of :data:`repro.verif.contracts.CONTRACTS`
and its proof is one entry of :data:`repro.verif.proofs.PROOFS`.
"""

from __future__ import annotations

from typing import List, Optional

from repro.nat.limiter import LimiterConfig
from repro.packets.headers import ETHERTYPE_IPV4
from repro.verif.context import ExplorationContext
from repro.verif.expr import (
    TRUE,
    W8,
    W16,
    W32,
    BoolExpr,
    conj,
    const,
    disj,
    eq,
    implies,
    le,
    lt,
    negate,
)
from repro.verif.models.base import HavocedFrame, TableModel, record_send
from repro.verif.semantics import Obligation, TableSemantics, TraceIndex
from repro.verif.symbols import SymInt
from repro.verif.trace import SendRecord


class SymbolicIpPacket(HavocedFrame):
    """The havoced frame the limiter sees: ethertype, device, source IP."""

    FIELDS = (
        ("device", "pkt_device", W8),
        ("ethertype", "pkt_ethertype", W16),
        ("src_ip", "pkt_src_ip", W32),
    )


class SymbolicLimiterEnv(TableModel):
    """The ``LimiterEnv`` over a symbolic budget table instead of libVig."""

    SIZE = "budget_count"
    Frame = SymbolicIpPacket

    def __init__(self, ctx: ExplorationContext, config: LimiterConfig) -> None:
        super().__init__(ctx, config.capacity)

    expire_budgets = TableModel.expire_items

    def budget_get(self, src_ip) -> Optional[SymInt]:
        return self.lookup(
            "budget_get", {"src_ip": src_ip}, "budget_found", "budget_index"
        )

    def budget_create(self, src_ip, now) -> Optional[SymInt]:
        return self.allocate(
            "budget_create", {"src_ip": src_ip, "time": now}, "fresh_budget_index"
        )

    def counter_read(self, index) -> SymInt:
        with self.call("counter_read", {"index": index}) as scope:
            count = self.ctx.fresh("budget_used", W32)
            self.ctx.assume(count >= 1)  # a tracked source has spent >= 1
            scope.rets["count"] = count
        return count

    def counter_bump(self, index, value) -> None:
        with self.call("counter_bump", {"index": index, "value": value}):
            pass

    def forward(self, packet: SymbolicIpPacket, device) -> None:
        record_send(self.ctx, device, src_ip=packet.src_ip)


class LimiterSemantics(TableSemantics):
    """Fixed-window per-source budgeting as per-trace obligations."""

    name = "per-source fixed-window rate limiting"
    threshold_name = "window-threshold"
    config: LimiterConfig

    def lifetime(self) -> int:
        return self.config.window

    def invariants(self, t: TraceIndex) -> List[Obligation]:
        # Fixed-window semantics: the window is never extended, so the
        # limiter must never rejuvenate a budget entry.
        return [
            Obligation(
                "fixed-window-no-rejuvenation",
                TRUE,
                structural_ok=not any(
                    "rejuvenate" in call.fn for call in t.trace.calls
                ),
                detail="rejuvenation would turn the fixed window into an idle window",
            )
        ]

    def _arrival(self, t: TraceIndex):
        """``(ingress, egress, is_ipv4)`` of the received packet."""
        frame = t.recv.rets
        return (
            eq(frame["device"], const(self.config.ingress_device)),
            eq(frame["device"], const(self.config.egress_device)),
            eq(frame["ethertype"], const(ETHERTYPE_IPV4)),
        )

    def state_obligations(self, t: TraceIndex) -> List[Obligation]:
        cfg = self.config
        src_ip = t.recv.rets["src_ip"]
        lookup = t.first.get("budget_get")
        create = t.first.get("budget_create")
        read = t.first.get("counter_read")
        bump = t.first.get("counter_bump")
        obligations: List[Obligation] = []
        if create is not None:
            obligations.append(
                Obligation("create-binds-source", eq(create.args["src_ip"], src_ip))
            )
            if "success" in create.rets:
                obligations.append(
                    Obligation(
                        "create-only-with-room",
                        implies(
                            eq(create.rets["success"], const(1)),
                            lt(create.args["size"], const(cfg.capacity)),
                        ),
                    )
                )
            if t.now is not None:
                obligations.append(
                    Obligation(
                        "window-opens-at-arrival", eq(create.args["time"], t.now)
                    )
                )
            if lookup is not None:
                obligations.append(
                    Obligation(
                        "create-only-unknown", eq(lookup.rets["found"], const(0))
                    )
                )
        if bump is not None:
            assert read is not None
            obligations += [
                Obligation(
                    "bump-increments-by-one",
                    eq(bump.args["value"], read.rets["count"].add(const(1))),
                ),
                Obligation(
                    "bump-only-under-budget",
                    lt(read.rets["count"], const(cfg.max_packets)),
                ),
                Obligation(
                    "bump-targets-looked-up-entry",
                    eq(bump.args["index"], lookup.rets["index"])
                    if lookup is not None and "index" in lookup.rets
                    else TRUE,
                ),
            ]
        return obligations

    def forward_justified(self, t: TraceIndex, send: SendRecord) -> BoolExpr:
        cfg = self.config
        ingress, egress, is_ipv4 = self._arrival(t)
        create = t.first.get("budget_create")
        read = t.first.get("counter_read")
        within_budget: List[BoolExpr] = []
        if create is not None and "success" in create.rets:
            within_budget.append(eq(create.rets["success"], const(1)))
        if read is not None:
            within_budget.append(lt(read.rets["count"], const(cfg.max_packets)))
        unchanged = eq(send.src_ip, t.recv.rets["src_ip"])
        return disj(
            conj(
                ingress,
                is_ipv4,
                eq(send.device, const(cfg.egress_device)),
                unchanged,
                disj(*within_budget) if within_budget else TRUE,
            ),
            conj(
                egress,
                is_ipv4,
                eq(send.device, const(cfg.ingress_device)),
                unchanged,
            ),
        )

    def silence_justified(self, t: TraceIndex) -> BoolExpr:
        ingress, egress, is_ipv4 = self._arrival(t)
        create = t.first.get("budget_create")
        read = t.first.get("counter_read")
        drop_cases: List[BoolExpr] = [
            negate(is_ipv4),
            conj(negate(ingress), negate(egress)),
        ]
        if read is not None:
            drop_cases.append(
                conj(ingress, le(const(self.config.max_packets), read.rets["count"]))
            )
        if create is not None and "success" in create.rets:
            drop_cases.append(conj(ingress, eq(create.rets["success"], const(0))))
        return disj(*drop_cases)
