"""The bridge's proof: its model of the station table and its specification.

The station table is single-keyed and a hit is a *port*, not a slot, so
the model adds three operations of its own to the table skeleton
(:class:`~repro.verif.models.base.TableModel`); everything else — the
havoced occupancy, the clock, aging, the adversarial frame — is the
skeleton's. The model is also the ``BridgeEnv`` the stateless code runs
against: no method needs translating between the two.
"""

from __future__ import annotations

from typing import List, Optional

from repro.nat.bridge import BROADCAST_MAC, BridgeConfig
from repro.verif.context import ExplorationContext
from repro.verif.expr import (
    W8,
    W48,
    BoolExpr,
    conj,
    const,
    disj,
    eq,
    le,
    lt,
    ne,
    negate,
)
from repro.verif.models.base import HavocedFrame, TableModel, record_send
from repro.verif.semantics import Obligation, TableSemantics, TraceIndex
from repro.verif.symbols import SymInt
from repro.verif.trace import SendRecord


class SymbolicFrame(HavocedFrame):
    """The havoced received frame: port and both MAC addresses."""

    FIELDS = (
        ("device", "frm_device", W8),
        ("src_mac", "frm_src_mac", W48),
        ("dst_mac", "frm_dst_mac", W48),
    )


class SymbolicBridgeEnv(TableModel):
    """The ``BridgeEnv`` over a symbolic station table instead of libVig."""

    SIZE = "station_count"
    RECEIVED = "frame_received"
    Frame = SymbolicFrame

    def __init__(self, ctx: ExplorationContext, config: BridgeConfig) -> None:
        super().__init__(ctx, config.capacity)
        self._lookups = 0

    expire_entries = TableModel.expire_items

    def table_get(self, mac) -> Optional[SymInt]:
        """Port the MAC is bound to, or None (branches on a flag)."""
        # The bridge looks up twice per frame (source, destination).
        self._lookups += 1
        tag = f"lookup{self._lookups}"
        return self.lookup(
            "bridge_table_get",
            {"mac": mac},
            flag=f"{tag}_found",
            hit=f"{tag}_device",
            ret="device",
            width=W8,
        )

    def table_has_room(self):
        return self.size_after_expiry < self.capacity

    def table_learn_new(self, mac, device, now) -> None:
        with self.call(
            "bridge_table_learn_new",
            {"mac": mac, "device": device, "time": now, "size": self.size_after_expiry},
        ):
            pass

    def table_refresh(self, mac, device, now) -> None:
        with self.call(
            "bridge_table_refresh", {"mac": mac, "device": device, "time": now}
        ):
            pass

    def forward(self, frame: SymbolicFrame, device) -> None:
        # Bridges do not touch headers: record MACs in the send record's
        # address fields (ips/ports are L3 concepts a bridge never sees).
        record_send(self.ctx, device, src_ip=frame.src_mac, dst_ip=frame.dst_mac)


class BridgeSemantics(TableSemantics):
    """802.1D learning/filtering/aging as per-trace obligations."""

    name = "802.1D learning bridge semantics"
    threshold_name = "aging-threshold"
    silence_name = "filter-justified"
    config: BridgeConfig

    def lifetime(self) -> int:
        return self.config.aging_time

    def _lookups(self, t: TraceIndex):
        """Which lookup served learning (source) and which filtering
        (destination); either is None when the path never made it."""
        frame = t.recv.rets
        lookups = [c for c in t.trace.calls if c.fn == "bridge_table_get"]
        src_lookup = next(
            (c for c in lookups if c.args["mac"] == frame["src_mac"]), None
        )
        dst_lookup = next(
            (
                c
                for c in lookups
                if c.args["mac"] == frame["dst_mac"] and c is not src_lookup
            ),
            None,
        )
        return src_lookup, dst_lookup

    def _known_port(self, t: TraceIndex):
        """``(on_a, on_b)``: the frame arrived on a bridged port."""
        device = t.recv.rets["device"]
        return (
            eq(device, const(self.config.device_a)),
            eq(device, const(self.config.device_b)),
        )

    # -- learning obligations (802.1D clause 7.8) ----------------------------
    def state_obligations(self, t: TraceIndex) -> List[Obligation]:
        cfg = self.config
        device = t.recv.rets["device"]
        src_mac = t.recv.rets["src_mac"]
        src_lookup, _ = self._lookups(t)
        learn_new = t.first.get("bridge_table_learn_new")
        refresh = t.first.get("bridge_table_refresh")
        obligations: List[Obligation] = []
        if learn_new is not None:
            obligations += [
                Obligation("learn-binds-source", eq(learn_new.args["mac"], src_mac)),
                Obligation(
                    "learn-binds-arrival-port", eq(learn_new.args["device"], device)
                ),
                Obligation(
                    "learn-only-with-room",
                    lt(learn_new.args["size"], const(cfg.capacity)),
                ),
                Obligation("learn-not-broadcast", ne(src_mac, const(BROADCAST_MAC))),
            ]
            if t.now is not None:
                obligations.append(
                    Obligation(
                        "learn-uses-arrival-time", eq(learn_new.args["time"], t.now)
                    )
                )
            if src_lookup is not None:
                obligations.append(
                    Obligation(
                        "learn-only-unknown", eq(src_lookup.rets["found"], const(0))
                    )
                )
        if refresh is not None:
            obligations.append(
                Obligation("refresh-binds-source", eq(refresh.args["mac"], src_mac))
            )
            if src_lookup is not None:
                obligations.append(
                    Obligation(
                        "refresh-only-known", eq(src_lookup.rets["found"], const(1))
                    )
                )
        if learn_new is None and refresh is None:
            # No learning happened: the source must be broadcast, the
            # port unknown, or the station unknown with the table full.
            cases = [
                eq(src_mac, const(BROADCAST_MAC)),
                negate(disj(*self._known_port(t))),
            ]
            if src_lookup is not None:
                cases.append(
                    conj(
                        eq(src_lookup.rets["found"], const(0)),
                        le(const(cfg.capacity), src_lookup.rets["size"]),
                    )
                )
            obligations.append(Obligation("no-learn-justified", disj(*cases)))
        return obligations

    # -- forwarding/filtering obligations (clause 7.7) ----------------------------
    def forward_justified(self, t: TraceIndex, send: SendRecord) -> BoolExpr:
        cfg = self.config
        device = t.recv.rets["device"]
        dst_mac = t.recv.rets["dst_mac"]
        on_a, on_b = self._known_port(t)
        _, dst_lookup = self._lookups(t)
        preserved = conj(
            eq(send.src_ip, t.recv.rets["src_mac"]),  # src MAC field
            eq(send.dst_ip, dst_mac),  # dst MAC field
        )
        out_mapping = disj(
            conj(on_a, eq(send.device, const(cfg.device_b))),
            conj(on_b, eq(send.device, const(cfg.device_a))),
        )
        # With no destination lookup on the path, only a broadcast frame
        # may have skipped it (the stateless code's short-circuit).
        cases = [eq(dst_mac, const(BROADCAST_MAC))]
        if dst_lookup is not None:
            cases.append(eq(dst_lookup.rets["found"], const(0)))
            if "device" in dst_lookup.rets:
                cases.append(
                    conj(
                        eq(dst_lookup.rets["found"], const(1)),
                        ne(dst_lookup.rets["device"], device),
                    )
                )
        return conj(disj(on_a, on_b), preserved, out_mapping, disj(*cases))

    def silence_justified(self, t: TraceIndex) -> BoolExpr:
        _, dst_lookup = self._lookups(t)
        drop_cases = [negate(disj(*self._known_port(t)))]
        if dst_lookup is not None and "device" in dst_lookup.rets:
            drop_cases.append(
                conj(
                    eq(dst_lookup.rets["found"], const(1)),
                    eq(dst_lookup.rets["device"], t.recv.rets["device"]),
                )
            )
        return disj(*drop_cases)
