"""Symbolic models of the libVig structures VigNat uses (§5.1.4).

One :class:`NatModelState` is created per explored path. The havoced
occupancy, the clock, expiry and the NIC come from the table skeleton
(:class:`~repro.verif.models.base.TableModel`); this module adds the
flow table's own operations and the NAT's half of the loop invariant:
every stored flow's external port equals ``start_port + index``.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.verif.expr import W8, W16, W32
from repro.verif.models.base import HavocedFrame, TableModel
from repro.verif.symbols import SymInt


class SymbolicPacket(HavocedFrame):
    """The havoced received packet: every header field is a symbol."""

    FIELDS = (
        ("device", "pkt_device", W8),
        ("ethertype", "pkt_ethertype", W16),
        ("protocol", "pkt_proto", W8),
        ("src_ip", "pkt_src_ip", W32),
        ("src_port", "pkt_src_port", W16),
        ("dst_ip", "pkt_dst_ip", W32),
        ("dst_port", "pkt_dst_port", W16),
    )


class NatModelState(TableModel):
    """The flow table (DoubleMap + DoubleChain) on the table skeleton."""

    SIZE = "table_size"
    Frame = SymbolicPacket

    # -- DoubleMap ------------------------------------------------------------------
    def dmap_get_by_first_key(self, key: dict) -> Optional[SymInt]:
        """Lookup by internal 5-tuple; None when absent (branches)."""
        return self.lookup(
            "dmap_get_by_first_key", key, "int_found", "int_found_index"
        )

    def dmap_get_by_second_key(self, key: dict) -> Optional[SymInt]:
        """Lookup by external 5-tuple; None when absent (branches)."""
        return self.lookup(
            "dmap_get_by_second_key", key, "ext_found", "ext_found_index"
        )

    def dmap_put(self, index: SymInt, key: dict, ext_port, now) -> None:
        """Insert at ``index``. ``ext_port`` is NAT-specific; session
        tables (e.g. the firewall's) pass None and store no port."""
        args = {**key, "index": index, "size": self.size_after_expiry}
        if ext_port is not None:
            args["ext_port"] = ext_port
        with self.call("dmap_put", {**args, "time": now}):
            pass

    def dmap_get_value(self, index: SymInt) -> Tuple[SymInt, SymInt, SymInt]:
        """Returns (internal_ip, internal_port, external_port) of an entry."""
        ctx = self.ctx
        with self.call("dmap_get_value", {"index": index}) as scope:
            int_ip = ctx.fresh("entry_int_ip", W32)
            int_port = ctx.fresh("entry_int_port", W16)
            ext_port = ctx.fresh("entry_ext_port", W16)
            # The loop invariant pins the allocation rule; without this
            # the semantic property P1 would be unprovable (and with a
            # wrong rule here, model validation P5 fails).
            ctx.assume(ext_port == index + self.contract_ctx.start_port)
            scope.rets["int_ip"] = int_ip
            scope.rets["int_port"] = int_port
            scope.rets["ext_port"] = ext_port
        return int_ip, int_port, ext_port

    # -- DoubleChain --------------------------------------------------------------
    def dchain_allocate_new_index(self, now) -> Optional[SymInt]:
        """Allocate an index, or None when the table is full (branches)."""
        return self.allocate(
            "dchain_allocate_new_index", {"time": now}, "fresh_index"
        )

    def dchain_rejuvenate_index(self, index: SymInt, now) -> None:
        with self.call(
            "dchain_rejuvenate_index", {"index": index, "time": now}
        ):
            pass
