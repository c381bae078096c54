"""Shared machinery for symbolic models.

:class:`ModelBase` records calls into the trace with their contracts.
:class:`TableModel` is the one model every table-keeping NF shares: the
NAT's and firewall's flow table, the bridge's station table and the
limiter's budget table differ only in the operations they add to it.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import ClassVar, Dict, Iterator, Optional, Tuple, Type, Union

from repro.verif.context import ExplorationContext
from repro.verif.contracts import CONTRACTS, ContractContext
from repro.verif.expr import W32, W64, IntExpr
from repro.verif.symbols import SymInt
from repro.verif.trace import CallRecord, SendRecord

ExprLike = Union[int, IntExpr, SymInt]


def as_expr(value: ExprLike, width: int = 64) -> IntExpr:
    """Lift ints and SymInts to bare expressions for trace records."""
    if isinstance(value, SymInt):
        return value.expr
    if isinstance(value, IntExpr):
        return value
    return IntExpr.const(value, width)


def record_send(
    ctx: ExplorationContext,
    device: ExprLike,
    src_ip: ExprLike = 0,
    src_port: ExprLike = 0,
    dst_ip: ExprLike = 0,
    dst_port: ExprLike = 0,
    protocol: ExprLike = 0,
) -> None:
    """Record one emitted frame; fields an NF never sees stay zero."""
    ctx.record_send(
        SendRecord(
            device=as_expr(device),
            src_ip=as_expr(src_ip),
            src_port=as_expr(src_port),
            dst_ip=as_expr(dst_ip),
            dst_port=as_expr(dst_port),
            protocol=as_expr(protocol),
        )
    )


class ModelBase:
    """Base class wiring model calls into the trace with their contracts."""

    def __init__(self, ctx: ExplorationContext, contract_ctx: ContractContext) -> None:
        self.ctx = ctx
        self.contract_ctx = contract_ctx

    @contextmanager
    def call(self, fn: str, args: Dict[str, ExprLike]) -> Iterator["_CallScope"]:
        """Record one traced call; the body performs branches/assumes."""
        scope = _CallScope(fn, {k: as_expr(v) for k, v in args.items()})
        pc_start = len(self.ctx.pc)
        yield scope
        pc_end = len(self.ctx.pc)
        record = CallRecord(
            fn=fn,
            args=scope.args,
            rets={k: as_expr(v) for k, v in scope.rets.items()},
        )
        record.pc_start = pc_start
        record.selector_indices = tuple(
            i
            for i in range(pc_start, pc_end)
            if self.ctx.pc_tags[i] == "branch"
        )
        record.model_constraints = [
            self.ctx.pc[i]
            for i in range(pc_start, pc_end)
            if self.ctx.pc_tags[i] == "assume"
        ]
        contract = CONTRACTS.get(fn)
        if contract is not None and not contract.trusted:
            record.pre = contract.pre(record.args, record.rets, self.contract_ctx)
            record.post = contract.post(record.args, record.rets, self.contract_ctx)
        self.ctx.record_call(record)


class _CallScope:
    """Mutable bag the model body fills with its symbolic results."""

    def __init__(self, fn: str, args: Dict[str, IntExpr]) -> None:
        self.fn = fn
        self.args = args
        self.rets: Dict[str, ExprLike] = {}


class HavocedFrame:
    """A received frame whose every declared field is a fresh symbol."""

    #: ``(attribute, symbol name, width)`` per header field the NF may
    #: read, in the order ``receive`` reports them in the trace.
    FIELDS: ClassVar[Tuple[Tuple[str, str, int], ...]]

    def __init__(self, ctx: ExplorationContext) -> None:
        for attribute, symbol, width in self.FIELDS:
            setattr(self, attribute, ctx.fresh(symbol, width))


class TableModel(ModelBase):
    """Per-path symbolic state of one expiring table and the NIC.

    Created once per explored path. Havocs the loop-carried occupancy
    under the loop invariant (some value in ``[0, capacity]``), then
    simulates each call with fresh symbols plus the minimal constraints
    that make the call's effect visible to the stateless code — the
    modelling discipline of Fig. 4(a). A subclass names its occupancy
    symbol and its frame, and adds the table's own operations on the two
    call shapes :meth:`lookup` and :meth:`allocate`.
    """

    #: Name of the occupancy symbol (part of every rendered trace).
    SIZE: ClassVar[str]
    #: Name of the NIC's "a frame arrived" flag.
    RECEIVED: ClassVar[str] = "packet_received"
    Frame: ClassVar[Type[HavocedFrame]]

    def __init__(
        self, ctx: ExplorationContext, capacity: int, start_port: int = 1
    ) -> None:
        super().__init__(ctx, ContractContext(capacity=capacity, start_port=start_port))
        self.capacity = capacity
        # loop_invariant_produce: havoc the occupancy within bounds.
        with self.call("loop_invariant_produce", {}) as scope:
            self.size = ctx.fresh(self.SIZE, W32)
            ctx.assume(self.size <= capacity)
            scope.rets["size"] = self.size
        #: Occupancy after this iteration's expiration pass.
        self.size_after_expiry: SymInt = self.size

    # -- nf_time ------------------------------------------------------------
    def current_time(self) -> SymInt:
        with self.call("current_time", {}) as scope:
            now = self.ctx.fresh("now", W64)
            scope.rets["now"] = now
        return now

    # -- expirator: the table only ever shrinks ---------------------------
    def expire_items(self, min_time) -> SymInt:
        with self.call(
            "expire_items", {"min_time": min_time, "size": self.size}
        ) as scope:
            new_size = self.ctx.fresh(f"{self.SIZE}_after_expiry", W32)
            self.ctx.assume(new_size <= self.size)
            scope.rets["new_size"] = new_size
        self.size_after_expiry = new_size
        return new_size

    # -- the two call shapes every table uses -------------------------------
    def lookup(
        self,
        fn: str,
        key: Dict[str, ExprLike],
        flag: str,
        hit: str,
        ret: str = "index",
        width: int = W32,
    ) -> Optional[SymInt]:
        """A lookup that branches on a found-flag; None when absent.

        The caller names the flag symbol and the hit symbol: both are
        part of the rendered trace. A hit reported as ``index`` is a slot
        of the table and is bounded by the capacity; any hit implies a
        non-empty table.
        """
        ctx = self.ctx
        with self.call(fn, {**key, "size": self.size_after_expiry}) as scope:
            found = ctx.bool_sym(flag)
            scope.rets["found"] = found
            scope.rets["size"] = self.size_after_expiry
            if found == 1:
                value = ctx.fresh(hit, width)
                if ret == "index":
                    ctx.assume(value <= self.capacity - 1)
                ctx.assume(self.size_after_expiry >= 1)
                scope.rets[ret] = value
                return value
            return None

    def allocate(
        self, fn: str, args: Dict[str, ExprLike], index_name: str
    ) -> Optional[SymInt]:
        """An allocation that branches on occupancy; None when full."""
        ctx = self.ctx
        with self.call(fn, {**args, "size": self.size_after_expiry}) as scope:
            if self.size_after_expiry < self.capacity:
                index = ctx.fresh(index_name, W32)
                ctx.assume(index <= self.capacity - 1)
                scope.rets["success"] = 1
                scope.rets["index"] = index
                return index
            scope.rets["success"] = 0
            return None

    # -- DPDK -----------------------------------------------------------------
    def receive(self) -> Optional[HavocedFrame]:
        """A fully adversarial frame, or None when the NIC is idle."""
        with self.call("receive", {}) as scope:
            got = self.ctx.bool_sym(self.RECEIVED)
            scope.rets["received"] = got
            if got == 1:
                frame = self.Frame(self.ctx)
                for attribute, _symbol, _width in frame.FIELDS:
                    scope.rets[attribute] = getattr(frame, attribute)
                return frame
            return None

    def drop(self, frame: Optional[HavocedFrame] = None) -> None:
        with self.call("drop", {}):
            pass
