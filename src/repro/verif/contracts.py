"""Symbolic interface contracts for the libVig data types (§5.1.2).

These are the machine-readable pre/post-conditions the Validator checks
traces against — the reproduction's analogue of libVig's separation-logic
contracts. Each contract instantiates, for a concrete call site, the
precondition over the argument expressions (proof obligation P4) and the
postcondition over argument and result expressions (the antecedent of
the model-validation proof P5).

The contracts speak the solver's fragment, so abstract-state relations
are expressed through the symbols the models mint: table occupancy is
the shared ``table_size`` symbol, membership is a 0/1 ``found`` flag
whose allowed valuations the postcondition ties to occupancy and index
bounds. Where the paper's separation-logic contracts quantify over all
entries, this reproduction instantiates the needed instance lazily —
the same move the lazy-proofs technique makes (§5.2.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping

from repro.nat.discard import DISCARD_PORT
from repro.verif.expr import (
    BoolExpr,
    IntExpr,
    conj,
    const,
    disj,
    eq,
    implies,
    le,
    lt,
    ne,
)

Exprs = Mapping[str, IntExpr]
ClauseBuilder = Callable[[Exprs, Exprs, "ContractContext"], List[BoolExpr]]


@dataclass(frozen=True)
class ContractContext:
    """Static facts contracts may reference (configuration constants)."""

    capacity: int
    start_port: int = 1


@dataclass
class SymbolicContract:
    """One traced function's precondition and postcondition builders."""

    description: str
    pre: ClauseBuilder = field(default=lambda args, rets, cc: [])
    post: ClauseBuilder = field(default=lambda args, rets, cc: [])
    #: Part of the trusted computing base (§5.4): P5 is not checked.
    trusted: bool = False


# -- the clauses every table's contracts are built from ------------------------


def _within(value: IntExpr, low: int, high: int) -> List[BoolExpr]:
    return [le(const(low), value), le(value, const(high))]


def _index_in_range(index: IntExpr, cc: ContractContext) -> List[BoolExpr]:
    return [le(const(0), index), lt(index, const(cc.capacity))]


def _index_arg_in_range(
    args: Exprs, rets: Exprs, cc: ContractContext
) -> List[BoolExpr]:
    return _index_in_range(args["index"], cc)


def _lookup_post(
    hit: str, in_range: Callable[[IntExpr, ContractContext], List[BoolExpr]]
) -> ClauseBuilder:
    """Fig. 8: found==1 means a well-formed hit and a non-empty table;
    found==0 means the key is absent (no other facts). The key is an
    output-parameter struct owned by the caller, so there is nothing to
    require of it beyond field widths, which typing ensures."""

    def post(args: Exprs, rets: Exprs, cc: ContractContext) -> List[BoolExpr]:
        if hit not in rets:
            return []  # the not-found case constrains nothing
        return [
            disj(
                conj(
                    eq(rets["found"], const(1)),
                    *in_range(rets[hit], cc),
                    le(const(1), rets["size"]),
                ),
                eq(rets["found"], const(0)),
            )
        ]

    return post


_index_lookup_post = _lookup_post("index", _index_in_range)


def _allocate_post(args: Exprs, rets: Exprs, cc: ContractContext) -> List[BoolExpr]:
    # "The table is not full" is a *post*condition of allocation, not a
    # precondition: the call is legal on a full table and reports failure.
    success = rets["success"]
    size = args["size"]
    clauses: List[BoolExpr] = [
        implies(lt(size, const(cc.capacity)), eq(success, const(1))),
        implies(le(const(cc.capacity), size), eq(success, const(0))),
    ]
    if "index" in rets:
        clauses.append(
            implies(eq(success, const(1)), conj(*_index_in_range(rets["index"], cc)))
        )
    return clauses


def _vacant_slot(args: Exprs, rets: Exprs, cc: ContractContext) -> List[BoolExpr]:
    return [lt(args["size"], const(cc.capacity))]


# -- the flow-table (DoubleMap) contracts --------------------------------------


def _dmap_get_value_post(
    args: Exprs, rets: Exprs, cc: ContractContext
) -> List[BoolExpr]:
    # The entry's external port is well-formed, and — woven in from the
    # NF's loop invariant (§3 "Loop invariants") — equal to
    # start_port + index, the allocation rule the NAT maintains.
    return [
        *_within(rets["ext_port"], 0, 0xFFFF),
        eq(rets["ext_port"], args["index"].add(const(cc.start_port))),
    ]


# -- the expirator contract ----------------------------------------------------


def _expire_post(args: Exprs, rets: Exprs, cc: ContractContext) -> List[BoolExpr]:
    # Expiration only shrinks the table, never below empty.
    return [
        le(const(0), rets["new_size"]),
        le(rets["new_size"], args["size"]),
    ]


# -- registry --------------------------------------------------------------------

CONTRACTS: Dict[str, SymbolicContract] = {
    # .. what every table-keeping NF calls (models.base.TableModel) ..
    "loop_invariant_produce": SymbolicContract(
        "Havoc loop-carried state subject to the loop invariant",
        post=lambda args, rets, cc: _within(rets["size"], 0, cc.capacity),
    ),
    "current_time": SymbolicContract(
        "System time is a non-negative microsecond count",
        trusted=True,  # part of the TCB like the paper's nf_time model
    ),
    "receive": SymbolicContract(
        "DPDK receive: fully adversarial packet (trusted model)",
        trusted=True,
    ),
    "expire_items": SymbolicContract(
        "Expire all flows stamped strictly before min_time",
        post=_expire_post,
    ),
    "drop": SymbolicContract(
        "Return the packet buffer to DPDK (trusted model)",
        trusted=True,
    ),
    # .. the NAT's and firewall's flow table ..
    "dmap_get_by_first_key": SymbolicContract(
        "Flow lookup by internal 5-tuple (Fig. 8)",
        post=_index_lookup_post,
    ),
    "dmap_get_by_second_key": SymbolicContract(
        "Flow lookup by external 5-tuple",
        post=_index_lookup_post,
    ),
    "dmap_put": SymbolicContract(
        "Bind a flow to a vacant index",
        pre=lambda args, rets, cc: [
            *_index_in_range(args["index"], cc),
            *_vacant_slot(args, rets, cc),
        ],
    ),
    "dmap_get_value": SymbolicContract(
        "Read the flow entry at an occupied index",
        pre=_index_arg_in_range,
        post=_dmap_get_value_post,
    ),
    "dchain_allocate_new_index": SymbolicContract(
        "Allocate the oldest free index, stamped now",
        post=_allocate_post,
    ),
    "dchain_rejuvenate_index": SymbolicContract(
        "Refresh an allocated index's timestamp",
        pre=_index_arg_in_range,
    ),
    # .. the bridge's station table: a hit is a port, not a slot ..
    "bridge_table_get": SymbolicContract(
        "MAC lookup: found implies a bound port and occupancy",
        post=_lookup_post("device", lambda port, cc: _within(port, 0, 0xFF)),
    ),
    "bridge_table_learn_new": SymbolicContract(
        "Bind a new station; requires a vacant slot",
        pre=_vacant_slot,
    ),
    "bridge_table_refresh": SymbolicContract(
        "Refresh a known station's port binding and age",
    ),
    # .. the limiter's budget table ..
    "budget_get": SymbolicContract(
        "Per-source budget lookup",
        post=_index_lookup_post,
    ),
    "budget_create": SymbolicContract(
        "Open a budget window with count=1; fails iff full",
        post=_allocate_post,
    ),
    "counter_read": SymbolicContract(
        "Read a budget counter; counters fit u32",
        pre=_index_arg_in_range,
        post=lambda args, rets, cc: _within(rets["count"], 1, 0xFFFFFFFF),
    ),
    "counter_bump": SymbolicContract(
        "Store an updated budget counter",
        pre=lambda args, rets, cc: [
            *_index_in_range(args["index"], cc),
            le(args["value"], const(0xFFFFFFFF)),
        ],
    ),
    # .. the ring (the §3 worked example) ..
    "ring_full": SymbolicContract("result == (length == capacity)"),
    "ring_empty": SymbolicContract("result == (length == 0)"),
    "can_send": SymbolicContract(
        "DPDK transmit readiness (trusted model)",
        trusted=True,
    ),
    "ring_push_back": SymbolicContract(
        "Append an item satisfying the ring constraint",
        pre=lambda args, rets, cc: [
            lt(args["length"], const(cc.capacity)),
            ne(args["dst_port"], const(DISCARD_PORT)),
        ],
    ),
    "ring_pop_front": SymbolicContract(
        "Pop the front item; it satisfies the ring constraint",
        # Fig. 3 l.3: lst != nil — the ring must be non-empty.
        pre=lambda args, rets, cc: [le(const(1), args["length"])],
        # Fig. 3 ll.4-6: the popped packet satisfies the packet
        # constraint (target port != 9 for the discard NF).
        post=lambda args, rets, cc: [ne(rets["dst_port"], const(DISCARD_PORT))],
    ),
}
