"""Symbolic values that ordinary Python NF code can compute with.

``SymInt`` and ``SymBool`` wrap expressions from :mod:`repro.verif.expr`
and overload the operators the stateless NF code uses. The crucial hook
is ``SymBool.__bool__``: when an ``if`` statement forces a symbolic
boolean to a concrete truth value, the exploration context decides the
branch and schedules the alternative — this is how the engine forks the
*actual* NF code without any translation step (the reproduction's
equivalent of KLEE interpreting LLVM bitcode).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Union

from repro.verif.expr import (
    BoolExpr,
    IntExpr,
    conj,
    disj,
    eq,
    le,
    lt,
    ne,
    negate,
)

if TYPE_CHECKING:
    from repro.verif.context import ExplorationContext

IntLike = Union[int, "SymInt"]


class SymInt:
    """A bounded unsigned integer, possibly symbolic."""

    __slots__ = ("expr", "ctx")

    def __init__(self, expr: IntExpr, ctx: "ExplorationContext") -> None:
        self.expr = expr
        self.ctx = ctx

    def _lift(self, other: IntLike) -> IntExpr:
        if isinstance(other, SymInt):
            return other.expr
        if isinstance(other, int):
            return IntExpr.const(other, self.expr.width)
        raise TypeError(f"cannot mix SymInt with {type(other).__name__}")

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other: IntLike) -> "SymInt":
        result = SymInt(self.expr.add(self._lift(other)), self.ctx)
        self.ctx.check_arith(result)
        return result

    __radd__ = __add__

    def __sub__(self, other: IntLike) -> "SymInt":
        result = SymInt(self.expr.sub(self._lift(other)), self.ctx)
        self.ctx.check_arith(result)
        return result

    def __rsub__(self, other: IntLike) -> "SymInt":
        lifted = SymInt(self._lift(other), self.ctx)
        return lifted.__sub__(self)

    # -- comparisons ----------------------------------------------------------
    def __eq__(self, other: object) -> "SymBool":  # type: ignore[override]
        return SymBool(eq(self.expr, self._lift(other)), self.ctx)  # type: ignore[arg-type]

    def __ne__(self, other: object) -> "SymBool":  # type: ignore[override]
        return SymBool(ne(self.expr, self._lift(other)), self.ctx)  # type: ignore[arg-type]

    def __lt__(self, other: IntLike) -> "SymBool":
        return SymBool(lt(self.expr, self._lift(other)), self.ctx)

    def __le__(self, other: IntLike) -> "SymBool":
        return SymBool(le(self.expr, self._lift(other)), self.ctx)

    def __gt__(self, other: IntLike) -> "SymBool":
        return SymBool(lt(self._lift(other), self.expr), self.ctx)

    def __ge__(self, other: IntLike) -> "SymBool":
        return SymBool(le(self._lift(other), self.expr), self.ctx)

    def __hash__(self) -> int:
        return hash(self.expr)

    def __repr__(self) -> str:
        return f"SymInt({self.expr})"

    def __bool__(self) -> bool:
        raise TypeError(
            "SymInt has no truth value; compare it explicitly "
            "(e.g. `if x == 0:` instead of `if x:`)"
        )


class SymBool:
    """A possibly-symbolic boolean; ``if`` on it forks the execution."""

    __slots__ = ("expr", "ctx")

    def __init__(self, expr: BoolExpr, ctx: "ExplorationContext") -> None:
        self.expr = expr
        self.ctx = ctx

    def __bool__(self) -> bool:
        return self.ctx.branch(self.expr)

    def __and__(self, other: "SymBool") -> "SymBool":
        return SymBool(conj(self.expr, other.expr), self.ctx)

    def __or__(self, other: "SymBool") -> "SymBool":
        return SymBool(disj(self.expr, other.expr), self.ctx)

    def __invert__(self) -> "SymBool":
        return SymBool(negate(self.expr), self.ctx)

    def __repr__(self) -> str:
        return f"SymBool({self.expr})"

