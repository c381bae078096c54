"""Symbolic expression language for the Vigor toolchain.

Deliberately small: unsigned bounded integers (bit-vectors viewed as
intervals ``[0, 2**width)``), sums with unit coefficients and integer
offsets, comparisons, and boolean structure. This restriction is what
keeps the decision procedure in :mod:`repro.verif.solver` complete for
the formulas NF code generates (difference logic with equalities and
disequalities) — the same pragmatic trade the paper makes by keeping the
stateless code's state simple.

Expressions are immutable and hash-consable; construction does constant
folding so concrete computations stay concrete.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Mapping, Tuple

# Widths used throughout the NF domain.
W1 = 1
W8 = 8
W16 = 16
W32 = 32
W48 = 48
W64 = 64


class ExprError(TypeError):
    """An operation outside the supported expression language."""


@dataclass(frozen=True)
class IntExpr:
    """A linear integer expression: ``sum(vars) + offset``.

    ``terms`` maps variable names to unit coefficients (+1 or -1 — the
    language admits nothing else). ``width`` is the bit-width of the
    value the expression denotes (used for overflow checking); offsets
    may temporarily push values outside, which the engine's low-level
    checks flag.
    """

    terms: Tuple[Tuple[str, int], ...]  # sorted (name, coeff) pairs
    offset: int
    width: int

    # -- construction ------------------------------------------------------
    @staticmethod
    def const(value: int, width: int = W64) -> "IntExpr":
        return IntExpr(terms=(), offset=value, width=width)

    @staticmethod
    def var(name: str, width: int) -> "IntExpr":
        return IntExpr(terms=((name, 1),), offset=0, width=width)

    @property
    def is_const(self) -> bool:
        return not self.terms

    def _combine(self, other: "IntExpr", sign: int) -> "IntExpr":
        coeffs: Dict[str, int] = dict(self.terms)
        for name, coeff in other.terms:
            coeffs[name] = coeffs.get(name, 0) + sign * coeff
            if coeffs[name] == 0:
                del coeffs[name]
            elif coeffs[name] not in (-1, 1):
                raise ExprError(
                    "only unit coefficients are supported "
                    f"(got {coeffs[name]} for {name})"
                )
        terms = tuple(sorted(coeffs.items()))
        return IntExpr(
            terms=terms,
            offset=self.offset + sign * other.offset,
            width=max(self.width, other.width),
        )

    def add(self, other: "IntExpr") -> "IntExpr":
        return self._combine(other, +1)

    def sub(self, other: "IntExpr") -> "IntExpr":
        return self._combine(other, -1)

    # -- inspection ----------------------------------------------------------
    def variables(self) -> Iterator[str]:
        for name, _ in self.terms:
            yield name

    def evaluate(self, assignment: Mapping[str, int]) -> int:
        total = self.offset
        for name, coeff in self.terms:
            total += coeff * assignment[name]
        return total

    def __str__(self) -> str:
        parts = []
        for name, coeff in self.terms:
            parts.append(f"+{name}" if coeff > 0 else f"-{name}")
        if self.offset or not parts:
            parts.append(f"+{self.offset}" if self.offset >= 0 else str(self.offset))
        text = "".join(parts)
        return text[1:] if text.startswith("+") else text


#: The spelling contracts and specifications use for a literal.
const = IntExpr.const


# -- boolean expressions -----------------------------------------------------

EQ = "=="
NE = "!="
LT = "<"
LE = "<="


@dataclass(frozen=True)
class BoolExpr:
    """Base class for boolean expressions."""

    def evaluate(self, assignment: Mapping[str, int]) -> bool:
        raise NotImplementedError

    def variables(self) -> Iterator[str]:
        raise NotImplementedError


@dataclass(frozen=True)
class BoolConst(BoolExpr):
    value: bool

    def evaluate(self, assignment: Mapping[str, int]) -> bool:
        return self.value

    def variables(self) -> Iterator[str]:
        return iter(())

    def __str__(self) -> str:
        return "true" if self.value else "false"


TRUE = BoolConst(True)
FALSE = BoolConst(False)


@dataclass(frozen=True)
class Atom(BoolExpr):
    """``lhs OP rhs`` where OP is one of ==, !=, <, <=."""

    op: str
    lhs: IntExpr
    rhs: IntExpr

    def __post_init__(self) -> None:
        if self.op not in (EQ, NE, LT, LE):
            raise ExprError(f"unsupported comparison {self.op!r}")

    def evaluate(self, assignment: Mapping[str, int]) -> bool:
        left = self.lhs.evaluate(assignment)
        right = self.rhs.evaluate(assignment)
        if self.op == EQ:
            return left == right
        if self.op == NE:
            return left != right
        if self.op == LT:
            return left < right
        return left <= right

    def variables(self) -> Iterator[str]:
        yield from self.lhs.variables()
        yield from self.rhs.variables()

    def negated(self) -> "Atom":
        if self.op == EQ:
            return Atom(NE, self.lhs, self.rhs)
        if self.op == NE:
            return Atom(EQ, self.lhs, self.rhs)
        if self.op == LT:  # not (a < b)  ==  b <= a
            return Atom(LE, self.rhs, self.lhs)
        return Atom(LT, self.rhs, self.lhs)  # not (a <= b) == b < a

    def __str__(self) -> str:
        return f"({self.lhs} {self.op} {self.rhs})"


@dataclass(frozen=True)
class Not(BoolExpr):
    operand: BoolExpr

    def evaluate(self, assignment: Mapping[str, int]) -> bool:
        return not self.operand.evaluate(assignment)

    def variables(self) -> Iterator[str]:
        return self.operand.variables()

    def __str__(self) -> str:
        return f"!{self.operand}"


@dataclass(frozen=True)
class And(BoolExpr):
    operands: Tuple[BoolExpr, ...]

    def evaluate(self, assignment: Mapping[str, int]) -> bool:
        return all(op.evaluate(assignment) for op in self.operands)

    def variables(self) -> Iterator[str]:
        for op in self.operands:
            yield from op.variables()

    def __str__(self) -> str:
        return "(" + " && ".join(str(op) for op in self.operands) + ")"


@dataclass(frozen=True)
class Or(BoolExpr):
    operands: Tuple[BoolExpr, ...]

    def evaluate(self, assignment: Mapping[str, int]) -> bool:
        return any(op.evaluate(assignment) for op in self.operands)

    def variables(self) -> Iterator[str]:
        for op in self.operands:
            yield from op.variables()

    def __str__(self) -> str:
        return "(" + " || ".join(str(op) for op in self.operands) + ")"


# -- smart constructors -------------------------------------------------------


def conj(*operands: BoolExpr) -> BoolExpr:
    flat = []
    for op in operands:
        if isinstance(op, BoolConst):
            if not op.value:
                return FALSE
            continue
        if isinstance(op, And):
            flat.extend(op.operands)
        else:
            flat.append(op)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def disj(*operands: BoolExpr) -> BoolExpr:
    flat = []
    for op in operands:
        if isinstance(op, BoolConst):
            if op.value:
                return TRUE
            continue
        if isinstance(op, Or):
            flat.extend(op.operands)
        else:
            flat.append(op)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def negate(operand: BoolExpr) -> BoolExpr:
    """Negation with NNF push-down (the solver expects NNF-friendly input)."""
    if isinstance(operand, BoolConst):
        return BoolConst(not operand.value)
    if isinstance(operand, Atom):
        return operand.negated()
    if isinstance(operand, Not):
        return operand.operand
    if isinstance(operand, And):
        return disj(*(negate(op) for op in operand.operands))
    if isinstance(operand, Or):
        return conj(*(negate(op) for op in operand.operands))
    raise ExprError(f"cannot negate {operand!r}")


def implies(antecedent: BoolExpr, consequent: BoolExpr) -> BoolExpr:
    return disj(negate(antecedent), consequent)


def compare(op: str, lhs: IntExpr, rhs: IntExpr) -> BoolExpr:
    """Build a comparison, folding when both sides are constant."""
    if lhs.is_const and rhs.is_const:
        return BoolConst(Atom(op, lhs, rhs).evaluate({}))
    # Fold identical-expression comparisons (x == x, x <= x, ...);
    # widths are irrelevant to the denoted value.
    if lhs.terms == rhs.terms and lhs.offset == rhs.offset:
        return BoolConst(op in (EQ, LE))
    return Atom(op, lhs, rhs)


def eq(lhs: IntExpr, rhs: IntExpr) -> BoolExpr:
    return compare(EQ, lhs, rhs)


def ne(lhs: IntExpr, rhs: IntExpr) -> BoolExpr:
    return compare(NE, lhs, rhs)


def lt(lhs: IntExpr, rhs: IntExpr) -> BoolExpr:
    return compare(LT, lhs, rhs)


def le(lhs: IntExpr, rhs: IntExpr) -> BoolExpr:
    return compare(LE, lhs, rhs)
