"""An SMT-lite decision procedure for the Vigor expression language.

Decides satisfiability of boolean combinations of atoms over bounded
unsigned integers, where atoms are (dis)equalities and order comparisons
between linear expressions with unit coefficients. The fragment the NF
code and the libVig contracts generate is *difference logic with
equalities and disequalities*, for which the procedure below is a
complete classic:

1. boolean structure is explored DPLL-style over the expression tree;
2. at each leaf, the conjunction of atoms goes to the theory solver:
   - equalities feed a weighted union-find (``x = y + c``),
   - order atoms become difference bounds checked for negative cycles
     with Bellman-Ford (a virtual ZERO node carries the domain bounds),
   - the shortest-path potentials yield a concrete assignment,
   - disequalities are repaired by sliding variables within their slack;
3. every SAT verdict is certified by evaluating all atoms under the
   produced model, so a SAT answer is never wrong; UNSAT verdicts come
   only from sound arguments (negative cycle, equality contradiction, or
   exhausted finite domains).

Anything outside the fragment raises :class:`SolverUnknown`, which
callers must treat conservatively (a failed proof, never a fake one).
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.verif.expr import (
    EQ,
    LE,
    LT,
    NE,
    And,
    Atom,
    BoolConst,
    BoolExpr,
    Not,
    Or,
    negate,
)

_ZERO = "$zero"
_ENUM_LIMIT = 200_000


class SolverUnknown(Exception):
    """The formula falls outside the decidable fragment."""


Assignment = Dict[str, int]


class _UnionFind:
    """Weighted union-find: tracks val(x) = val(root) + offset."""

    def __init__(self) -> None:
        self._parent: Dict[str, str] = {}
        self._offset: Dict[str, int] = {}

    def add(self, node: str) -> None:
        if node not in self._parent:
            self._parent[node] = node
            self._offset[node] = 0

    def find(self, node: str) -> Tuple[str, int]:
        self.add(node)
        root = node
        offset = 0
        while self._parent[root] != root:
            offset += self._offset[root]
            root = self._parent[root]
        # Path compression with offset adjustment.
        cursor = node
        carried = 0
        while self._parent[cursor] != cursor:
            parent = self._parent[cursor]
            step = self._offset[cursor]
            self._parent[cursor] = root
            self._offset[cursor] = offset - carried
            carried += step
            cursor = parent
        return root, offset

    def union(self, a: str, b: str, delta: int) -> bool:
        """Assert val(a) = val(b) + delta; False on contradiction."""
        root_a, off_a = self.find(a)
        root_b, off_b = self.find(b)
        if root_a == root_b:
            return off_a == off_b + delta
        # val(root_a) = val(a) - off_a = val(b) + delta - off_a
        #             = val(root_b) + off_b + delta - off_a
        self._parent[root_a] = root_b
        self._offset[root_a] = off_b + delta - off_a
        return True


def _flatten(formulas: Iterable[BoolExpr]) -> Optional[List[BoolExpr]]:
    """Decompose conjunctions and constants; None means trivially UNSAT."""
    work: List[BoolExpr] = []
    stack = list(formulas)
    while stack:
        formula = stack.pop()
        if isinstance(formula, BoolConst):
            if not formula.value:
                return None
            continue
        if isinstance(formula, Not):
            stack.append(negate(formula.operand))
            continue
        if isinstance(formula, And):
            stack.extend(formula.operands)
            continue
        work.append(formula)
    return work


class Solver:
    """Decision procedure over variables with known bit-widths."""

    def __init__(self, widths: Mapping[str, int]) -> None:
        self._widths = widths
        self.theory_checks = 0

    def _domain(self, name: str) -> Tuple[int, int]:
        width = self._widths.get(name)
        if width is None:
            raise SolverUnknown(f"unknown variable {name!r}")
        return 0, (1 << width) - 1

    # -- public API ---------------------------------------------------------
    def satisfiable(self, formulas: Sequence[BoolExpr]) -> Optional[Assignment]:
        """A model satisfying every formula, or None when UNSAT.

        The model assigns every variable appearing anywhere in the input
        (variables not constrained on the chosen boolean branch get
        their domain minimum), so callers can evaluate the formulas
        under it directly.
        """
        flat = _flatten(formulas)
        if flat is None:
            return None
        model = self._search(flat, [])
        if model is None:
            return None
        for formula in formulas:
            for name in formula.variables():
                if name not in model:
                    model[name] = self._domain(name)[0]
        return model

    def entails(self, assumptions: Sequence[BoolExpr], goal: BoolExpr) -> bool:
        """True when ``assumptions ⟹ goal`` is valid."""
        return self.satisfiable(list(assumptions) + [negate(goal)]) is None

    def proves(self, assumptions: Sequence[BoolExpr], goal: BoolExpr) -> bool:
        """:meth:`entails`, with "could not decide" counted as not proven."""
        try:
            return self.entails(assumptions, goal)
        except SolverUnknown:
            return False

    def equivalent_under(
        self,
        assumptions: Sequence[BoolExpr],
        left: BoolExpr,
        right: BoolExpr,
    ) -> bool:
        """True when left ⟺ right under the assumptions."""
        return self.entails(list(assumptions) + [left], right) and self.entails(
            list(assumptions) + [right], left
        )

    # -- boolean search -------------------------------------------------------
    def _search(
        self, pending: List[BoolExpr], atoms: List[Atom]
    ) -> Optional[Assignment]:
        pending = list(pending)
        atoms = list(atoms)
        while pending:
            formula = pending.pop()
            if isinstance(formula, BoolConst):
                if not formula.value:
                    return None
                continue
            if isinstance(formula, Not):
                pending.append(negate(formula.operand))
                continue
            if isinstance(formula, And):
                pending.extend(formula.operands)
                continue
            if isinstance(formula, Or):
                for choice in formula.operands:
                    model = self._search(pending + [choice], atoms)
                    if model is not None:
                        return model
                return None
            if isinstance(formula, Atom):
                atoms.append(formula)
                continue
            raise SolverUnknown(f"unsupported formula {formula!r}")
        return self._theory_check(atoms)

    # -- theory: conjunction of atoms ------------------------------------------
    def _theory_check(self, atoms: List[Atom]) -> Optional[Assignment]:
        self.theory_checks += 1
        equalities: List[Tuple[Dict[str, int], int]] = []
        bounds: List[Tuple[Dict[str, int], int]] = []  # sum + c <= 0
        disequalities: List[Tuple[Dict[str, int], int]] = []
        residual: List[Atom] = []
        variables: set[str] = set()

        for atom in atoms:
            delta = atom.lhs.sub(atom.rhs)
            coeffs = dict(delta.terms)
            if not coeffs:
                # The two sides differ by a constant: decide outright.
                value = delta.offset  # lhs - rhs
                holds = {
                    EQ: value == 0,
                    NE: value != 0,
                    LT: value < 0,
                    LE: value <= 0,
                }[atom.op]
                if not holds:
                    return None
                continue
            variables.update(coeffs)
            if atom.op == EQ:
                equalities.append((coeffs, delta.offset))
            elif atom.op == NE:
                disequalities.append((coeffs, delta.offset))
            elif atom.op == LE:
                bounds.append((coeffs, delta.offset))
            elif atom.op == LT:
                bounds.append((coeffs, delta.offset + 1))
            if not self._is_difference(coeffs):
                residual.append(atom)

        # 1. Equalities through weighted union-find.
        uf = _UnionFind()
        uf.add(_ZERO)
        for name in variables:
            uf.add(name)
        for coeffs, offset in equalities:
            if not self._is_difference(coeffs):
                continue  # handled in residual re-verification
            pos = [n for n, c in coeffs.items() if c == 1]
            neg = [n for n, c in coeffs.items() if c == -1]
            # pos - neg + offset == 0
            a = pos[0] if pos else _ZERO
            b = neg[0] if neg else _ZERO
            # val(a) - val(b) + offset == 0  ->  val(a) = val(b) - offset
            if not uf.union(a, b, -offset):
                return None

        # 1b. Disequalities fully determined by the equality classes:
        # if both sides share a representative the disequality is a
        # constant fact — contradiction means UNSAT right here.
        for coeffs, offset in disequalities:
            if not self._is_difference(coeffs) or not coeffs:
                continue
            pos = [n for n, c in coeffs.items() if c == 1]
            neg = [n for n, c in coeffs.items() if c == -1]
            a = pos[0] if pos else _ZERO
            b = neg[0] if neg else _ZERO
            rep_a, off_a = uf.find(a)
            rep_b, off_b = uf.find(b)
            if rep_a == rep_b and off_a - off_b + offset == 0:
                return None

        # 2. Difference bounds on representatives; Bellman-Ford.
        #    Constraint form: val(a) - val(b) <= c  (edge b -> a, weight c).
        edges: List[Tuple[str, str, int]] = []

        def add_bound(a: str, off_a: int, b: str, off_b: int, c: int) -> None:
            # (rep_a + off_a) - (rep_b + off_b) <= c
            edges.append((b, a, c - off_a + off_b))

        for coeffs, offset in bounds:
            if not self._is_difference(coeffs):
                continue
            pos = [n for n, c in coeffs.items() if c == 1]
            neg = [n for n, c in coeffs.items() if c == -1]
            a = pos[0] if pos else _ZERO
            b = neg[0] if neg else _ZERO
            rep_a, off_a = uf.find(a)
            rep_b, off_b = uf.find(b)
            # val(a) - val(b) + offset <= 0 -> val(a) - val(b) <= -offset
            add_bound(rep_a, off_a, rep_b, off_b, -offset)

        # Domain constraints for every variable, relative to ZERO. Note
        # ZERO itself may have been unioned into a class with a non-zero
        # offset (e.g. from "1 == x"), so its own offset matters.
        rep_zero, off_zero = uf.find(_ZERO)
        for name in variables:
            lo, hi = self._domain(name)
            rep, off = uf.find(name)
            add_bound(rep, off, rep_zero, off_zero, hi)  # x - 0 <= hi
            add_bound(rep_zero, off_zero, rep, off, -lo)  # 0 - x <= -lo

        node_set = {rep_zero}
        for name in variables:
            node_set.add(uf.find(name)[0])
        for src, dst, _ in edges:
            node_set.add(src)
            node_set.add(dst)
        nodes = sorted(node_set)
        index = {node: i for i, node in enumerate(nodes)}
        n = len(nodes)

        # Floyd-Warshall closure of the difference-bound matrix:
        # dist[a][b] is the tightest bound on val(b) - val(a).
        inf = float("inf")
        dist = [[inf] * n for _ in range(n)]
        for i in range(n):
            dist[i][i] = 0
        for src, dst, weight in edges:
            i, j = index[src], index[dst]
            if weight < dist[i][j]:
                dist[i][j] = weight
        for k in range(n):
            dk = dist[k]
            for i in range(n):
                dik = dist[i][k]
                if dik == inf:
                    continue
                di = dist[i]
                for j in range(n):
                    alt = dik + dk[j]
                    if alt < di[j]:
                        di[j] = alt
        for i in range(n):
            if dist[i][i] < 0:
                return None  # negative cycle: difference bounds UNSAT

        # Tight intervals per variable relative to the ZERO node; domain
        # edges guarantee every variable's representative is bounded.
        z = index[rep_zero]
        assignment: Assignment = {}
        intervals: Dict[str, Tuple[int, int]] = {}
        for name in variables:
            rep, off = uf.find(name)
            r = index[rep]
            # val(name) = val(rep) + off and val(rep_zero) = -off_zero,
            # so the DBM's rep-to-rep distances shift by off - off_zero.
            lo = int(-dist[r][z]) + off - off_zero
            hi = int(dist[z][r]) + off - off_zero
            if lo > hi:
                return None
            intervals[name] = (lo, hi)
            # val(rep) = -dist[rep][zero] is a canonical DBM solution.
            assignment[name] = lo

        # 3. Decompose into variable-connectivity components and finish
        #    each independently: disequality repair, then (if needed)
        #    bounded enumeration over the DBM-tightened intervals. The
        #    split keeps unrelated unconstrained variables from ruining
        #    the enumeration's completeness.
        comp_uf = _UnionFind()
        for name in variables:
            comp_uf.add(name)
        for atom in atoms:
            names = [n for n, _ in atom.lhs.sub(atom.rhs).terms]
            for other in names[1:]:
                comp_uf.union(names[0], other, 0)
        components: Dict[str, List[str]] = {}
        for name in variables:
            root, _ = comp_uf.find(name)
            components.setdefault(root, []).append(name)
        atom_groups: Dict[str, List[Atom]] = {root: [] for root in components}
        for atom in atoms:
            names = [n for n, _ in atom.lhs.sub(atom.rhs).terms]
            if names:
                atom_groups[comp_uf.find(names[0])[0]].append(atom)

        # Variables that appear syntactically but cancel out (x == x)
        # still deserve a value in the certified model.
        appearing: set[str] = set()
        for atom in atoms:
            appearing.update(atom.lhs.variables())
            appearing.update(atom.rhs.variables())

        model: Assignment = {}
        deferred: Optional[SolverUnknown] = None
        for root, names in components.items():
            group = atom_groups[root]
            seed = {name: assignment[name] for name in names}
            part = self._repair(group, seed, uf, intervals)
            if part is None:
                try:
                    part = self._enumerate(group, seed, intervals)
                except SolverUnknown as unknown:
                    deferred = unknown
                    continue
                if part is None:
                    return None  # this component is genuinely UNSAT
            model.update(part)
        if deferred is not None:
            raise deferred
        for name in appearing:
            if name not in model:
                model[name] = self._domain(name)[0]
        return model

    @staticmethod
    def _is_difference(coeffs: Dict[str, int]) -> bool:
        if len(coeffs) > 2:
            return False
        values = sorted(coeffs.values())
        if len(values) == 2:
            return values == [-1, 1]
        if len(values) == 1:
            return values[0] in (-1, 1)
        return True

    @staticmethod
    def _violated(atoms: Sequence[Atom], assignment: Assignment) -> Optional[Atom]:
        for atom in atoms:
            if not atom.evaluate(assignment):
                return atom
        return None

    def _repair(
        self,
        atoms: Sequence[Atom],
        assignment: Assignment,
        uf: _UnionFind,
        intervals: Dict[str, Tuple[int, int]],
    ) -> Optional[Assignment]:
        """Perturb the DBM solution until disequalities hold (bounded tries)."""
        model = dict(assignment)
        for _attempt in range(8):
            violated = self._violated(atoms, model)
            if violated is None:
                return model
            if violated.op != NE:
                return None  # order/equality violated: leave it to enumeration
            # Try shifting each variable of the atom by small deltas.
            names = list(dict(violated.lhs.sub(violated.rhs).terms))
            repaired = False
            for name in names:
                lo, hi = intervals.get(name, self._domain(name))
                for delta in (1, -1, 2, -2, 3, -3):
                    candidate = dict(model)
                    value = candidate[name] + delta
                    if not lo <= value <= hi:
                        continue
                    candidate[name] = value
                    # Shifting one member of an equality class breaks the
                    # class; shift the whole class together.
                    rep, off = uf.find(name)
                    for other in model:
                        orep, ooff = uf.find(other)
                        if orep == rep and other != name:
                            candidate[other] = value - off + ooff
                    if self._violated(atoms, candidate) is None:
                        model = candidate
                        repaired = True
                        break
                if repaired:
                    break
            if not repaired:
                return None
        return None

    def _enumerate(
        self,
        atoms: Sequence[Atom],
        seed: Assignment,
        intervals: Dict[str, Tuple[int, int]] | None = None,
    ) -> Optional[Assignment]:
        """Candidate-set enumeration; complete when candidates cover domains.

        ``intervals`` are the DBM-tightened per-variable bounds; when the
        tight interval is small enough it is enumerated exhaustively,
        which makes the UNSAT verdict sound for that variable.
        """
        intervals = intervals or {}
        variables = sorted(seed)
        if not variables:
            return dict(seed) if self._violated(atoms, seed) is None else None
        candidates: Dict[str, List[int]] = {}
        complete = True
        for name in variables:
            lo, hi = intervals.get(name, self._domain(name))
            dlo, dhi = self._domain(name)
            lo, hi = max(lo, dlo), min(hi, dhi)
            if lo > hi:
                return None
            interesting = {lo, hi, seed[name]}
            for atom in atoms:
                delta = atom.lhs.sub(atom.rhs)
                coeffs = dict(delta.terms)
                if name in coeffs and len(coeffs) == 1:
                    pivot = -delta.offset * coeffs[name]
                    for value in (pivot - 1, pivot, pivot + 1):
                        if lo <= value <= hi:
                            interesting.add(value)
            if hi - lo + 1 <= 64:
                values = list(range(lo, hi + 1))
            else:
                values = sorted(v for v in interesting if lo <= v <= hi)
                complete = False
            candidates[name] = values
        total = 1
        for values in candidates.values():
            total *= max(1, len(values))
            if total > _ENUM_LIMIT:
                raise SolverUnknown("enumeration space too large")
        for combo in itertools.product(*(candidates[n] for n in variables)):
            model = dict(zip(variables, combo))
            if self._violated(atoms, model) is None:
                return model
        if complete:
            return None
        raise SolverUnknown("incomplete candidate enumeration found no model")
