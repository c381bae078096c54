"""Vigor: the verification toolchain (§3, §5).

This package reproduces the paper's toolchain in Python, against Python
NF code instead of C:

- :mod:`repro.verif.expr` / :mod:`repro.verif.solver` — a symbolic
  expression language and an SMT-lite decision procedure (equalities with
  offsets, difference bounds, disequalities over bounded integers), the
  reproduction's stand-in for KLEE's and VeriFast's solvers.
- :mod:`repro.verif.symbols` / :mod:`repro.verif.context` /
  :mod:`repro.verif.engine` — exhaustive symbolic execution: the *actual*
  stateless NF code runs under a path scheduler that forks at every
  data-dependent branch, with low-level properties (P2) checked on every
  path.
- :mod:`repro.verif.models` — symbolic models of the libVig structures
  and the DPDK layer; every table-keeping NF's model is the one skeleton
  of :mod:`repro.verif.models.base` plus its own operations.
- :mod:`repro.verif.contracts` — the interface contracts, one static
  registry built from shared clauses.
- :mod:`repro.verif.trace` — symbolic traces and the execution tree.
- :mod:`repro.verif.semantics` — the specifications: one template, each
  NF's cases.
- :mod:`repro.verif.validator` — the lazy-proofs Validator: validates the
  models against the contracts (P5), the NF's use of the contracts (P4),
  and the NF's specification (P1), per trace, a posteriori.
- :mod:`repro.verif.proofs` — :data:`~repro.verif.proofs.PROOFS`: every
  NF proof as one entry (body, specification, report name). Start here
  to see what is proven about an NF, or to add a proof.
"""

from repro.verif.engine import ExhaustiveSymbolicEngine
from repro.verif.report import ProofReport
from repro.verif.validator import Validator

__all__ = ["ExhaustiveSymbolicEngine", "ProofReport", "Validator"]
