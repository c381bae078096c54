"""The Vigor Validator: lazy proofs over symbolic traces (§5.2).

Takes the execution tree produced by exhaustive symbolic execution and
discharges, per trace:

- **P4** (§5.2.4) — at every call into libVig, the contract's
  precondition is implied by the path condition at the call site.
- **P5** (§5.2.3) — every constraint a *model* imposed on its outputs is
  implied by the library contract's postcondition (given the path up to
  the call and the case-selecting branch decisions inside the call). An
  under-approximate model fails here; an over-approximate one passes here
  and fails in P1 instead — the paper's Fig. 4 taxonomy.
- **P1** (§5.2.2) — the NF's semantic property, woven into the trace by a
  semantics object (:mod:`repro.verif.semantics`).

P2 is aggregated from the engine's per-path checks, and P3 from an
executable refinement smoke-test of the real libVig structures against
their abstract models (the full P3 evidence is the refinement test-suite
in ``tests/libvig``).
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, List, Optional, Protocol, Tuple

from repro.verif.engine import ExplorationResult
from repro.verif.report import ProofReport, PropertyVerdict
from repro.verif.semantics import Obligation
from repro.verif.solver import Solver
from repro.verif.trace import PathTrace


class SemanticProperty(Protocol):
    """What the Validator needs from an NF's semantic specification."""

    name: str

    def obligations(self, trace: PathTrace) -> List[Obligation]: ...


#: Per sub-proof checked trace by trace: (obligations, failures).
TraceVerdicts = Dict[str, Tuple[int, List[str]]]


def check_trace(
    trace: PathTrace, semantics: Optional[SemanticProperty]
) -> TraceVerdicts:
    """Every per-trace check of one trace: P1, P2, P4 and P5.

    Module-level so it pickles; §5.2.2 notes trace verification is
    highly parallelizable (the paper: 38 min on one core, 11 min on
    four) — traces are independent proof tasks.
    """
    solver = Solver(trace.widths)
    where = f"path {trace.path_id}"
    p1: List[str] = []
    p2: List[str] = []
    p4: List[str] = []
    p5: List[str] = []
    p4_count = p5_count = 0

    # P2: aggregated from the engine's checks along the path.
    if trace.crashed is not None:
        p2.append(f"{where}: crashed: {trace.crashed}")
    for check in trace.checks:
        if not check.proven:
            p2.append(
                f"{where}: {check.kind} {check.detail} "
                f"counterexample={check.counterexample}"
            )

    for call in trace.calls:
        pc_before = trace.pc[: call.pc_start]
        # P4: the precondition holds at the call site.
        for pre in call.pre:
            p4_count += 1
            if not solver.proves(pc_before, pre):
                p4.append(
                    f"{where}: {call.fn} precondition {pre} "
                    "not implied by the path condition"
                )
        # P5: what the model imposed on its outputs is justified by the
        # contract's postcondition. A call with no contract clauses is a
        # trusted model (DPDK, nf_time): part of the TCB (§5.4).
        if not call.model_constraints or not (call.post or call.pre):
            continue
        antecedent = list(pc_before)
        antecedent.extend(trace.pc[i] for i in call.selector_indices)
        antecedent.extend(call.post)
        for constraint in call.model_constraints:
            p5_count += 1
            if not solver.proves(antecedent, constraint):
                p5.append(
                    f"{where}: {call.fn} model constraint "
                    f"{constraint} not justified by the contract"
                )

    # P1: the specification's obligations, woven into this trace.
    obligations = semantics.obligations(trace) if semantics is not None else []
    for obligation in obligations:
        if not obligation.structural_ok:
            p1.append(
                f"{where}: {obligation.name} (structural): {obligation.detail}"
            )
        elif not solver.proves(trace.pc, obligation.formula):
            p1.append(
                f"{where}: {obligation.name} not provable: {obligation.formula}"
            )
    return {
        "P1": (len(obligations), p1),
        "P2": (len(trace.checks), p2),
        "P4": (p4_count, p4),
        "P5": (p5_count, p5),
    }


class Validator:
    """Stitches the sub-proofs of Fig. 7 into one report."""

    def __init__(self, semantics: Optional[SemanticProperty] = None) -> None:
        self.semantics = semantics

    # -- P3: executable refinement smoke-test ----------------------------------------
    @staticmethod
    def refinement_smoke(operations: int = 400, seed: int = 2017) -> List[str]:
        """Drive real libVig structures against their abstract models.

        The full evidence for P3 is the property-based refinement suite
        in ``tests/libvig``; this in-process smoke keeps the proof report
        self-contained.
        """
        from repro.libvig.abstract import chain_times_nondecreasing
        from repro.libvig.contracts import checked
        from repro.libvig.double_chain import DoubleChain
        from repro.libvig.map import Map

        failures: List[str] = []
        rng = random.Random(seed)
        with checked():
            concrete = Map(capacity=32)
            chain = DoubleChain(16)
            clock = 0
            for _ in range(operations):
                op = rng.randrange(4)
                try:
                    if op == 0 and not concrete.full():
                        key = rng.randrange(64)
                        if not concrete.has(key):
                            concrete.put(key, rng.randrange(1000))
                    elif op == 1:
                        live = [k for k, _ in concrete.items()]
                        if live:
                            concrete.erase(rng.choice(live))
                    elif op == 2:
                        clock += rng.randrange(3)
                        if chain.size() < chain.index_range:
                            chain.allocate_new_index(clock)
                    else:
                        clock += rng.randrange(3)
                        state = chain._abstract_state()
                        if state.cells:
                            chain.rejuvenate_index(
                                rng.choice(state.allocated()), clock
                            )
                except Exception as exc:  # noqa: BLE001 - report, don't die
                    failures.append(f"refinement smoke: {exc}")
                    break
                if not chain_times_nondecreasing(chain._abstract_state().cells):
                    failures.append("chain timestamp ordering violated")
                    break
        return failures

    # -- the stitched proof --------------------------------------------------------
    def validate(
        self,
        result: ExplorationResult,
        nf_name: str = "nf",
        processes: int = 1,
    ) -> ProofReport:
        """Run P1/P4/P5 over every trace and assemble the Fig. 7 report.

        ``processes > 1`` validates traces in parallel (each trace is an
        independent proof task, §5.2.2); results are identical to the
        sequential run.
        """
        traces = result.tree.paths
        if processes > 1:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=processes) as pool:
                outcomes = list(
                    pool.map(check_trace, traces, itertools.repeat(self.semantics))
                )
        else:
            outcomes = [check_trace(trace, self.semantics) for trace in traces]

        def verdict(
            name: str, title: str, note: str = "", provable: bool = True
        ) -> PropertyVerdict:
            failures = [f for outcome in outcomes for f in outcome[name][1]]
            return PropertyVerdict(
                name=name,
                title=title,
                proven=provable and not failures,
                obligations=sum(outcome[name][0] for outcome in outcomes),
                failures=failures,
                note=note,
            )

        if self.semantics is not None:
            p1 = verdict("P1", self.semantics.name)
        else:
            title = "semantic properties (no spec supplied)"
            p1 = verdict("P1", title, "skipped", provable=False)
        p3_failures = self.refinement_smoke()
        return ProofReport(
            nf_name=nf_name,
            properties=[
                p1,
                verdict("P2", "low-level properties (crash-freedom, bounds, overflow)"),
                PropertyVerdict(
                    name="P3",
                    title="libVig implementation refines its contracts",
                    proven=not p3_failures,
                    obligations=1,
                    failures=p3_failures,
                    note="full evidence: tests/libvig refinement suite",
                ),
                verdict("P4", "stateless code respects libVig preconditions"),
                verdict("P5", "libVig models faithful to the contracts"),
            ],
            paths=result.tree.path_count(),
            traces=result.tree.trace_count(),
            solver_queries=result.stats.solver_queries,
            wall_seconds=result.stats.wall_seconds,
        )
