"""Typed execution: Theorem 6 made observable.

Theorem 6 (Consistency): *every resolvent of a well-typed negative clause
and a well-typed program clause is well-typed* — hence, by induction,
every resolvent produced during the execution of a well-typed program.
The corollary: every computed answer substitution is type consistent.

:class:`TypedInterpreter` runs a query with the stock SLD engine while
re-checking the well-typedness of **every** resolvent through the
module's checker: the strict Definition 16
:class:`~repro.core.welltyped.WellTypedChecker`, or the
:class:`~repro.core.moded_welltyped.ModedWellTypedChecker` for files with
``MODE`` declarations, so widening clauses like ``nat2int(X, X)`` do not
trip false alarms (the setting of Smaus–Fages–Deransart's "Using Modes
to Ensure Subject Reduction for Typed Logic Programs with Subtyping").
On a well-typed program/query the expected number of violations is
exactly zero; the experiment harness (E7) asserts this
over the canonical and randomly generated workloads and measures the
cost of the per-step re-checking against plain execution.

``run()`` takes one policy switch.  By default it *collects* every
violated resolvent and keeps executing (``tlp-check --run``, the REPL,
the experiments); with ``abort_on_violation`` it stops at the first one
(``tlp-check --typed-run``, which renders it as a span-carrying
diagnostic under :data:`TYPED_RUN_CODE`).  Each recorded
:class:`SubjectReductionViolation` carries the step index, the offending
resolvent, the checker's reason, and which checker path judged it.

Because the checker is (deliberately, like the paper's ``match``)
conservative in its ``⊥`` corners, a re-check could in principle reject a
genuinely well-typed resolvent; violations therefore record the checker's
reason so the experiment can distinguish "type inconsistency" from
"checker incompleteness".  On the paper's own examples neither occurs.

Telemetry rides under ``typed.*`` and every re-check emits a
:class:`~repro.obs.events.ResolventCheckEvent` when tracing is on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from ..lp.clause import Program, Query
from ..lp.database import Database
from ..lp.resolution import SLDEngine
from ..obs import METRICS, TRACER, ResolventCheckEvent, span
from ..terms.pretty import pretty
from ..terms.substitution import Substitution
from ..terms.term import Struct
from .moded_welltyped import ModedClauseReport, ModedWellTypedChecker
from .welltyped import ClauseReport, WellTypedChecker

__all__ = [
    "TYPED_RUN_CODE",
    "SubjectReductionViolation",
    "TypedExecutionError",
    "TypedExecutionResult",
    "TypedInterpreter",
]

#: Stable diagnostic code for a dynamic subject-reduction violation —
#: outside the registered TLP5xx *static* rule family on purpose: the
#: verdict comes from execution, not from a lint pass.
TYPED_RUN_CODE = "TLP590"


class TypedExecutionError(Exception):
    """Raised when asked to run a program/query that is not well-typed."""

    def __init__(self, message: str, report: Optional[ClauseReport] = None) -> None:
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class SubjectReductionViolation:
    """One resolvent that failed its per-step re-check."""

    step: int  # 1-based resolution step within the query
    goals: Tuple[Struct, ...]  # the offending resolvent
    reason: str  # the checker's rejection reason
    via: Optional[str] = None  # "strict" | "directional" (moded checker only)

    def render(self) -> str:
        resolvent = ", ".join(pretty(goal) for goal in self.goals)
        return (
            f"subject reduction violated at resolution step {self.step}: "
            f"resolvent `{resolvent}` is not well-typed — {self.reason}"
        )


@dataclass
class TypedExecutionResult:
    """Answers plus the consistency evidence collected along the way."""

    answers: List[Substitution] = field(default_factory=list)
    resolvents_checked: int = 0
    violations: List[SubjectReductionViolation] = field(default_factory=list)
    answers_checked: int = 0
    answer_violations: List[Tuple[Substitution, str]] = field(default_factory=list)

    @property
    def consistent(self) -> bool:
        """True iff no resolvent or answer failed its well-typedness check."""
        return not self.violations and not self.answer_violations


class _Aborted(Exception):
    """Unwinds the SLD engine at the first violated resolvent."""


class TypedInterpreter:
    """SLD execution with per-resolvent well-typedness re-checking."""

    def __init__(
        self,
        checker: Union[WellTypedChecker, ModedWellTypedChecker],
        program: Program,
        check_program: bool = True,
    ) -> None:
        self.checker = checker
        self.program = program
        if check_program:
            program_report = checker.check_program(program)
            if not program_report.well_typed:
                clause, report = program_report.failures()[0]
                raise TypedExecutionError(
                    f"program clause is not well-typed: {clause} — {report.reason}",
                    report,
                )
        self.database = Database(program)

    def run(
        self,
        query: Query,
        max_answers: Optional[int] = None,
        depth_limit: Optional[int] = None,
        check_resolvents: bool = True,
        check_answers: bool = True,
        check_query: bool = True,
        abort_on_violation: bool = False,
    ) -> TypedExecutionResult:
        """Execute ``query``; collect answers and consistency evidence.

        With ``abort_on_violation`` execution stops at the first
        ill-typed resolvent, which is then the only recorded violation.
        """
        if check_query:
            query_report = self.checker.check_query(query)
            if not query_report.well_typed:
                raise TypedExecutionError(
                    f"query is not well-typed: {query} — {query_report.reason}",
                    query_report,
                )
        result = TypedExecutionResult()

        def on_resolvent(goals: Tuple[Struct, ...]) -> None:
            result.resolvents_checked += 1
            if METRICS.enabled:
                METRICS.inc("typed.resolvents_checked")
            if not goals:
                return  # the empty clause is trivially well-typed
            report = self.checker.check_resolvent(goals)
            via = report.via if isinstance(report, ModedClauseReport) else "strict"
            if TRACER.enabled:
                TRACER.point(
                    ResolventCheckEvent,
                    step=result.resolvents_checked,
                    size=len(goals),
                    well_typed=bool(report.well_typed),
                    via=via,
                    reason=report.reason,
                )
            if report.well_typed:
                return
            result.violations.append(
                SubjectReductionViolation(
                    step=result.resolvents_checked,
                    goals=goals,
                    reason=report.reason or "unknown",
                    via=via,
                )
            )
            if METRICS.enabled:
                METRICS.inc("typed.violations")
            if abort_on_violation:
                raise _Aborted

        engine = SLDEngine(
            self.database,
            on_resolvent=on_resolvent if check_resolvents else None,
        )
        if METRICS.enabled:
            METRICS.inc("typed.queries")
        detail = (
            ", ".join(pretty(goal) for goal in query.goals)
            if TRACER.enabled
            else ""
        )
        with span("typed.query", detail=detail):
            try:
                for answer in engine.solve(query.goals, depth_limit=depth_limit):
                    result.answers.append(answer)
                    if check_answers:
                        result.answers_checked += 1
                        instantiated = tuple(answer.apply(goal) for goal in query.goals)
                        report = self.checker.check_resolvent(instantiated)  # type: ignore[arg-type]
                        if not report.well_typed:
                            result.answer_violations.append(
                                (answer, report.reason or "unknown")
                            )
                            if METRICS.enabled:
                                METRICS.inc("typed.answer_violations")
                    if max_answers is not None and len(result.answers) >= max_answers:
                        break
            except _Aborted:
                if METRICS.enabled:
                    METRICS.inc("typed.aborts")
        if METRICS.enabled:
            METRICS.inc("typed.answers", len(result.answers))
            METRICS.gauge_max("typed.max_resolvents_per_query", result.resolvents_checked)
        return result
