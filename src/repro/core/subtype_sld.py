"""Naive, definitional subtype prover (Definition 3, literally).

``τ1 ⪰_C τ2`` *is defined as* the existence of an SLD-refutation of
``H_C ∪ {:- τ1 >= τ2}``.  This module runs exactly that: it builds the
Horn program ``H_C`` and searches it with the generic SLD engine.
Nothing strategy-like happens here on purpose — this is the semantic
oracle against which the deterministic strategy of Section 3
(``repro.core.subtype``) is differentially tested (experiment E2).

Search configuration and its consequences:

* depth-first with a depth bound and a step budget, plus the sound
  variant loop check (a branch whose resolvent is a variant of an
  ancestor resolvent cannot be on a *shortest* refutation);
* **positive answers are definitive**: a refutation found is a refutation
  of ``H_C``;
* **negative answers are only definitive when the bounded tree was
  exhausted** (``False``); otherwise the result is ``None`` (unknown at
  this budget).  Because the transitivity axiom gives ``H_C`` an
  infinitely deep SLD tree under any failing goal, a naive prover can
  essentially never *refute* a subtyping — which is precisely the problem
  Theorems 1–3 exist to solve: the deterministic strategy decides both
  directions, and experiment E2 measures the gap.

An unknown verdict (``None``) always carries a machine-readable
exhaustion reason: :attr:`NaiveSubtypeProver.last_exhaustion` is
``"steps"`` when the step budget aborted the search and ``"depth"`` when
only the depth bound pruned branches; :meth:`NaiveSubtypeProver
.holds_detailed` returns verdict and reason together.  The E2
differential tests assert the reason on every unknown.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Set

from ..lp.database import Database
from ..lp.resolution import SLDResult, solve, solve_iterative_deepening
from ..obs import METRICS, SubtypeGoalEvent, span
from ..terms.freeze import freeze
from ..terms.pretty import pretty
from ..terms.term import Struct, Term, subterms
from .declarations import ConstraintSet
from .horn import horn_program, subtype_goal

__all__ = ["NaiveVerdict", "NaiveSubtypeProver"]


@dataclass(frozen=True)
class NaiveVerdict:
    """A three-valued verdict plus the reason an unknown is unknown."""

    verdict: Optional[bool]
    exhaustion: Optional[str] = None  # "steps" | "depth" | None

    @property
    def unknown(self) -> bool:
        return self.verdict is None


class NaiveSubtypeProver:
    """Bounded SLD search over ``H_C``."""

    def __init__(
        self,
        constraints: ConstraintSet,
        max_depth: int = 24,
        step_limit: int = 60_000,
        variant_check: bool = True,
    ) -> None:
        self.constraints = constraints
        self.max_depth = max_depth
        self.step_limit = step_limit
        self.variant_check = variant_check
        # Why the most recent query came back unknown: "steps" | "depth"
        # (None after a definitive answer).
        self.last_exhaustion: Optional[str] = None
        # The base H_C database (no frozen constants) is cached; goals that
        # mention frozen constants trigger a rebuild with the extra
        # degenerate substitution axioms.
        self._base_database = Database(horn_program(constraints))

    # -- alphabet plumbing --------------------------------------------------

    def _undeclared_constants(self, *terms: Term) -> Set[str]:
        symbols = self.constraints.symbols
        extra: Set[str] = set()
        for term in terms:
            for sub in subterms(term):
                if isinstance(sub, Struct) and sub.functor not in (">=",):
                    if symbols.kind_of(sub.functor) is None:
                        if sub.args:
                            raise ValueError(
                                f"undeclared non-constant symbol {sub.functor}/{len(sub.args)}"
                            )
                        extra.add(sub.functor)
        return extra

    def _database_for(self, *terms: Term) -> Database:
        extra = self._undeclared_constants(*terms)
        if not extra:
            return self._base_database
        return Database(horn_program(self.constraints, extra_constants=sorted(extra)))

    # -- the three queries the paper builds on -------------------------------

    def _conclude(self, result: SLDResult) -> NaiveVerdict:
        """Turn a bounded SLD outcome into a verdict + exhaustion reason.

        When both bounds fired, ``steps`` wins: the step budget is what
        actually aborted the whole search (depth cutoffs alone leave the
        bounded tree fully explored round by round).
        """
        if result.answers:
            verdict = NaiveVerdict(True)
        elif result.complete:
            verdict = NaiveVerdict(False)
        elif result.hit_step_limit:
            verdict = NaiveVerdict(None, "steps")
        else:
            verdict = NaiveVerdict(None, "depth")
        self.last_exhaustion = verdict.exhaustion
        return verdict

    def holds(self, supertype: Term, subtype: Term) -> Optional[bool]:
        """``τ1 ⪰_C τ2`` (Definition 3), three-valued under the budget.

        On ``None`` (unknown), :attr:`last_exhaustion` records whether the
        ``"steps"`` budget or the ``"depth"`` bound gave out — use
        :meth:`holds_detailed` to get both together.
        """
        return self.holds_detailed(supertype, subtype).verdict

    def holds_detailed(self, supertype: Term, subtype: Term) -> NaiveVerdict:
        """Like :meth:`holds`, returning the verdict with its reason."""
        database = self._database_for(supertype, subtype)
        with span("naive.holds", SubtypeGoalEvent) as region:
            result = solve(
                database,
                [subtype_goal(supertype, subtype)],
                depth_limit=self.max_depth,
                step_limit=self.step_limit,
                max_answers=1,
                variant_check=self.variant_check,
            )
            verdict = self._conclude(result)
            self._record(region, supertype, subtype, verdict)
        return verdict

    def _record(
        self, region, supertype: Term, subtype: Term, verdict: NaiveVerdict
    ) -> None:
        """Mirror one naive query into the telemetry registry/tracer."""
        if METRICS.enabled:
            METRICS.inc("naive.goals")
            if verdict.verdict is True:
                METRICS.inc("naive.true")
            elif verdict.verdict is False:
                METRICS.inc("naive.false")
            else:
                METRICS.inc("naive.unknown")
                METRICS.inc(f"naive.exhausted_{verdict.exhaustion}")
        if region.traced:
            region.attach(
                supertype=pretty(supertype),
                subtype=pretty(subtype),
                engine="naive",
                result=verdict.verdict,
                reason=verdict.exhaustion,
            )

    def holds_iterative(
        self,
        supertype: Term,
        subtype: Term,
        start_depth: int = 4,
        depth_step: int = 4,
    ) -> Optional[bool]:
        """Like :meth:`holds` but via iterative deepening — shortest-proof
        search, used by the benchmark that characterises the naive
        prover's cost as a function of derivation depth."""
        database = self._database_for(supertype, subtype)
        with span("naive.holds", SubtypeGoalEvent) as region:
            result = solve_iterative_deepening(
                database,
                [subtype_goal(supertype, subtype)],
                max_depth=self.max_depth,
                start_depth=start_depth,
                depth_step=depth_step,
                step_limit_per_round=self.step_limit,
                max_answers=1,
                variant_check=self.variant_check,
            )
            verdict = self._conclude(result)
            self._record(region, supertype, subtype, verdict)
        return verdict.verdict

    def contains(self, type_term: Term, ground_term: Term) -> Optional[bool]:
        """``t ∈ M_C[[τ]]`` (Definition 4): ``τ ⪰_C t`` for ground ``t``."""
        return self.holds(type_term, ground_term)

    def more_general(self, general: Term, specific: Term) -> Optional[bool]:
        """Definition 5: ``τ1`` is more general than ``τ2`` iff ``τ1 ⪰_C τ̄2``."""
        return self.holds(general, freeze(specific))
