"""Input/output modes — the Section 7 extension, after [DH88].

The concluding remarks observe that subtypes and logic programming mix
uneasily: with ``PRED p(nat)`` and ``PRED q(int)``, the query
``:- p(X), q(X).`` would be fine when information flows sub→supertype
(``p`` binds ``X`` to a ``nat`` which ``q`` accepts) but unsound the
other way (``q`` binds ``X`` to ``pred(0)`` which ``p`` must never see).
One proposed solution is mode declarations ensuring information flows in
the appropriate direction::

    PRED p(OUT nat).
    PRED q(IN int).

This module is a faithful *reconstruction* of that sketch (the paper only
gives the example above; [DH88] is the reference design).  The rules:

* Goals are processed left to right (the standard computation rule).
* An ``OUT`` argument position of a body goal *produces* its variables at
  the position's declared type; an ``IN`` position *consumes* them.
* In a clause, the head's ``IN`` positions produce (the caller supplies
  well-typed inputs) and its ``OUT`` positions consume at the end of the
  body (the clause must deliver them).
* A consumer occurrence of ``x`` at declared type ``τ`` is direction-safe
  iff ``x`` was already produced and **every** production type ``σ`` of
  ``x`` satisfies ``τ ⪰_C σ`` — information only ever flows from a
  subtype to a supertype.

The check is per-variable and per-argument-position; non-variable
argument terms are treated as produced/consumed atomically using the
clause's typing for their variables.

:func:`dataflow` is the one implementation of this pass.  It takes the
per-atom position types as input: :class:`ModeChecker` feeds it the
declared types, and the directional fallback of
:class:`~repro.core.moded_welltyped.ModedWellTypedChecker` (its
Condition 2) feeds it the committed types of a clause typing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..lp.clause import Clause, Program, Query
from ..terms.pretty import pretty
from ..terms.term import Struct, Term, Var, variables_of
from .declarations import ConstraintSet, DeclarationError
from .predicate_types import PredicateTypeEnv
from .subtype import SubtypeEngine

__all__ = [
    "IN",
    "OUT",
    "FLOW",
    "UNPRODUCED",
    "ModeEnv",
    "ModeViolation",
    "ModeChecker",
    "ModeReport",
    "dataflow",
]

IN = "IN"
OUT = "OUT"

_Indicator = Tuple[str, int]


class ModeEnv:
    """Mode declarations ``MODE p(IN, ..., OUT).`` — one per predicate."""

    def __init__(self) -> None:
        self._modes: Dict[_Indicator, Tuple[str, ...]] = {}

    def declare(self, name: str, modes: Sequence[str]) -> None:
        for mode in modes:
            if mode not in (IN, OUT):
                raise DeclarationError(f"mode must be IN or OUT, got {mode}")
        indicator = (name, len(modes))
        existing = self._modes.get(indicator)
        if existing is not None and existing != tuple(modes):
            raise DeclarationError(f"conflicting mode declarations for {name}/{len(modes)}")
        self._modes[indicator] = tuple(modes)

    def modes_of(self, atom: Struct) -> Optional[Tuple[str, ...]]:
        """Declared modes for ``atom``'s predicate, or ``None``."""
        return self._modes.get(atom.indicator)

    def items(self) -> List[Tuple[_Indicator, Tuple[str, ...]]]:
        """All declarations as ``((name, arity), modes)`` pairs."""
        return list(self._modes.items())

    def __len__(self) -> int:
        return len(self._modes)


#: :attr:`ModeViolation.kind` values.
FLOW = "flow"  # produced at a type that does not flow into the consumer
UNPRODUCED = "unproduced"  # consumed before any production


@dataclass
class ModeViolation:
    """One direction-safety failure.

    Beyond the human-readable ``reason``, the violation carries the
    structured facts tooling needs to *repair* the program: the failure
    ``kind``, the production type ``produced_type`` / consumer type
    ``consumer_type`` of a :data:`FLOW` failure (the filter predicate to
    insert is ``produced_type``→``consumer_type``), and whether the
    consuming occurrence is the clause head's ``OUT`` epilogue
    (``at_head``) or a body goal.  ``TLP502``'s machine-applicable
    fix-its are generated from exactly these fields.
    """

    atom: Struct
    position: int  # 0-based argument position
    variable: Var
    reason: str
    kind: str = FLOW  # FLOW | UNPRODUCED
    produced_type: Optional[Term] = None  # σ of a FLOW failure
    consumer_type: Optional[Term] = None  # τ of a FLOW failure
    at_head: bool = False  # consumer is the head's OUT epilogue

    def __str__(self) -> str:
        return (
            f"{pretty(self.atom)} argument {self.position + 1}: "
            f"variable {self.variable}: {self.reason}"
        )


@dataclass
class ModeReport:
    """All violations found in one clause/query (empty means mode-correct)."""

    violations: List[ModeViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok


def dataflow(
    head: Optional[Struct],
    body: Sequence[Struct],
    position_types: Sequence[Sequence[Term]],
    modes: ModeEnv,
    engine: SubtypeEngine,
) -> Iterator[ModeViolation]:
    """The producer/consumer pass over one clause (or query, ``head=None``).

    ``position_types`` holds one type per argument position for each
    atom, the head first when there is one.  The head's ``IN`` positions
    produce, then each body goal consumes its ``IN`` positions before
    producing its ``OUT`` positions, and the head's ``OUT`` positions
    consume last; within a stage positions go left to right.  Violations
    are yielded lazily in that order, so a caller that only needs the
    first one stops the pass (and its subtype goals) there.

    Predicates without a mode declaration default to all-``OUT`` on body
    occurrences and all-``IN`` on head occurrences — the permissive
    reading that reproduces the unmoded system's behaviour.
    """
    produced: Dict[Var, List[Term]] = {}
    types = iter(position_types)
    if head is not None:
        head_types = next(types)
        head_modes = modes.modes_of(head) or (IN,) * len(head.args)
        for arg, arg_type, mode in zip(head.args, head_types, head_modes):
            if mode == IN:
                for var in variables_of(arg):
                    produced.setdefault(var, []).append(arg_type)
    for goal, goal_types in zip(body, types):
        goal_modes = modes.modes_of(goal) or (OUT,) * len(goal.args)
        # Consumers first: the goal reads its IN arguments before binding
        # its OUT arguments.
        for position, (arg, arg_type, mode) in enumerate(
            zip(goal.args, goal_types, goal_modes)
        ):
            if mode == IN:
                yield from _consume(produced, engine, goal, position, arg, arg_type)
        for arg, arg_type, mode in zip(goal.args, goal_types, goal_modes):
            if mode == OUT:
                for var in variables_of(arg):
                    produced.setdefault(var, []).append(arg_type)
    if head is not None:
        for position, (arg, arg_type, mode) in enumerate(
            zip(head.args, head_types, head_modes)
        ):
            if mode == OUT:
                yield from _consume(
                    produced, engine, head, position, arg, arg_type, at_head=True
                )


def _consume(
    produced: Dict[Var, List[Term]],
    engine: SubtypeEngine,
    atom: Struct,
    position: int,
    arg: Term,
    arg_type: Term,
    at_head: bool = False,
) -> Iterator[ModeViolation]:
    """Violations of one consumer position against the productions so far."""
    for var in variables_of(arg):
        productions = produced.get(var)
        if not productions:
            yield ModeViolation(
                atom,
                position,
                var,
                "consumed in an IN position before being produced",
                kind=UNPRODUCED,
                consumer_type=arg_type,
                at_head=at_head,
            )
            continue
        for sigma in productions:
            if not engine.more_general(arg_type, sigma):
                yield ModeViolation(
                    atom,
                    position,
                    var,
                    f"produced at type {pretty(sigma)}, which does not "
                    f"flow into consumer type {pretty(arg_type)}",
                    kind=FLOW,
                    produced_type=sigma,
                    consumer_type=arg_type,
                    at_head=at_head,
                )


class ModeChecker:
    """Direction-safety of clauses and queries under mode declarations:
    :func:`dataflow` over the predicates' declared position types."""

    def __init__(
        self,
        constraints: ConstraintSet,
        predicate_types: PredicateTypeEnv,
        modes: ModeEnv,
        engine: Optional[SubtypeEngine] = None,
    ) -> None:
        self.constraints = constraints
        self.predicate_types = predicate_types
        self.modes = modes
        self.engine = engine or SubtypeEngine(constraints)

    # -- public API ---------------------------------------------------------

    def check_query(self, query: Query) -> ModeReport:
        """Direction-safety of a query's left-to-right execution."""
        return self._report(None, query.goals)

    def check_clause(self, clause: Clause) -> ModeReport:
        """Direction-safety of one clause: head INs produce, body runs
        left-to-right, head OUTs consume at the end."""
        return self._report(clause.head, clause.body)

    def check_program(self, program: Program) -> List[Tuple[Clause, ModeReport]]:
        """Check every clause; returns (clause, report) pairs."""
        return [(clause, self.check_clause(clause)) for clause in program]

    def _report(self, head: Optional[Struct], body: Sequence[Struct]) -> ModeReport:
        atoms = ([head] if head is not None else []) + list(body)
        declared = [self.predicate_types.type_of(atom).args for atom in atoms]
        return ModeReport(
            list(dataflow(head, body, declared, self.modes, self.engine))
        )
