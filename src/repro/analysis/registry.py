"""The lint rule registry: stable codes, severities, fingerprints.

Every analysis pass is a :class:`Rule` — a stable ``TLP1xx``/``TLP2xx``/
``TLP3xx`` code, a kebab-case slug, a default severity, the paper
section it enforces, and a check function over a
:class:`~repro.analysis.context.LintContext`.  Rules register themselves
into a :class:`RuleRegistry` (module import order is irrelevant — rules
always run in code order), and a :class:`LintConfig` selects/re-levels
them per run.

The registry also answers the cache-invalidation question: the
*fingerprint* of an enabled rule set is a stable digest over the
analyzer version plus each enabled rule's code and severity.  The batch
service folds it into every result-cache key, so adding a rule,
disabling one, or changing a severity re-lints exactly the affected
corpus instead of silently replaying stale verdicts.

Code space:

* ``TLP000`` — reserved: "no code assigned" (plain checker diagnostics);
* ``TLP001`` — syntax errors surfaced by the linter;
* ``TLP1xx`` — constraint-set (declaration) analyses;
* ``TLP2xx`` — clause/query analyses;
* ``TLP3xx`` — dataflow (mode / information-flow) analyses;
* ``TLP4xx`` — interprocedural success-set analyses (abstract
  interpretation over the call graph, ``repro.analysis.absint``);
* ``TLP5xx`` — declared-mode analyses (well-modedness and ill-moded
  call sites under ``MODE`` declarations, ``repro.analysis.modes``);
* ``TLP590`` — reserved: dynamic subject-reduction violations reported
  by ``--typed-run`` (``repro.core.typed_resolution``), outside the static
  rule registry on purpose;
* ``TLP6xx`` — typed-CLP analyses (polymorphic subtype-constraint
  solving and built-in constraint signatures,
  ``repro.analysis.polytypes``).
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Tuple

from ..checker.diagnostics import Severity

__all__ = [
    "ANALYZER_VERSION",
    "SYNTAX_ERROR_CODE",
    "Rule",
    "RuleRegistry",
    "LintConfig",
    "default_registry",
    "register",
]

#: Bumped on any change to a rule's semantics or message wording; part
#: of the rule-set fingerprint (and hence of batch cache keys).
#: "2": the TLP4xx success-set family + inference-backed TLP201 fix-its.
#: "3": the TLP5xx declared-mode family + TLP301 deferring to declared
#: modes when both flow endpoints carry them.
#: "4": the TLP6xx typed-CLP family (polymorphic constraint solving,
#: built-in signatures); TLP201/TLP104/TLP301 made polymorphism- and
#: built-in-aware.
ANALYZER_VERSION = "4"

#: Code attached to lexer/parser failures reported through the linter.
SYNTAX_ERROR_CODE = "TLP001"


@dataclass(frozen=True)
class Rule:
    """One analysis pass with its stable identity."""

    code: str  # "TLP101"
    slug: str  # "non-uniform-constraint"
    severity: str  # default severity (Severity.*)
    summary: str  # one-line description for --list-rules / SARIF
    paper: str  # the paper section/definition the rule enforces
    check: Callable[["LintContext"], None] = field(compare=False)  # type: ignore[name-defined]  # noqa: F821

    def __str__(self) -> str:
        return f"{self.code} [{self.severity}] {self.slug}: {self.summary}"


class RuleRegistry:
    """An ordered collection of rules, keyed by stable code."""

    def __init__(self) -> None:
        self._rules: Dict[str, Rule] = {}

    def add(self, rule: Rule) -> Rule:
        if rule.code in self._rules:
            raise ValueError(f"duplicate lint rule code {rule.code}")
        self._rules[rule.code] = rule
        return rule

    def get(self, code: str) -> Optional[Rule]:
        return self._rules.get(code)

    @property
    def rules(self) -> List[Rule]:
        """All rules in code order (stable across processes)."""
        return [self._rules[code] for code in sorted(self._rules)]

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules)

    def __len__(self) -> int:
        return len(self._rules)

    def selected(self, config: "LintConfig") -> List[Rule]:
        """The enabled rules under ``config``, severity overrides applied."""
        overrides = config.severity_map
        out: List[Rule] = []
        for rule in self.rules:
            if rule.code in config.disabled:
                continue
            override = overrides.get(rule.code)
            out.append(replace(rule, severity=override) if override else rule)
        return out

    def fingerprint(self, config: Optional["LintConfig"] = None) -> str:
        """Stable digest of the enabled rule set (+ analyzer version).

        This is what the batch service folds into cache keys: two runs
        share lint verdicts iff their fingerprints agree.
        """
        config = config or LintConfig()
        parts = [f"analyzer={ANALYZER_VERSION}"]
        for rule in self.selected(config):
            parts.append(f"{rule.code}={rule.severity}")
        digest = hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()
        return digest[:16]


@dataclass(frozen=True)
class LintConfig:
    """Per-run rule selection: disabled codes and severity overrides."""

    disabled: FrozenSet[str] = frozenset()
    severities: "Tuple[Tuple[str, str], ...]" = ()  # immutable mapping view

    def __post_init__(self) -> None:
        object.__setattr__(self, "disabled", frozenset(self.disabled))
        if isinstance(self.severities, dict):
            object.__setattr__(
                self, "severities", tuple(sorted(self.severities.items()))
            )

    @property
    def severity_map(self) -> Dict[str, str]:
        return dict(self.severities)

    @classmethod
    def from_spec(cls, disable: str = "", severities: str = "") -> "LintConfig":
        """Build from comma-separated CLI specs.

        ``disable`` is ``"TLP203,TLP104"``; ``severities`` is
        ``"TLP301=error,TLP203=note"``.
        """
        disabled = frozenset(
            code.strip() for code in disable.split(",") if code.strip()
        )
        for code in disabled:
            if not re.fullmatch(r"TLP\d+", code):
                raise ValueError(
                    f"bad rule code {code!r} in disable spec (want TLPnnn)"
                )
        overrides: Dict[str, str] = {}
        for entry in severities.split(","):
            entry = entry.strip()
            if not entry:
                continue
            code, _, level = entry.partition("=")
            if level not in (Severity.ERROR, Severity.WARNING, Severity.NOTE):
                raise ValueError(
                    f"bad severity override {entry!r} "
                    f"(want CODE=error|warning|note)"
                )
            overrides[code.strip()] = level
        return cls(disabled=disabled, severities=tuple(sorted(overrides.items())))


_DEFAULT = RuleRegistry()


def default_registry() -> RuleRegistry:
    """The process-wide registry holding every built-in rule."""
    return _DEFAULT


def register(
    code: str,
    slug: str,
    severity: str,
    summary: str,
    paper: str,
) -> Callable[[Callable], Callable]:
    """Decorator: define a rule's check function and register it."""

    def decorate(function: Callable) -> Callable:
        rule = _DEFAULT.add(Rule(code, slug, severity, summary, paper, function))
        # Check functions reference their own identity when reporting;
        # note that per-run severity overrides are applied by the runner
        # (which rebinds ``_rule`` around the call), not here.
        function._rule = rule
        return function

    return decorate
