"""Declared-mode benchmarks: mode checking cost and --typed-run overhead.

Section 7 adds ``MODE`` declarations and the Smaus–Fages–Deransart
directional well-modedness check; ``--typed-run`` then re-checks every
SLD resolvent against the module's checker to witness Theorem 6 subject
reduction dynamically.  Both must stay cheap enough to leave on:

* **M1 per-clause** — :class:`ModedWellTypedChecker.check_clause` over a
  synthetic moded module whose widening clauses all need the
  *directional* fallback (the expensive path: commitment solving runs on
  every shared-variable clause), reported per clause;
* **M2/M3 typed-run overhead** — the same ``app/3`` query solved by the
  plain SLD engine and by :class:`TypedInterpreter` in its
  ``--typed-run`` configuration (abort at the first violation), so the
  per-resolvent re-check cost is the difference between the two rows.

Run standalone::

    python benchmarks/bench_modes.py [--quick] [--json OUT]

or let ``benchmarks/summary.py`` pull the rows into the one-shot table
(ids ``modes.*`` land in ``BENCH_subtype.json`` for the CI regression
gate).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro.checker import check_text
from repro.lp.database import Database
from repro.lp.resolution import SLDEngine
from repro.core import TypedInterpreter
from repro.workloads import APPEND

Row = Tuple[str, str]


def fmt(seconds: float) -> str:
    if seconds < 1e-3:
        return f"{seconds * 1e6:.0f}µs"
    if seconds < 1:
        return f"{seconds * 1e3:.1f}ms"
    return f"{seconds:.2f}s"


def _timed(thunk):
    start = time.perf_counter()
    value = thunk()
    return value, time.perf_counter() - start


def moded_module(predicates: int) -> str:
    """``predicates`` widening predicates, every clause moded.

    Each ``w<i>(X, X)`` echoes a nat back at int, so the strict
    Definition 16 check fails and the checker must fall through to the
    directional pass — the worst case we want the per-clause number for.
    """
    lines = [
        "TYPE nat, int.",
        "FUNC 0, succ, pred.",
        "int >= nat.",
        "nat >= 0 + succ(nat).",
        "int >= pred(int).",
    ]
    for index in range(predicates):
        lines.append(f"PRED w{index}(nat, int).")
        lines.append(f"MODE w{index}(IN, OUT).")
        lines.append(f"w{index}(X, X).")
    return "\n".join(lines) + "\n"


def _nested_list(length: int) -> str:
    term = "nil"
    for _ in range(length):
        term = f"cons(nil,{term})"
    return term


def modes_measurements(
    quick: bool = False,
) -> Tuple[List[Row], List[Dict[str, object]]]:
    """Run the declared-mode benchmarks once.

    Returns human-readable ``(label, measured)`` rows and machine rows
    (``{"id", "label", "ns_per_op"}``) for ``BENCH_subtype.json``.
    """
    rows: List[Row] = []
    machine: List[Dict[str, object]] = []

    # -- M1: directional mode check, per clause ----------------------------
    clause_count = 32 if quick else 256
    module = check_text(moded_module(clause_count))
    assert module.ok and module.moded_checker is not None

    def run_clauses():
        verdicts = module.moded_checker.check_program(module.program)
        assert all(report.well_typed for _, report in verdicts)
        return len(verdicts)

    checked, dt = _timed(run_clauses)
    assert checked == clause_count
    rows.append((f"M1 directional mode check, {clause_count} clauses", fmt(dt)))
    machine.append(
        {
            "id": "modes.check.per_clause",
            "label": f"directional mode check per clause, {clause_count}-clause module",
            "ns_per_op": dt * 1e9 / clause_count,
        }
    )

    # -- M2/M3: --typed-run overhead over plain resolution -----------------
    lengths = (16,) if quick else (64, 256)
    for length in lengths:
        appended = check_text(
            APPEND + f":- app({_nested_list(length)}, nil, R).\n"
        )
        assert appended.ok and appended.checker is not None
        query = appended.queries[0]

        def run_plain():
            engine = SLDEngine(Database(appended.program))
            return list(engine.solve(query.goals))

        answers, plain_dt = _timed(run_plain)
        assert len(answers) == 1
        rows.append((f"M2 plain SLD, app of {length}-element list", fmt(plain_dt)))
        machine.append(
            {
                "id": f"modes.plain.append.{length}",
                "label": f"plain SLD app/3, {length}-element list",
                "ns_per_op": plain_dt * 1e9,
            }
        )

        def run_typed():
            interpreter = TypedInterpreter(
                appended.checker, appended.program, check_program=False
            )
            return interpreter.run(
                query, check_query=False, check_answers=False, abort_on_violation=True
            )

        result, typed_dt = _timed(run_typed)
        steps = result.resolvents_checked
        assert result.consistent and len(result.answers) == 1
        assert steps == length + 1  # one resolvent per cons + the base fact
        overhead = typed_dt / plain_dt if plain_dt else float("inf")
        rows.append(
            (
                f"M3 --typed-run, app of {length}-element list "
                f"({steps} resolvents re-checked)",
                f"{fmt(typed_dt)}  ({overhead:.1f}x plain)",
            )
        )
        machine.append(
            {
                "id": f"modes.typed_run.append.{length}",
                "label": f"typed-run app/3, {length}-element list",
                "ns_per_op": typed_dt * 1e9,
            }
        )

    return rows, machine


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-smoke sizes")
    parser.add_argument("--json", metavar="OUT", default=None)
    arguments = parser.parse_args(argv)
    rows, machine = modes_measurements(quick=arguments.quick)
    width = max(len(label) for label, _ in rows) + 2
    for label, value in rows:
        print(label.ljust(width) + value)
    if arguments.json:
        with open(arguments.json, "w") as handle:
            json.dump({"measurements": machine}, handle, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
