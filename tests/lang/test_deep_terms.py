"""Deeply nested source terms: the parser keeps an explicit stack, so the
nesting a file may use is ``MAX_TERM_DEPTH`` rather than the interpreter's
recursion limit, and a term past that ceiling is a parse diagnostic."""

import os
import subprocess
import sys
from pathlib import Path

from repro.analysis import lint_text
from repro.checker import check_text
from repro.lang import parse_term
from repro.lang.parser import MAX_TERM_DEPTH

SRC = Path(__file__).resolve().parents[2] / "src"

PRELUDE = "FUNC 0, succ.\nTYPE nat.\nnat >= 0 + succ(nat).\nPRED p(nat).\np(0).\n"


def nested(depth, leaf="0"):
    return "succ(" * depth + leaf + ")" * depth


def test_query_nested_500_deep_parses_and_checks():
    # A fresh interpreter starts at the default recursion limit, which is
    # where a recursive-descent parser gives out.
    program = (
        "from repro.checker import check_text\n"
        f"module = check_text({PRELUDE!r} + ':- p(' + 'succ(' * 500 + '0' "
        "+ ')' * 500 + ').')\n"
        "assert module.ok, module.diagnostics.render()\n"
        "assert len(module.queries) == 1\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", program],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_term_at_the_ceiling_parses():
    term = parse_term(nested(MAX_TERM_DEPTH))
    depth = 0
    while term.args:
        term = term.args[0]
        depth += 1
    assert depth == MAX_TERM_DEPTH


def test_term_past_the_ceiling_is_a_parse_diagnostic():
    # ``p(`` is one level, so MAX_TERM_DEPTH ``succ(`` cross the ceiling
    # at the last one, whose "(" sits at column 5 + 5 * MAX_TERM_DEPTH.
    text = PRELUDE + ":- p(" + nested(MAX_TERM_DEPTH) + ")."
    column = 5 + 5 * MAX_TERM_DEPTH
    message = f"term nested deeper than {MAX_TERM_DEPTH} levels (found '(')"

    module = check_text(text)
    assert [str(d) for d in module.diagnostics] == [
        f"error: 6:{column}: {message}"
    ]

    report = lint_text(text)
    assert [d.code for d in report.diagnostics] == ["TLP001"]
    (finding,) = report.diagnostics
    assert (finding.position.line, finding.position.column) == (6, column)
    assert finding.message == message
