"""A moded clause that calls an undeclared predicate is reported, not
raised: ``check_text``, ``tlp-check`` and the daemon all give the same
"no predicate type declared" diagnostic the unmoded form gets."""

import pytest

from repro.checker import check_text
from repro.checker.cli import main
from repro.service.daemon import CheckService

PRELUDE = (
    "FUNC 0, succ, pred.\n"
    "TYPE nat, unnat, int.\n"
    "nat >= 0 + succ(nat).\n"
    "unnat >= 0 + pred(unnat).\n"
    "int >= nat + unnat.\n"
)

MODED = PRELUDE + "PRED p(IN nat).\np(X) :- q(X).\n"
UNMODED = PRELUDE + "PRED p(nat).\np(X) :- q(X).\n"

MESSAGE = (
    "error: clause is not well-typed: p(X) :- q(X). — "
    "no predicate type declared for q/1"
)
EXPECTED = "7:1: " + MESSAGE


def _messages(module):
    """Diagnostics without their ``line:column:`` prefix."""
    return [str(d).split(" ", 1)[1] for d in module.diagnostics]


@pytest.mark.parametrize(
    "source",
    [
        MODED,
        PRELUDE + "PRED p(OUT nat).\np(X) :- q(X).\n",
        PRELUDE + "PRED p(nat).\nMODE p(IN).\np(X) :- q(X).\n",
    ],
    ids=["inline-in", "inline-out", "mode-decl"],
)
def test_check_text_reports_the_unmoded_diagnostic(source):
    module = check_text(source)
    assert not module.ok
    assert _messages(module) == [MESSAGE]
    assert _messages(check_text(UNMODED)) == [MESSAGE]


def test_moded_query_with_undeclared_predicate_is_reported():
    module = check_text(MODED + ":- q(0).\n")
    assert [str(d) for d in module.diagnostics] == [
        EXPECTED,
        "8:1: error: query is not well-typed: :- q(0). — "
        "no predicate type declared for q/1",
    ]


def test_tlp_check_exits_one(tmp_path, capsys):
    path = tmp_path / "m.tlp"
    path.write_text(MODED)
    assert main([str(path)]) == 1
    assert capsys.readouterr().out == f"{path}:{EXPECTED}\n"


def test_daemon_check_answers_with_the_diagnostic():
    response = CheckService().handle({"op": "check", "text": MODED})
    assert response["ok"] is True
    assert response["well_typed"] is False
    assert response["diagnostics"] == [EXPECTED]
