"""--typed-run's engine: per-resolvent subject reduction (Theorem 6).

``TypedInterpreter.run`` either collects every ill-typed resolvent or,
with ``abort_on_violation``, stops at the first one.
"""

from repro.checker import check_text
from repro.core import TYPED_RUN_CODE, TypedInterpreter
from repro.workloads import APPEND

MODED = """\
TYPE nat, int.
FUNC 0, succ, pred.
int >= nat.
nat >= 0 + succ(nat).
int >= pred(int).
PRED produce(nat).
MODE produce(OUT).
produce(succ(0)).
PRED consume(int).
MODE consume(IN).
consume(X) :- nat2int(X, X).
PRED nat2int(nat, int).
MODE nat2int(IN, OUT).
nat2int(X, X).
:- produce(X), consume(X).
"""

#: makeint delivers a genuine int (pred(0)) into a nat-only consumer:
#: statically plausible under X : nat, dynamically a Theorem 6 violation.
ILL_MODED = """\
TYPE nat, int.
FUNC 0, pred.
int >= nat.
nat >= 0.
int >= pred(int).
PRED makeint(int).
MODE makeint(OUT).
makeint(pred(0)).
PRED usenat(nat).
MODE usenat(IN).
usenat(0).
:- makeint(X), usenat(X).
"""


def interpreter_for(text):
    module = check_text(text)
    checker = module.moded_checker or module.checker
    assert checker is not None
    return module, TypedInterpreter(checker, module.program, check_program=False)


def typed_run(interpreter, query, **options):
    """The ``--typed-run`` configuration: abort at the first violation."""
    return interpreter.run(
        query, check_query=False, check_answers=False, abort_on_violation=True,
        **options,
    )


def test_well_moded_query_holds_subject_reduction():
    module, interpreter = interpreter_for(MODED)
    result = typed_run(interpreter, module.queries[0])
    assert result.consistent and result.violations == []
    assert len(result.answers) == 1
    assert result.resolvents_checked >= 2  # at least one resolvent per body goal


def test_ill_moded_query_aborts_at_the_first_bad_resolvent():
    module, interpreter = interpreter_for(ILL_MODED)
    result = typed_run(interpreter, module.queries[0])
    assert not result.consistent
    [violation] = result.violations
    assert violation.step == 1
    assert violation.via == "directional"  # judged by the moded checker
    assert "usenat(pred(0))" in violation.render()
    assert "subject reduction violated at resolution step 1" in violation.render()


def test_abort_on_violation_false_records_but_keeps_running():
    # A second makeint clause gives the search somewhere to go after the
    # ill-typed resolvent usenat(pred(0)) fails.
    module, interpreter = interpreter_for(ILL_MODED + "makeint(0).\n")
    collected = interpreter.run(module.queries[0], check_query=False)
    assert [v.step for v in collected.violations] == [1]
    # Execution continued past the violation: usenat(0) (step 2) and the
    # empty clause (step 3) were reached and the query answered X = 0.
    assert collected.resolvents_checked == 3
    assert [str(answer) for answer in collected.answers] == ["{X -> 0}"]
    aborted = typed_run(interpreter, module.queries[0])
    assert aborted.resolvents_checked == 1 and aborted.answers == []


def test_abort_records_exactly_the_collect_policys_first_violation():
    module, interpreter = interpreter_for(ILL_MODED)
    aborted = typed_run(interpreter, module.queries[0])
    collected = interpreter.run(module.queries[0], check_query=False)
    assert len(aborted.violations) == 1
    [first] = aborted.violations
    expected = collected.violations[0]
    assert (first.step, first.goals, first.reason, first.via) == (
        expected.step, expected.goals, expected.reason, expected.via,
    )
    assert first.render() == expected.render()


def test_unmoded_program_uses_the_strict_checker():
    module = check_text(APPEND + ":- app(cons(nil,nil), nil, R).\n")
    assert module.moded_checker is None
    interpreter = TypedInterpreter(module.checker, module.program, check_program=False)
    result = typed_run(interpreter, module.queries[0])
    assert result.consistent and len(result.answers) == 1


def test_max_answers_stops_enumeration():
    module = check_text(APPEND + ":- app(X, Y, cons(nil,nil)).\n")
    interpreter = TypedInterpreter(module.checker, module.program, check_program=False)
    result = typed_run(interpreter, module.queries[0], max_answers=1)
    assert result.consistent and len(result.answers) == 1


def test_typed_run_code_is_reserved_outside_the_static_family():
    from repro.analysis import default_registry

    assert TYPED_RUN_CODE == "TLP590"
    assert all(rule.code != TYPED_RUN_CODE for rule in default_registry())
