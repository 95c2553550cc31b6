"""Differential properties of the hash-consing term kernel.

Interning is a representation optimisation, never a semantic one: terms
built with the intern table on and off must be indistinguishable to every
observer — printing, parsing, equality/hashing, and above all the subtype
and match engines, down to their exact work counters.  These tests pin
that down on the random workloads the benchmark generators emit.
"""

import contextlib
import random
from pathlib import Path

import pytest

from repro.core.match import Matcher, is_typing_result
from repro.core.subtype import SubtypeEngine
from repro.lang import parse_term
from repro.terms.pretty import pretty
from repro.terms.term import (
    Struct,
    Var,
    clear_intern_table,
    intern_stats,
    interning_enabled,
    set_interning,
)
from repro.workloads import APPEND, deep_nat, nat_list, paper_universe
from repro.workloads.generators import (
    random_guarded_constraint_set,
    random_subtype_pair,
    random_type,
)

SEEDS = [7, 23, 101]


@contextlib.contextmanager
def interning(on):
    previous = set_interning(on)
    try:
        yield
    finally:
        set_interning(previous)


def _random_terms(seed, count=20):
    rng = random.Random(seed)
    constraints = random_guarded_constraint_set(rng)
    terms = [random_type(rng, constraints, depth=4) for _ in range(count)]
    terms += [deep_nat(50), nat_list(10, 2)]
    return terms


# -- construction canonicalisation -------------------------------------------------


def test_interning_is_on_by_default():
    assert interning_enabled()


def test_equal_construction_yields_the_same_object():
    with interning(True):
        one = Struct("cons", (Struct("0", ()), Struct("nil", ())))
        two = Struct("cons", (Struct("0", ()), Struct("nil", ())))
        assert one is two
        assert Var("X") is Var("X")


def test_disabled_interning_yields_distinct_objects():
    with interning(False):
        one = Struct("cons", (Struct("0", ()), Struct("nil", ())))
        two = Struct("cons", (Struct("0", ()), Struct("nil", ())))
        assert one is not two
        assert one == two and hash(one) == hash(two)


def test_intern_table_records_traffic():
    with interning(True):
        clear_intern_table()
        tower = deep_nat(30)  # held: weak table entries live with the referent
        stats = intern_stats()
        assert stats.misses > 0
        rebuilt = deep_nat(30)  # identical tower: every node is a hit now
        assert rebuilt is tower
        again = intern_stats()
        assert again.hits >= stats.hits + 30
        assert again.size > 0


def test_mixed_populations_compare_and_hash_identically():
    """Terms built under either setting mix freely in sets/dicts."""
    with interning(True):
        interned = nat_list(5, 2)
    with interning(False):
        plain = nat_list(5, 2)
    assert interned == plain and plain == interned
    assert hash(interned) == hash(plain)
    assert len({interned, plain}) == 1
    table = {interned: "value"}
    assert table[plain] == "value"


# -- round-trips --------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_parse_intern_pretty_round_trip(seed):
    for term in _random_terms(seed):
        text = pretty(term)
        with interning(True):
            assert parse_term(text) == term
            assert pretty(parse_term(text)) == text
        with interning(False):
            assert parse_term(text) == term
            assert pretty(parse_term(text)) == text


def test_pickle_reinterns():
    import pickle

    with interning(True):
        term = nat_list(4, 3)
        clone = pickle.loads(pickle.dumps(term))
        assert clone is term  # unpickling routes through the intern table
    with interning(False):
        clone = pickle.loads(pickle.dumps(term))
        assert clone == term and clone is not term


# -- engine agreement ---------------------------------------------------------------


def _subtype_workload(seed, goals=25):
    """(constraints, [(supertype, candidate), ...]) built under the
    *current* interning setting — call once per setting with one seed."""
    rng = random.Random(seed)
    constraints = random_guarded_constraint_set(rng)
    pairs = [random_subtype_pair(rng, constraints) for _ in range(goals)]
    return constraints, pairs


@pytest.mark.parametrize("seed", SEEDS)
def test_subtype_verdicts_and_counters_agree(seed):
    """Interned and non-interned engines agree on every ``holds`` verdict
    AND on the exact SubtypeStats work counters — interning must not
    change a single algorithm step, only the cost of each step."""
    with interning(True):
        constraints_a, pairs_a = _subtype_workload(seed)
        engine_a = SubtypeEngine(constraints_a)
        verdicts_a = [engine_a.holds(sup, sub) for sup, sub in pairs_a]
        stats_a = engine_a.stats
    with interning(False):
        constraints_b, pairs_b = _subtype_workload(seed)
        engine_b = SubtypeEngine(constraints_b)
        verdicts_b = [engine_b.holds(sup, sub) for sup, sub in pairs_b]
        stats_b = engine_b.stats
    assert pairs_a == pairs_b  # same seed, same workload, either way
    assert verdicts_a == verdicts_b
    assert stats_a == stats_b


@pytest.mark.parametrize("seed", SEEDS)
def test_match_verdicts_agree(seed):
    with interning(True):
        constraints_a, pairs_a = _subtype_workload(seed)
        matcher_a = Matcher(constraints_a)
        results_a = [matcher_a.match(sup, sub) for sup, sub in pairs_a]
    with interning(False):
        constraints_b, pairs_b = _subtype_workload(seed)
        matcher_b = Matcher(constraints_b)
        results_b = [matcher_b.match(sup, sub) for sup, sub in pairs_b]
    assert len(results_a) == len(results_b)
    for result_a, result_b in zip(results_a, results_b):
        assert is_typing_result(result_a) == is_typing_result(result_b)
        if is_typing_result(result_a):
            assert dict(result_a.items()) == dict(result_b.items())
        else:
            assert repr(result_a) == repr(result_b)  # fail vs bottom


def test_paper_universe_membership_agrees():
    nat = parse_term("nat")
    towers = [deep_nat(depth) for depth in (0, 1, 7, 40)]
    with interning(True):
        engine = SubtypeEngine(paper_universe())
        expected = [engine.contains(nat, tower) for tower in towers]
    with interning(False):
        engine = SubtypeEngine(paper_universe())
        plain_towers = [deep_nat(depth) for depth in (0, 1, 7, 40)]
        assert [engine.contains(nat, t) for t in plain_towers] == expected


POLYTYPES_CORPUS = (
    Path(__file__).resolve().parents[2] / "examples/corpus/lint/polytypes.tlp"
)


@pytest.mark.parametrize("source", ["append", "polytypes"])
def test_lint_pipeline_output_identical_without_interning(tmp_path, capsys, source):
    # Whole pipeline: parse, check, and every lint family (the TLP6xx
    # solver leans on the subtype engine the hardest) must report the
    # same bytes whether or not terms are hash-consed.
    from repro.analysis.cli import main

    if source == "append":
        path = tmp_path / "append.tlp"
        path.write_text(APPEND)
    else:
        path = POLYTYPES_CORPUS
    with interning(True):
        baseline_code = main([str(path)])
    baseline = capsys.readouterr().out
    if source == "polytypes":
        assert "TLP601" in baseline
    with interning(False):
        assert main([str(path)]) == baseline_code
    assert capsys.readouterr().out == baseline
