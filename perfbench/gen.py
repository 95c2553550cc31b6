"""Seeded input generator for the end-to-end benchmark.

Every program is built from one of four shared declaration preludes plus
a run of predicate *groups* drawn from one family.  A group is a ``PRED``
declaration with its defining clauses, written so that it is well typed
under the paper's Definition 16 by construction: each variable keeps one
type across all its occurrences, and ground terms sit only at positions
whose declared type contains them.  Defects are spliced in from the
paper's Section 5 patterns (the shapes of ``ILL_TYPED_EXAMPLES``) at a
known line, so every expected verdict comes from how the text was built
and never from the checker.

The program under test only ever sees the generated text (or files
holding it).  The same seed always yields byte-identical inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

NAT = """\
FUNC 0, succ, pred.
TYPE nat, unnat, int.
nat >= 0 + succ(nat).
unnat >= 0 + pred(unnat).
int >= nat + unnat.
"""

LIST = NAT + """\
FUNC nil, cons.
TYPE elist, nelist, list.
elist >= nil.
nelist(A) >= cons(A,list(A)).
list(A) >= elist + nelist(A).
"""

TREE = LIST + """\
FUNC leaf, node, pair.
TYPE tree, prod.
tree(A) >= leaf + node(tree(A),A,tree(A)).
prod(A,B) >= pair(A,B).
"""

AST = NAT + """\
FUNC lit, add, mul, if_e, tt, ff, leq.
TYPE aexp, bexp, bool.
aexp >= lit(nat) + add(aexp, aexp) + mul(aexp, aexp) + if_e(bexp, aexp, aexp).
bexp >= tt + ff + leq(aexp, aexp).
bool >= tt + ff.
"""

#: The shared declaration preludes every generated file starts with.
PRELUDES: Dict[str, str] = {"nat": NAT, "list": LIST, "tree": TREE, "ast": AST}

#: Program families, each with the prelude it draws on.
FAMILIES: Dict[str, str] = {
    "poly_lists": "tree",
    "nat_arith": "nat",
    "ast_interp": "ast",
    "moded": "nat",
    "clp_builtins": "nat",
    "deep_facts": "list",
}


@dataclass(frozen=True)
class Expect:
    """The verdict a generated text must get, known from its construction.

    ``kind`` is ``clean`` (well typed, no diagnostics), ``defect`` (one
    error at ``line``), ``undeclared`` (one error at ``line``: a call to
    a predicate with no type declaration) or ``parse`` (one unpositioned
    syntax error).
    """

    kind: str
    line: int = 0
    pattern: str = ""

    @property
    def well_typed(self) -> bool:
        return self.kind == "clean"


@dataclass(frozen=True)
class Program:
    """One generated source text with its expected verdict."""

    name: str
    family: str
    text: str
    expect: Expect
    predicates: int
    clauses: int


# -- terms ---------------------------------------------------------------------


def nat_term(n: int) -> str:
    return "0" if n == 0 else "succ(" * n + "0" + ")" * n


def unnat_term(n: int) -> str:
    return "0" if n == 0 else "pred(" * n + "0" + ")" * n


def nat_list(values: List[int]) -> str:
    out = "nil"
    for value in reversed(values):
        out = f"cons({nat_term(value)},{out})"
    return out


def aexp_term(rng: random.Random, depth: int) -> str:
    if depth <= 0 or rng.random() < 0.3:
        return f"lit({nat_term(rng.randint(0, 3))})"
    op = rng.choice(["add", "mul", "if_e"])
    if op == "if_e":
        test = f"leq({aexp_term(rng, depth - 2)},{aexp_term(rng, depth - 2)})"
        return f"if_e({test},{aexp_term(rng, depth - 1)},{aexp_term(rng, depth - 1)})"
    return f"{op}({aexp_term(rng, depth - 1)},{aexp_term(rng, depth - 1)})"


# -- predicate groups ----------------------------------------------------------
#
# A group function returns (lines, predicate count, clause count).  ``k``
# makes every predicate name unique within its file and picks the
# variant in turn, so a file's mix of variants does not depend on the
# seed; the seed picks the terms.

Group = Tuple[List[str], int, int]


def _poly_group(rng: random.Random, k: int) -> Group:
    choice = k % 6
    if choice == 0:
        return [
            f"PRED app{k}(list(A),list(A),list(A)).",
            f"app{k}(nil,L,L).",
            f"app{k}(cons(X,L),M,cons(X,N)) :- app{k}(L,M,N).",
            f":- app{k}(cons(nil,nil), cons(nil,nil), R).",
        ], 1, 2
    if choice == 1:
        return [
            f"PRED len{k}(list(A),nat).",
            f"len{k}(nil,0).",
            f"len{k}(cons(X,L),succ(N)) :- len{k}(L,N).",
            f"PRED same{k}(list(A),list(A)).",
            f"same{k}(L,M) :- len{k}(L,N), len{k}(M,N).",
        ], 2, 3
    if choice == 2:
        return [
            f"PRED rev{k}(list(A),list(A),list(A)).",
            f"rev{k}(nil,Acc,Acc).",
            f"rev{k}(cons(X,L),Acc,R) :- rev{k}(L,cons(X,Acc),R).",
            f"PRED reverse{k}(list(A),list(A)).",
            f"reverse{k}(L,R) :- rev{k}(L,nil,R).",
        ], 2, 3
    if choice == 3:
        return [
            f"PRED member{k}(A,list(A)).",
            f"member{k}(X,cons(X,L)).",
            f"member{k}(X,cons(Y,L)) :- member{k}(X,L).",
            f"PRED last{k}(list(A),A).",
            f"last{k}(cons(X,nil),X).",
            f"last{k}(cons(X,L),Y) :- last{k}(L,Y).",
        ], 2, 4
    if choice == 4:
        return [
            f"PRED mirror{k}(tree(A),tree(A)).",
            f"mirror{k}(leaf,leaf).",
            f"mirror{k}(node(L,X,R),node(R2,X,L2)) :- mirror{k}(L,L2), mirror{k}(R,R2).",
            f"PRED swap{k}(prod(A,B),prod(B,A)).",
            f"swap{k}(pair(X,Y),pair(Y,X)).",
        ], 2, 3
    return [
        f"PRED plusl{k}(nat,nat,nat).",
        f"plusl{k}(0,N,N).",
        f"plusl{k}(succ(M),N,succ(K)) :- plusl{k}(M,N,K).",
        f"PRED sum{k}(list(nat),nat).",
        f"sum{k}(nil,0).",
        f"sum{k}(cons(X,L),N) :- sum{k}(L,M), plusl{k}(X,M,N).",
        f":- sum{k}({nat_list([rng.randint(0, 3) for _ in range(3)])}, S).",
    ], 2, 4


def _arith_group(rng: random.Random, k: int) -> Group:
    choice = k % 5
    if choice == 0:
        return [
            f"PRED plus{k}(nat,nat,nat).",
            f"plus{k}(0,N,N).",
            f"plus{k}(succ(M),N,succ(K)) :- plus{k}(M,N,K).",
            f"PRED times{k}(nat,nat,nat).",
            f"times{k}(0,N,0).",
            f"times{k}(succ(M),N,K) :- times{k}(M,N,P), plus{k}(P,N,K).",
            f":- times{k}({nat_term(rng.randint(1, 3))}, {nat_term(rng.randint(1, 3))}, R).",
        ], 2, 4
    if choice == 1:
        return [
            f"PRED le{k}(nat,nat).",
            f"le{k}(0,N).",
            f"le{k}(succ(M),succ(N)) :- le{k}(M,N).",
            f"PRED even{k}(nat).",
            f"even{k}(0).",
            f"even{k}(succ(succ(N))) :- even{k}(N).",
        ], 2, 4
    if choice == 2:
        # Subtype flow: nat terms inside int positions (the paper's int2nat).
        return [
            f"PRED int2nat{k}(int,nat).",
            f"int2nat{k}(0,0).",
            f"int2nat{k}(succ(X),succ(X)).",
            f"PRED isint{k}(int).",
            f"isint{k}({nat_term(rng.randint(1, 6))}).",
            f"isint{k}({unnat_term(rng.randint(1, 6))}).",
        ], 2, 4
    if choice == 3:
        return [
            f"PRED negabs{k}(unnat,nat).",
            f"negabs{k}(0,0).",
            f"negabs{k}(pred(X),succ(N)) :- negabs{k}(X,N).",
            f":- negabs{k}({unnat_term(rng.randint(1, 4))}, N).",
        ], 1, 2
    return [
        f"PRED dbl{k}(nat,nat).",
        f"dbl{k}(0,0).",
        f"dbl{k}(succ(X),succ(succ(Y))) :- dbl{k}(X,Y).",
        f"PRED half{k}(nat,nat).",
        f"half{k}(X,Y) :- dbl{k}(Y,X).",
    ], 2, 3


def _ast_group(rng: random.Random, k: int) -> Group:
    lines = [
        f"PRED plus{k}(nat,nat,nat).",
        f"plus{k}(0,N,N).",
        f"plus{k}(succ(M),N,succ(K)) :- plus{k}(M,N,K).",
        f"PRED times{k}(nat,nat,nat).",
        f"times{k}(0,N,0).",
        f"times{k}(succ(M),N,K) :- times{k}(M,N,P), plus{k}(P,N,K).",
        f"PRED le{k}(nat,nat).",
        f"le{k}(0,N).",
        f"le{k}(succ(M),succ(N)) :- le{k}(M,N).",
        f"PRED gt{k}(nat,nat).",
        f"gt{k}(succ(N),0).",
        f"gt{k}(succ(M),succ(N)) :- gt{k}(M,N).",
        f"PRED aeval{k}(aexp,nat).",
        f"PRED beval{k}(bexp,bool).",
        f"aeval{k}(lit(N),N).",
        f"aeval{k}(add(E1,E2),N) :- aeval{k}(E1,N1), aeval{k}(E2,N2), plus{k}(N1,N2,N).",
        f"aeval{k}(mul(E1,E2),N) :- aeval{k}(E1,N1), aeval{k}(E2,N2), times{k}(N1,N2,N).",
        f"aeval{k}(if_e(B,E1,E2),N) :- beval{k}(B,tt), aeval{k}(E1,N).",
        f"aeval{k}(if_e(B,E1,E2),N) :- beval{k}(B,ff), aeval{k}(E2,N).",
        f"beval{k}(tt,tt).",
        f"beval{k}(ff,ff).",
        f"beval{k}(leq(E1,E2),tt) :- aeval{k}(E1,N1), aeval{k}(E2,N2), le{k}(N1,N2).",
        f"beval{k}(leq(E1,E2),ff) :- aeval{k}(E1,N1), aeval{k}(E2,N2), gt{k}(N1,N2).",
        f":- aeval{k}({aexp_term(rng, 3)}, V).",
    ]
    return lines, 6, 17


def _moded_group(rng: random.Random, k: int) -> Group:
    choice = k % 3
    if choice == 0:
        return [
            f"PRED dblm{k}(IN nat, OUT nat).",
            f"dblm{k}(0,0).",
            f"dblm{k}(succ(X),succ(succ(Y))) :- dblm{k}(X,Y).",
            f":- dblm{k}({nat_term(rng.randint(1, 4))}, R).",
        ], 1, 2
    if choice == 1:
        return [
            f"PRED plusm{k}(IN nat, IN nat, OUT nat).",
            f"plusm{k}(0,N,N).",
            f"plusm{k}(succ(M),N,succ(K)) :- plusm{k}(M,N,K).",
            f"PRED nat2int{k}(IN nat, OUT int).",
            f"nat2int{k}(X, X).",
        ], 2, 2
    # Section 7 subtype flow, accepted once modes are declared.
    return [
        f"PRED produce{k}(OUT nat).",
        f"produce{k}({nat_term(rng.randint(0, 3))}).",
        f"PRED consume{k}(IN int).",
        f"consume{k}(0).",
        f"consume{k}({unnat_term(rng.randint(1, 3))}).",
        f":- produce{k}(X), consume{k}(X).",
    ], 2, 3


def _clp_group(rng: random.Random, k: int) -> Group:
    choice = k % 3
    if choice == 0:
        return [
            f"PRED lt{k}(int,int).",
            f"lt{k}(X,Y) :- X < Y.",
            f"PRED max{k}(int,int,int).",
            f"max{k}(X,Y,Y) :- X =< Y.",
            f"max{k}(X,Y,X) :- Y < X.",
        ], 2, 3
    if choice == 1:
        return [
            f"PRED copy{k}(int,int).",
            f"copy{k}(X,Y) :- Y is X.",
            f"PRED same{k}(int,int).",
            f"same{k}(X,Y) :- X =:= Y.",
        ], 2, 2
    return [
        f"PRED small{k}(int).",
        f"small{k}(X) :- X =< {nat_term(rng.randint(1, 5))}.",
        f"PRED between{k}(int,int,int).",
        f"between{k}(L,X,H) :- L =< X, X =< H.",
        f":- between{k}({unnat_term(1)}, 0, {nat_term(2)}).",
    ], 2, 2


def _facts_group(rng: random.Random, k: int) -> Group:
    if k % 2 == 0:
        depths = [d + rng.randint(0, 2) for d in (10, 20, 30)]
        return [f"PRED depth{k}(nat)."] + [
            f"depth{k}({nat_term(d)})." for d in depths
        ], 1, 3
    rows = [nat_list([rng.randint(0, 6) for _ in range(n)]) for n in (8, 16)]
    return [f"PRED nums{k}(list(nat))."] + [f"nums{k}({row})." for row in rows], 1, 2


GROUPS: Dict[str, Callable[[random.Random, int], Group]] = {
    "poly_lists": _poly_group,
    "nat_arith": _arith_group,
    "ast_interp": _ast_group,
    "moded": _moded_group,
    "clp_builtins": _clp_group,
    "deep_facts": _facts_group,
}


# -- Section 5 defects ---------------------------------------------------------
#
# Each returns (lines, index of the offending line within them).  They
# follow the paper's ill-typed examples; ``bad_head`` is the simplest
# (a head argument outside its declared type).

Defect = Tuple[List[str], int]


def _bad_head(k: int, moded: bool) -> Defect:
    decl = f"PRED bad{k}(OUT nat)." if moded else f"PRED bad{k}(nat)."
    return [decl, f"bad{k}(0).", f"bad{k}(pred(0))."], 2


def _clause_two_contexts(k: int, moded: bool) -> Defect:
    return [
        f"PRED cp{k}(int).",
        f"PRED cr{k}(list(A)).",
        f"cp{k}(0).",
        f"cr{k}(X) :- cp{k}(X).",
    ], 3


def _head_two_contexts(k: int, moded: bool) -> Defect:
    return [f"PRED hs{k}(int,list(A)).", f"hs{k}(X,X)."], 1


def _head_commits(k: int, moded: bool) -> Defect:
    return [f"PRED hc{k}(list(A)).", f"hc{k}(cons(nil,nil))."], 1


def _subtype_flow(k: int, moded: bool) -> Defect:
    return [
        f"PRED fp{k}(nat).",
        f"PRED fq{k}(int).",
        f"fp{k}(0).",
        f"fq{k}(0).",
        f":- fp{k}(X), fq{k}(X).",
    ], 4


def _append_on_naturals(k: int, moded: bool) -> Defect:
    return [
        f"PRED an{k}(list(A),list(A),list(A)).",
        f"an{k}(nil,L,L).",
        f"an{k}(cons(X,L),M,cons(X,N)) :- an{k}(L,M,N).",
        f":- an{k}(nil,0,0).",
    ], 3


#: defect pattern -> (its function, preludes it needs, allowed in moded files).
DEFECTS: Dict[str, Tuple[Callable[[int, bool], Defect], Tuple[str, ...], bool]] = {
    "bad_head": (_bad_head, ("nat", "list", "tree", "ast"), True),
    "clause_two_contexts": (_clause_two_contexts, ("list", "tree"), False),
    "head_two_contexts": (_head_two_contexts, ("list", "tree"), False),
    "head_commits_type_variable": (_head_commits, ("list", "tree"), False),
    "subtype_flow": (_subtype_flow, ("nat", "list", "tree", "ast"), False),
    "append_on_naturals": (_append_on_naturals, ("list", "tree"), False),
}


# -- whole programs ------------------------------------------------------------


def _count_clauses(lines: List[str]) -> int:
    return sum(
        1 for line in lines
        if line and not line.startswith(("PRED", ":-", "%"))
    )


def program(
    rng: random.Random,
    name: str,
    family: str,
    predicates: int,
    defect: Optional[str] = None,
) -> Program:
    """A program of ``family`` with at least ``predicates`` predicates,
    optionally carrying one ``defect`` at a random group boundary."""
    prelude = FAMILIES[family]
    header = [f"% {name}: {family} over the {prelude} prelude"] + PRELUDES[prelude].splitlines()
    groups: List[List[str]] = []
    preds = clauses = 0
    k = rng.randrange(60)
    while preds < predicates:
        lines, group_preds, group_clauses = GROUPS[family](rng, k)
        groups.append(lines)
        preds += group_preds
        clauses += group_clauses
        k += 1
    expect = Expect("clean")
    if defect is not None:
        make, _, _ = DEFECTS[defect]
        lines, offset = make(k, family == "moded")
        at = rng.randint(0, len(groups))
        before = len(header) + sum(len(g) for g in groups[:at])
        groups.insert(at, lines)
        preds += sum(1 for line in lines if line.startswith("PRED"))
        clauses += _count_clauses(lines)
        expect = Expect("defect", line=before + offset + 1, pattern=defect)
    text = "\n".join(header + [line for g in groups for line in g]) + "\n"
    return Program(name, family, text, expect, preds, clauses)


def defect_for(rng: random.Random, family: str) -> str:
    """A Section 5 defect pattern that applies to ``family``'s prelude."""
    prelude = FAMILIES[family]
    options = [
        name for name, (_, preludes, moded_ok) in DEFECTS.items()
        if prelude in preludes and (moded_ok or family != "moded")
    ]
    return rng.choice(sorted(options))


def corpus(
    seed: int,
    small: int,
    small_range: Tuple[int, int],
    large_sizes: Tuple[int, ...],
    tag: str,
) -> List[Program]:
    """A stratified corpus: ``small`` files with sizes spread evenly over
    ``small_range`` plus one file per entry of ``large_sizes``; families
    rotate and every fourth file carries one defect.  Sizes and the
    family mix are fixed, so seeds vary content, names and order only."""
    rng = random.Random(f"{tag}:{seed}")
    families = sorted(FAMILIES)
    low, high = small_range
    sizes = [
        low + round(i * (high - low) / max(1, small - 1)) for i in range(small)
    ] + list(large_sizes)
    programs = []
    for index, size in enumerate(sizes):
        family = families[index % len(families)]
        defect = defect_for(rng, family) if index % 4 == 3 else None
        programs.append(program(rng, f"{tag}{index:03d}", family, size, defect))
    rng.shuffle(programs)
    return programs


# -- edit sessions -------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    """One request of an editor session: ``check`` or ``lint`` of
    ``program.text``; ``why`` says which kind of op built it."""

    op: str
    why: str
    program: Program


def _undeclared(base: Program, k: int) -> Program:
    lines = [f"PRED uses{k}(nat).", f"uses{k}(X) :- undeclared{k}(X)."]
    text = base.text + "\n".join(lines) + "\n"
    line = base.text.count("\n") + 2
    return replace(
        base, text=text, expect=Expect("undeclared", line=line),
        predicates=base.predicates + 1, clauses=base.clauses + 1,
    )


def _truncated(rng: random.Random, base: Program) -> Program:
    lines = base.text.splitlines()
    # Cut inside a clause body or head argument list (after an opening
    # parenthesis), so the text always ends mid-clause.
    candidates = [
        i for i, line in enumerate(lines)
        if "(" in line and not line.startswith(("PRED", "%", "FUNC", "TYPE"))
        and ">=" not in line
    ]
    index = rng.choice(candidates)
    line = lines[index]
    cut = line.index("(") + 1
    text = "\n".join(lines[:index] + [line[:cut]]) + "\n"
    return replace(base, text=text, expect=Expect("parse"))


def _inject_defect(rng: random.Random, base: Program, k: int) -> Program:
    pattern = defect_for(rng, base.family)
    make, _, _ = DEFECTS[pattern]
    lines, offset = make(2000 + k, base.family == "moded")
    line = base.text.count("\n") + offset + 1
    text = base.text + "\n".join(lines) + "\n"
    return replace(
        base, text=text, expect=Expect("defect", line=line, pattern=pattern),
        predicates=base.predicates + sum(1 for l in lines if l.startswith("PRED")),
        clauses=base.clauses + _count_clauses(lines),
    )


#: One shuffled round of editor events: 5 re-opens of unchanged text, 7
#: edits that add a group, 5 terminal edits and 4 reverts.  These shares
#: are chosen, not measured (README.md gives the reason for each).
SESSION_BLOCK = ["reopen"] * 5 + ["edit.add"] * 7 + ["edit.terminal"] * 5 + ["revert"] * 4

#: Terminal edits, taken in turn (a moded document gets a defect instead
#: of an undeclared call).
TERMINAL_EDITS = ("edit.defect", "edit.truncate", "edit.undeclared")

#: Groups an edit keeps appended to a document's base text; older ones
#: drop off, so documents stay the same size however long a session runs.
EDIT_WINDOW = 6


class _Document:
    """One open file: its base program and its clean versions so far."""

    def __init__(self, base: Program) -> None:
        self.base = base
        self.added: List[Group] = []
        self.versions: List[Program] = [base]

    def edit(self, rng: random.Random, k: int) -> Program:
        """A new clean version: one well-typed group appended."""
        self.added = (self.added + [GROUPS[self.base.family](rng, 1000 + k)])[-EDIT_WINDOW:]
        text = self.base.text + "".join("\n".join(g[0]) + "\n" for g in self.added)
        version = replace(
            self.base, name=f"{self.base.name}v{len(self.versions)}", text=text,
            predicates=self.base.predicates + sum(g[1] for g in self.added),
            clauses=self.base.clauses + sum(g[2] for g in self.added),
        )
        self.versions.append(version)
        return version


class Session:
    """A seeded editor session over ``documents`` open files.

    ``prefill`` holds the ``history`` earlier clean versions of every
    document (an earlier batch run checked them, so they sit in the
    shared on-disk cache).  :meth:`next_op` draws the session's requests
    one at a time, so a run holds only the versions it reached.

    The session is a run of editor events.  Each event sends the text it
    leaves in the editor the way the repository's own editor client,
    ``tlp-lsp``, treats every opened or changed text: one ``check`` and
    then one ``lint`` of that text.  Events come in shuffled rounds of
    :data:`SESSION_BLOCK`, and each kind visits the documents in shuffled
    rounds of its own, so every seed makes the same mix of requests on
    the same mix of documents:

    * ``reopen`` re-sends a document's current text (a hot hit);
    * ``edit.add`` makes a new current version with a well-typed group
      appended; ``edit.defect``, ``edit.truncate`` and
      ``edit.undeclared`` are sent once and abandoned: an injected
      Section 5 defect, a cut mid-clause, or a call to a predicate that
      was never declared;
    * ``revert`` re-sends an older clean version (from disk for the
      prefilled ones, hot once the daemon has seen it and while it stays
      in the daemon's 256-module LRU).

    Two known failures of the program are kept out of the session,
    because the benchmark's workloads must run without failed ops (see
    README.md, which has the repro for each): calls to undeclared
    predicates are not made from moded documents (the checker raises
    instead of reporting), and ``ast_interp`` texts are checked but never
    linted (the success-set analysis does not terminate on them).
    """

    def __init__(
        self, seed: int, documents: int, history: int,
        size_range: Tuple[int, int] = (10, 30),
    ) -> None:
        self.rng = random.Random(f"session:{seed}")
        families = sorted(FAMILIES)
        low, high = size_range
        self.documents: List[_Document] = []
        self.counter = 0
        for index in range(documents):
            size = low + round(index * (high - low) / max(1, documents - 1))
            family = families[index % len(families)]
            document = _Document(program(self.rng, f"doc{index:03d}", family, size))
            for _ in range(history):
                self.counter += 1
                document.edit(self.rng, self.counter)
            self.documents.append(document)
        self.prefill = [v for d in self.documents for v in d.versions[:-1]]
        self._kinds: List[str] = []
        self._order: Dict[str, List[_Document]] = {}
        self._pending: List[Op] = []

    def _draw(self, queue: List, pool: List) -> object:
        """The next item of a shuffled round over ``pool``."""
        if not queue:
            queue.extend(pool)
            self.rng.shuffle(queue)
        return queue.pop()

    @property
    def at_round_end(self) -> bool:
        """True between two rounds of :data:`SESSION_BLOCK`, once every
        request of the last event has been drawn."""
        return not self._kinds and not self._pending

    def next_op(self) -> Op:
        if not self._pending:
            why, program = self._event()
            self._pending = [Op("check", why, program)]
            if program.family != "ast_interp":
                self._pending.append(Op("lint", why, program))
        return self._pending.pop(0)

    def _event(self) -> Tuple[str, Program]:
        """The next editor event: its kind and the text it leaves."""
        rng = self.rng
        kind = self._draw(self._kinds, SESSION_BLOCK)
        document = self._draw(self._order.setdefault(kind, []), self.documents)
        current = document.versions[-1]
        self.counter += 1
        if kind == "reopen":
            return kind, current
        if kind == "edit.add":
            return kind, document.edit(rng, self.counter)
        if kind == "edit.terminal":
            kind = TERMINAL_EDITS[self.counter % len(TERMINAL_EDITS)]
            if kind == "edit.undeclared" and current.family != "moded":
                return kind, _undeclared(current, self.counter)
            if kind == "edit.truncate":
                return kind, _truncated(rng, current)
            return "edit.defect", _inject_defect(rng, current, self.counter)
        return kind, rng.choice(document.versions[:-1])
