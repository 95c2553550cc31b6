"""The benchmark's own tests.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

``test_every_metric_is_emitted`` runs each workload end to end for one
second in both modes and takes a few minutes.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import gen
from harness import (
    AROUND_BEATS, BEAT_S, Metronome, Tally, Tracer, beyond, scale_to_beats, verdict_error,
)
from run import TAIL_BEYOND, TAIL_PCT, needed_ops
from workloads import Env, Session, WholeFile

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- inputs --------------------------------------------------------------------


def test_same_seed_same_inputs():
    def draw(seed):
        corpus = gen.corpus(seed, 12, (10, 50), (200,), "wf")
        session = gen.Session(seed, 8, 3)
        ops = [session.next_op() for _ in range(300)]
        return corpus, session.prefill, ops

    assert draw(7) == draw(7)
    assert draw(7) != draw(8)


def test_corpus_mix_is_fixed_across_seeds():
    sizes = {
        seed: sorted((p.family, p.expect.kind) for p in gen.corpus(seed, 12, (10, 50), (), "x"))
        for seed in (1, 2)
    }
    assert sizes[1] == sizes[2]
    defects = [k for _, k in sizes[1] if k == "defect"]
    assert len(defects) == 3  # every fourth file


def test_each_editor_event_is_a_check_then_a_lint():
    session = gen.Session(4, 12, 2)
    events = 0
    while events < 3 * len(gen.SESSION_BLOCK):
        check = session.next_op()
        assert check.op == "check"
        if check.program.family != "ast_interp":
            lint = session.next_op()
            assert (lint.op, lint.why, lint.program) == ("lint", check.why, check.program)
        events += 1
        assert session.at_round_end == (events % len(gen.SESSION_BLOCK) == 0)


def test_generated_verdicts_match_the_checker():
    from repro.checker.frontend import check_text

    programs = gen.corpus(3, 24, (10, 20), (), "t")
    session = gen.Session(3, 6, 2)
    programs += [session.next_op().program for _ in range(60)]
    kinds = {p.expect.kind for p in programs}
    assert kinds == {"clean", "defect", "undeclared", "parse"}
    for program in programs:
        module = check_text(program.text)
        diagnostics = [str(d) for d in module.diagnostics]
        assert verdict_error(program.expect, module.ok, diagnostics) is None, program.name


# -- the oracle and failure accounting -----------------------------------------


def test_oracle_rejects_wrong_line_and_wrong_kind():
    defect = gen.Expect("defect", line=8)
    assert verdict_error(defect, False, ["8:1: error: clause is not well-typed"]) is None
    assert verdict_error(defect, False, ["9:1: error: clause is not well-typed"])
    assert verdict_error(defect, True, [])
    assert verdict_error(gen.Expect("clean"), False, ["8:1: error: x"])
    parse = gen.Expect("parse")
    assert verdict_error(parse, False, ["error: 7:1: expected a term"]) is None
    assert verdict_error(parse, False, ["7:1: error: clause is not well-typed"])


@pytest.fixture
def env():
    env = Env(ROOT)
    yield env
    env.close()


def _planted(programs):
    """``programs`` with the first one's expected verdict flipped."""
    first = programs[0]
    wrong = gen.Expect("clean") if not first.expect.well_typed else gen.Expect("defect", line=1)
    return [replace(first, expect=wrong)] + programs[1:]


def test_planted_wrong_verdict_counts_as_failed_in_process(env):
    from repro.checker.frontend import check_text

    workload = WholeFile(env, 1)
    workload.check_text = check_text
    workload.programs = _planted(gen.corpus(5, 8, (10, 15), (), "p"))
    tally = Tally()
    for index in range(len(workload.programs)):
        workload.op(index, tally, Tracer(False))
    assert (tally.attempted, tally.failed) == (8, 1)


def test_planted_wrong_verdict_counts_as_failed_in_the_daemon(env):
    programs = _planted(gen.corpus(5, 4, (10, 12), (), "d"))
    session = Session(env, env.mkdir("cache"))
    tally = Tally()
    try:
        for index, program in enumerate(programs + programs):
            session.send(gen.Op("check", "t", program), index, tally, Tracer(False))
    finally:
        session.daemon.close()
    # The second round is served hot: the same wrong answer fails again.
    assert (tally.attempted, tally.failed) == (8, 2)
    assert set(session.sources) == {"miss", "hot"}


def test_lint_of_a_cut_text_must_be_one_syntax_error(env):
    base = gen.corpus(6, 1, (10, 10), (), "c")[0]
    cut = gen._truncated(random.Random(1), base)
    session = Session(env, env.mkdir("cache"))
    tally = Tally()
    try:
        for program in (cut, replace(cut, expect=gen.Expect("clean"))):
            session.send(gen.Op("lint", "t", program), 0, tally, Tracer(False))
    finally:
        session.daemon.close()
    assert (tally.attempted, tally.failed) == (2, 1)


def test_pinned_tail_percentiles_get_ten_samples_beyond():
    for pct in TAIL_PCT.values():
        assert beyond(needed_ops(pct), pct) >= TAIL_BEYOND
        assert beyond(needed_ops(pct) - 1, pct) < TAIL_BEYOND


def test_tracer_self_time_subtracts_children():
    tracer = Tracer(True)
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(20000))
    own = tracer.self_times()
    outer = tracer.spans[0]
    inner = tracer.spans[1]
    assert inner.parent == 0 and outer.parent is None
    assert math.isclose(
        own["outer"], (outer.end - outer.start) - (inner.end - inner.start)
    )
    quiet = Tracer(False)
    with quiet.span("x") as span:
        assert span is None
    assert quiet.spans == []


# -- the metronome -------------------------------------------------------------


def test_times_are_scaled_to_the_beats_next_to_them():
    same = scale_to_beats([0.02, 0.03], [BEAT_S, BEAT_S])
    assert all(math.isclose(t, u) for t, u in zip(same, [0.02, 0.03]))
    slow = scale_to_beats([0.04] * 3, [2 * BEAT_S] * 3)
    assert all(math.isclose(t, 0.02) for t in slow)
    # One slow beat in a window does not move the ops around it.
    steady = scale_to_beats([0.01] * 5, [BEAT_S, BEAT_S, 5 * BEAT_S, BEAT_S, BEAT_S])
    assert all(math.isclose(t, 0.01) for t in steady)


def test_metronome_beats_on_its_cpus_and_stops():
    clock = Metronome(str(BENCH / "metronome.py"), str(ROOT))
    try:
        assert clock.beat() > 0
        with clock.around() as pace:
            assert os.sched_getaffinity(0) == set(clock.cpus)
        assert pace.factor > 0
        assert len(clock.beats) == 1 + 2 * AROUND_BEATS * len(clock.cpus)
        clock.pin()
        with clock.around():
            assert os.sched_getaffinity(0) == set(clock.cpus)
        assert os.sched_getaffinity(0) == {clock.home}
    finally:
        clock.close()
        os.sched_setaffinity(0, clock.cpus)
    assert clock.proc.returncode == 0


# -- names and the command contract --------------------------------------------


def test_names_and_units_are_well_formed():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for metric in SPEC["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wholefile",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted(workload, trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stderr[-2000:]
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert math.isfinite(emitted["value"]) and emitted["value"] > 0, metric["name"]
