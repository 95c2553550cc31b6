"""The three workloads and the traced layer replay.

Each workload is a closed loop with one request in flight.  It drives
the program only through its public entry points: ``check_text`` in
process, the ``tlp-serve`` stdio daemon, and ``tlp-check``/``tlp-batch``
processes.  Every op's verdict goes through :func:`harness.verdict_error`
against the answer the generator built in.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import gen
from harness import (
    Child, Daemon, Metronome, Pace, Tally, Tracer, median, run_child, verdict_error,
)

#: The lint code of a syntax error (``repro.analysis.registry``).
SYNTAX_ERROR = "TLP001"

#: Seconds a single request or process may take before it counts as failed.
DEADLINE_S = 60.0

#: The console scripts, spelled the way their installed wrappers run them.
ENTRY = {
    "tlp-check": "repro.checker.cli",
    "tlp-batch": "repro.service.batch",
    "tlp-serve": "repro.service.daemon",
}

#: Large files of the ``wholefile`` corpus (predicates each).
LARGE_SIZES = (200, 240, 280, 320, 360, 400)

#: Files per ``tlp-batch`` pass, loop slices per run, and the cold and
#: warm pairs of passes after each slice.
BATCH_FILES = 12
SLICES = 5
BATCH_PAIRS = 2


class Env:
    """Paths and child-process settings for one run inside a checkout.
    Everything a run writes goes under ``.perfbench_tmp/`` there."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.src = root / "src"
        scratch = root / ".perfbench_tmp"
        scratch.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="run-", dir=str(scratch)))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(self.src)
        self.jobs = min(2, os.cpu_count() or 1)

    def argv(self, script: str, *args: str, importtime: bool = False) -> List[str]:
        code = f"import sys; from {ENTRY[script]} import main; sys.exit(main())"
        flags = ["-X", "importtime"] if importtime else []
        return [sys.executable, *flags, "-c", code, *args]

    def run(self, script: str, *args: str, importtime: bool = False) -> Child:
        return run_child(
            self.argv(script, *args, importtime=importtime),
            self.env, str(self.root), DEADLINE_S, str(self.tmp),
        )

    def mkdir(self, name: str) -> Path:
        path = self.tmp / name
        if path.exists():
            shutil.rmtree(path)
        path.mkdir(parents=True)
        return path

    def write(self, directory: str, programs: List[gen.Program]) -> List[Path]:
        folder = self.mkdir(directory)
        paths = []
        for program in programs:
            path = folder / f"{program.name}.tlp"
            path.write_text(program.text, encoding="utf-8")
            paths.append(path)
        return paths

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


def cli_error(program: gen.Program, path: Path, child: Child) -> Optional[str]:
    """Check one ``tlp-check`` process against ``program``'s verdict."""
    if child.timed_out:
        return f"no verdict within {DEADLINE_S:.0f} s"
    want = 0 if program.expect.well_typed else 1
    if child.returncode != want:
        tail = (child.stderr.strip().splitlines() or [""])[-1]
        return f"exit {child.returncode}, expected {want}: {tail[:200]}"
    lines = child.stdout.splitlines()
    return verdict_error(
        program.expect, child.returncode == 0, lines, prefix=f"{path}:"
    )


# -- workloads -----------------------------------------------------------------


class Workload:
    """One closed loop: ``setup`` then ``op(i)`` until time is up."""

    name = ""
    #: Whether the ops run pinned with the metronome to its home CPU
    #: (see :class:`harness.Metronome`).
    pinned = False
    #: Ops in one round of the workload's input mix.
    round = 1

    def __init__(self, env: Env, seed: int) -> None:
        self.env = env
        self.seed = seed

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, index: int, tally: Tally, tracer: Tracer) -> Tuple[float, int]:
        """Run op ``index``; returns (seconds, clauses checked)."""
        raise NotImplementedError

    def at_round_end(self, ops: int) -> bool:
        """True after ``ops`` ops when a whole round of the input mix is
        done; slices of the loop end there."""
        return ops % self.round == 0

    def inputs(self) -> List[gen.Program]:
        """The parseable programs this workload checks (replay, batch)."""
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        raise NotImplementedError

    def close(self) -> None:
        """Stop what ``setup`` started; safe to call more than once."""


class WholeFile(Workload):
    """In-process ``check_text`` over a seeded corpus, round robin."""

    name = "wholefile"
    # The ops run in the benchmark's own process.
    pinned = True

    def setup(self) -> None:
        from repro.checker.frontend import check_text

        self.check_text = check_text
        self.programs = gen.corpus(self.seed, 36, (10, 50), LARGE_SIZES, "wf")
        self.round = len(self.programs)
        # Users of a long-lived checker run with warm process-wide caches.
        for program in self.programs:
            check_text(program.text)

    def op(self, index: int, tally: Tally, tracer: Tracer) -> Tuple[float, int]:
        program = self.programs[index % len(self.programs)]
        started = time.perf_counter()
        module = self.check_text(program.text)
        elapsed = time.perf_counter() - started
        diagnostics = [str(d) for d in module.diagnostics]
        tally.record(verdict_error(program.expect, module.ok, diagnostics), program.name)
        return elapsed, program.clauses

    def inputs(self) -> List[gen.Program]:
        return self.programs

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Session:
    """A ``tlp-serve --cache-dir`` child plus the checks on its answers:
    each verdict against the generator's, and every answer for one text
    (hot, cache or fresh) byte for byte against the first one served."""

    def __init__(self, env: Env, cache: Path) -> None:
        self.cache = cache
        self.daemon = Daemon(
            env.argv("tlp-serve", "--cache-dir", str(cache)), env.env, str(env.root)
        )
        self.served: Dict[str, Tuple[bool, List[str]]] = {}
        self.linted: Dict[str, List[dict]] = {}
        #: round-trip seconds by the answer's source: hot, cache, miss, lint.
        self.sources: Dict[str, List[float]] = {}

    def send(self, op: gen.Op, index: int, tally: Tally, tracer: Tracer) -> Tuple[float, int]:
        program = op.program
        with tracer.span("service.request", index) as span:
            started = time.perf_counter()
            response = self.daemon.request(
                {"op": op.op, "text": program.text}, DEADLINE_S
            )
            elapsed = time.perf_counter() - started
        what = f"{op.why} {program.name}"
        if response is None:
            tally.record(f"no response within {DEADLINE_S:.0f} s; daemon restarted", what)
            return elapsed, 0
        if not response.get("ok"):
            tally.record(f"request failed: {response.get('error')}", what)
            return elapsed, 0
        if op.op == "lint":
            source = "lint"
            error = self._lint_error(program, response)
            clauses = 0
        else:
            source = {"checked": "miss"}.get(response["source"], response["source"])
            error = self._check_error(program, response)
            clauses = program.clauses
        if span is not None:
            span.name = f"service.request.{source}"
        self.sources.setdefault(source, []).append(elapsed)
        tally.record(error, what)
        return elapsed, clauses

    def _check_error(self, program: gen.Program, response: dict) -> Optional[str]:
        verdict = (response["well_typed"], response["diagnostics"])
        first = self.served.setdefault(response["digest"], verdict)
        if first != verdict:
            return f"{response['source']} answer differs from the first one served"
        return verdict_error(program.expect, *verdict)

    def _lint_error(self, program: gen.Program, response: dict) -> Optional[str]:
        first = self.linted.setdefault(response["digest"], response["findings"])
        if first != response["findings"]:
            return "lint findings differ between two requests for one text"
        if response["errors"] and program.expect.well_typed:
            return f"{response['errors']} lint error(s) on a well-typed program"
        if program.expect.kind == "parse":
            codes = [f["code"] for f in response["findings"] if f["severity"] == "error"]
            if codes != [SYNTAX_ERROR]:
                return f"expected one {SYNTAX_ERROR} syntax error, got {codes}"
        return None


class DaemonEdit(Workload):
    """One ``tlp-serve --cache-dir`` child replaying an editor session."""

    name = "daemon_edit"
    DOCUMENTS = 32
    HISTORY = 5  # 32 x 5 = 160 prefilled versions, all served from disk
    #: Requests after which the daemon's peak RSS is read.  The daemon
    #: grows with every new text it sees, so a reading at the end of the
    #: run would depend on how many requests the run got through.
    RSS_AT = 300
    session: Optional[Session] = None
    rss = 0.0

    def setup(self) -> None:
        self.stream = gen.Session(self.seed, self.DOCUMENTS, self.HISTORY)
        cache = self.env.mkdir("daemon-cache")
        folder = self.env.write("prefill", self.stream.prefill)[0].parent
        child = self.env.run(
            "tlp-batch", str(folder), "--cache-dir", str(cache),
            "--jobs", str(self.env.jobs), "--quiet",
        )
        if child.returncode != 0:
            raise RuntimeError(f"prefill batch failed: {child.stderr[-500:]}")
        self.session = Session(self.env, cache)
        if self.session.daemon.request({"op": "stats"}, DEADLINE_S) is None:
            raise RuntimeError("tlp-serve did not answer")

    def op(self, index: int, tally: Tally, tracer: Tracer) -> Tuple[float, int]:
        done = self.session.send(self.stream.next_op(), index, tally, tracer)
        if index + 1 == self.RSS_AT:
            self.rss = self.session.daemon.peak_rss_mb()
        return done

    def at_round_end(self, ops: int) -> bool:
        return self.stream.at_round_end

    def inputs(self) -> List[gen.Program]:
        return [d.versions[-1] for d in self.stream.documents]

    def peak_rss_mb(self) -> float:
        return self.rss

    def close(self) -> None:
        if self.session is not None:
            self.session.daemon.close()


class ColdCli(Workload):
    """Fresh ``tlp-check FILE`` processes, one after another."""

    name = "cold_cli"

    def setup(self) -> None:
        self.programs = gen.corpus(self.seed, 12, (10, 60), (), "cli")
        self.round = len(self.programs)
        self.paths = self.env.write("cli", self.programs)
        self.rss = 0.0
        # One run compiles the bytecode cache every later run reads.
        self.env.run("tlp-check", str(self.paths[0]))

    def op(self, index: int, tally: Tally, tracer: Tracer) -> Tuple[float, int]:
        slot = index % len(self.programs)
        program, path = self.programs[slot], self.paths[slot]
        child = self.env.run("tlp-check", str(path))
        self.rss = max(self.rss, child.maxrss_mb)
        tally.record(cli_error(program, path, child), program.name)
        return child.wall_s, program.clauses

    def inputs(self) -> List[gen.Program]:
        return self.programs

    def peak_rss_mb(self) -> float:
        return self.rss


WORKLOADS = {w.name: w for w in (WholeFile, DaemonEdit, ColdCli)}


# -- tlp-batch passes ----------------------------------------------------------


def batch_sample(programs: List[gen.Program]) -> List[gen.Program]:
    """A fixed-size spread of a workload's inputs, by name order."""
    ordered = sorted(programs, key=lambda p: p.name)
    step = max(1, len(ordered) // BATCH_FILES)
    return ordered[::step][:BATCH_FILES]


def batch_pair(
    env: Env, sample: List[gen.Program], tally: Tally, tag: str,
    clock: Optional[Metronome] = None,
) -> Tuple[float, float, dict, dict]:
    """One cold and one warm ``tlp-batch --report`` pass over a fresh
    cache directory; returns (cold s, warm s, cold report, warm report),
    the times scaled by ``clock``'s beats around each pass if given."""
    folder = env.tmp / "batch-in"
    if not folder.exists():
        env.write("batch-in", sample)
    cache = env.mkdir(f"batch-cache-{tag}")
    clean = sum(1 for p in sample if p.expect.well_typed)
    want_rc = 0 if clean == len(sample) else 1
    results = []
    for phase in ("cold", "warm"):
        report_path = env.tmp / f"report-{tag}-{phase}.json"
        with clock.around() if clock else nullcontext(Pace()) as pace:
            child = env.run(
                "tlp-batch", str(folder), "--cache-dir", str(cache),
                "--jobs", str(env.jobs), "--report", str(report_path), "--quiet",
            )
        report = {}
        if child.timed_out:
            error: Optional[str] = f"no result within {DEADLINE_S:.0f} s"
        elif child.returncode != want_rc:
            error = f"exit {child.returncode}, expected {want_rc}"
        else:
            report = json.loads(report_path.read_text(encoding="utf-8"))
            error = _report_error(report, phase, clean, len(sample))
        tally.record(error, f"tlp-batch {phase}")
        results.append((child.wall_s * pace.factor, report))
    (cold_s, cold), (warm_s, warm) = results
    return cold_s, warm_s, cold, warm


def _report_error(report: dict, phase: str, clean: int, total: int) -> Optional[str]:
    files = report["files"]
    if (files["total"], files["well_typed"]) != (total, clean):
        return f"{files['well_typed']}/{files['total']} well typed, expected {clean}/{total}"
    hits = report["cache"]["hits"]
    if phase == "cold" and hits != 0:
        return f"cold pass had {hits} cache hits"
    if phase == "warm" and hits != total:
        return f"warm pass had {hits}/{total} cache hits"
    return None


# -- the traced layer replay ---------------------------------------------------


class LayerReplay:
    """Replays a workload's inputs through each layer's public calls.

    ``lang``: ``tokenize`` and ``parse_file``; ``checker``:
    ``check_source``; ``core``: the restriction checks and every clause,
    query and mode check, each on a fresh checker over the module's
    declarations; ``analysis``: ``lint_source`` whole and per rule
    family, and ``infer_text``.  Each file is replayed once untraced and
    once traced (alternating which goes first), which gives the tracing
    overhead.
    """

    def __init__(self, tracer: Tracer, tally: Tally) -> None:
        from repro.analysis import LintConfig, default_registry, lint_source
        from repro.analysis.absint import infer_text
        from repro.checker.frontend import check_source
        from repro.core import restrictions
        from repro.core.modes import ModeChecker
        from repro.core.subtype import SubtypeEngine
        from repro.core.welltyped import WellTypedChecker
        from repro.lang.lexer import tokenize
        from repro.lang.parser import parse_file

        self.tokenize, self.parse_file, self.check_source = tokenize, parse_file, check_source
        self.restrictions = restrictions
        self.WellTypedChecker, self.ModeChecker, self.SubtypeEngine = (
            WellTypedChecker, ModeChecker, SubtypeEngine,
        )
        self.lint_source, self.infer_text = lint_source, infer_text
        self.tracer, self.tally = tracer, tally
        codes = sorted(rule.code for rule in default_registry().rules)
        #: family (``TLP1xx``) -> the lint config that runs only that family.
        self.families: Dict[str, object] = {
            f"{prefix}xx": LintConfig(
                disabled=frozenset(c for c in codes if not c.startswith(prefix))
            )
            for prefix in sorted({code[:4] for code in codes})
        }
        self.tokens = 0
        self.files = 0
        self.clauses = 0
        self.analysed = 0
        self.plain_s = 0.0
        self.traced_s = 0.0
        self.scopes: Dict[str, object] = {}

    def replay(self, programs: List[gen.Program]) -> None:
        # One untimed pass first fills the process-wide caches, so neither
        # side of the overhead comparison pays for that alone.
        self.tracer.enabled = False
        for program in programs:
            self._one(-1, program, count=False)
        for index, program in enumerate(programs):
            order = (False, True) if index % 2 == 0 else (True, False)
            for traced in order:
                self.tracer.enabled = traced
                started = time.perf_counter()
                self._one(index, program, count=traced)
                elapsed = time.perf_counter() - started
                if traced:
                    self.traced_s += elapsed
                else:
                    self.plain_s += elapsed
        self.tracer.enabled = True

    def _one(self, index: int, program: gen.Program, count: bool) -> None:
        span = self.tracer.span
        with span("replay.file", index):
            with span("lang.tokenize", index):
                tokens = self.tokenize(program.text)
            with span("lang.parse_file", index):
                source = self.parse_file(program.text)
            with span("checker.check_source", index):
                module = self.check_source(source)
            constraints, types = module.constraints, module.predicate_types
            with span("core.restrictions", index):
                self.restrictions.non_uniform_constraints(constraints)
                self.restrictions.unguarded_constructors(constraints)
            checker = self.WellTypedChecker(constraints, types)
            for clause in module.program:
                with span("core.clause_check", index):
                    checker.check_clause(clause)
            for query in module.queries:
                with span("core.query_check", index):
                    checker.check_query(query)
            if len(module.modes):
                engine = self.SubtypeEngine(constraints, validate=False)
                moder = self.ModeChecker(constraints, types, module.modes, engine=engine)
                for clause in module.program:
                    with span("core.mode_check", index):
                        moder.check_clause(clause)
        if count:
            diagnostics = [str(d) for d in module.diagnostics]
            self.tally.record(verdict_error(program.expect, module.ok, diagnostics), program.name)
            self.tokens += len(tokens)
            self.files += 1
            self.clauses += len(module.program)
            self.scopes.setdefault(constraints.fingerprint(), constraints)

    def analyse(self, programs: List[gen.Program]) -> None:
        """Lint (whole and per family) and infer, traced."""
        span = self.tracer.span
        for index, program in enumerate(programs):
            source = self.parse_file(program.text)
            with span("analysis.lint", index):
                report = self.lint_source(source)
            errors = [d for d in report.diagnostics if d.severity == "error"]
            self.tally.record(
                f"{len(errors)} lint error(s) on a well-typed program"
                if errors and program.expect.well_typed else None,
                f"lint {program.name}",
            )
            for family, config in self.families.items():
                with span(f"analysis.family.{family}", index):
                    self.lint_source(source, config=config)
            with span("analysis.infer", index):
                self.infer_text(program.text)
            self.analysed += 1

    def core_stats(self) -> Dict[str, float]:
        from repro.core.automata import AUTOMATA
        from repro.core.shared_memo import SHARED_MEMO
        from repro.terms.term import intern_stats

        decided = holds = 0
        for constraints in self.scopes.values():
            automaton = AUTOMATA.automaton_for(constraints)
            if automaton is not None:
                stats = automaton.stats()
                decided += stats["member_decided"]
                holds += stats["holds_calls"]
        interned = intern_stats()
        lookups = interned.hits + interned.misses
        return {
            "core.automata.decided_ratio": decided / holds if holds else 0.0,
            "core.intern.hit_rate": interned.hits / lookups if lookups else 0.0,
            "core.shared_memo.entries": float(SHARED_MEMO.stats()["entries"]),
        }


def analysis_sample(programs: List[gen.Program]) -> List[gen.Program]:
    """The two smallest parseable programs of each family the analyzer
    terminates on (``ast_interp`` is a known non-terminating case)."""
    chosen: List[gen.Program] = []
    for family in sorted(gen.FAMILIES):
        if family == "ast_interp":
            continue
        mine = sorted(
            (p for p in programs if p.family == family and p.expect.kind != "parse"),
            key=lambda p: (p.predicates, p.name),
        )
        chosen.extend(mine[:2])
    return chosen


def smallest_per_family(programs: List[gen.Program]) -> List[gen.Program]:
    best: Dict[str, gen.Program] = {}
    for program in sorted(programs, key=lambda p: (p.predicates, p.name)):
        best.setdefault(program.family, program)
    return list(best.values())


def service_probe(
    env: Env, programs: List[gen.Program], tally: Tally, tracer: Tracer
) -> Session:
    """A short daemon session over ``programs``: every text checked
    fresh, then hot, then (after a restart on the same cache directory)
    from disk, then linted.  Returns the session, its daemon closed."""
    session = Session(env, env.mkdir("probe-cache"))
    rounds = [
        [gen.Op("check", "fresh", p) for p in programs]
        + [gen.Op("check", "again", p) for p in programs],
        [gen.Op("check", "reopened", p) for p in programs]
        + [gen.Op("lint", "lint", p) for p in programs if p.family != "ast_interp"],
    ]
    for number, ops in enumerate(rounds):
        if number:
            session.daemon.start()
        try:
            for index, op in enumerate(ops):
                session.send(op, index, tally, tracer)
        finally:
            session.daemon.close()
    return session


def cache_save_ms(cache_dir: Path) -> Tuple[float, int]:
    """Median of five ``ResultCache.save`` times at the index's current
    size: each records one new entry, so save re-reads, merges and
    rewrites the whole index."""
    from repro.service.cache import CachedResult, ResultCache
    from repro.service.project import EMPTY_DECLS_DIGEST

    cache = ResultCache(str(cache_dir))
    entries = len(cache)
    times = []
    for index in range(5):
        digest = hashlib.sha256(f"perfbench-save-{index}".encode()).hexdigest()
        cache.put(digest, EMPTY_DECLS_DIGEST, CachedResult(
            ok=True, diagnostics=(), clauses=0, queries=0, duration_s=0.0,
            checked_at=ResultCache.now(),
        ))
        started = time.perf_counter()
        cache.save()
        times.append(time.perf_counter() - started)
    return median(times) * 1000.0, entries


def import_times(env: Env, path: Path) -> Dict[str, float]:
    """Median over three ``python -X importtime`` runs of the ``tlp-check`` entry:
    the total self time of every import, and the cumulative time of the
    ``repro.service`` and ``repro.analysis`` packages (0 if not imported)."""
    samples: Dict[str, List[float]] = {
        "startup.import_ms": [],
        "startup.import.service_ms": [],
        "startup.import.analysis_ms": [],
    }
    for _ in range(3):
        child = env.run("tlp-check", str(path), importtime=True)
        total = 0
        cumulative: Dict[str, int] = {}
        for line in child.stderr.splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            self_us, cum_us, name = _fields(line)
            total += self_us
            cumulative.setdefault(name, cum_us)
        samples["startup.import_ms"].append(total / 1000.0)
        samples["startup.import.service_ms"].append(cumulative.get("repro.service", 0) / 1000.0)
        samples["startup.import.analysis_ms"].append(cumulative.get("repro.analysis", 0) / 1000.0)
    return {name: median(values) for name, values in samples.items()}


def _fields(line: str) -> Tuple[int, int, str]:
    """``import time: <self> | <cumulative> | <name>`` → its fields."""
    own, cumulative, name = line[len("import time:"):].split("|", 2)
    return int(own), int(cumulative), name.strip()
