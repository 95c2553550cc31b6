"""Measurement plumbing: spans, summary statistics, child processes, the
metronome that scales times to the machine's speed, the ``tlp-serve``
client, and the verdict oracle.

Nothing here imports the program under test; ``workloads.py`` does that
once the set-up phase starts, so the import is part of set-up time.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence

from gen import Expect

# -- spans ---------------------------------------------------------------------


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: int


class Tracer:
    """In-memory spans around the benchmark's calls into the program.

    Disabled, :meth:`span` hands back one shared no-op context, so the
    untraced path pays a method call and nothing else.  Spans are kept in
    memory and written out only by :meth:`write`, after the run.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._noop = nullcontext()

    def span(self, name: str, op: int = 0):
        return self._span(name, op) if self.enabled else self._noop

    @contextmanager
    def _span(self, name: str, op: int) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), 0.0, parent, op)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name: each span's duration minus the
        time its (sequential, non-overlapping) child spans cover."""
        child = [0.0] * len(self.spans)
        for record in self.spans:
            if record.parent is not None:
                child[record.parent] += record.end - record.start
        totals: Dict[str, float] = {}
        for index, record in enumerate(self.spans):
            own = record.end - record.start - child[index]
            totals[record.name] = totals.get(record.name, 0.0) + own
        return totals

    def durations(self, name: str) -> List[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record.__dict__) + "\n")


# -- statistics ----------------------------------------------------------------


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (``pct`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def beyond(count: int, pct: float) -> int:
    """Samples strictly above the ``pct`` percentile of ``count``."""
    return int(count * (100.0 - pct) / 100.0)


# -- child processes -----------------------------------------------------------


@dataclass
class Child:
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    maxrss_mb: float
    timed_out: bool


def run_child(
    argv: List[str], env: Dict[str, str], cwd: str, timeout: float, scratch: str
) -> Child:
    """Run ``argv`` to completion, killing it at ``timeout`` seconds; its
    output goes through files in the ``scratch`` directory.

    The child is reaped with ``os.wait4`` for its peak RSS.  On Linux
    that figure also counts the benchmark's own peak (the child's image
    before ``exec`` was the benchmark's), so it is only the child's when
    the child outgrows the benchmark process, as ``tlp-check`` does.
    """
    with tempfile.TemporaryFile(dir=scratch) as out, tempfile.TemporaryFile(dir=scratch) as err:
        started = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            env=env, cwd=cwd,
        )
        killed = threading.Event()

        def kill() -> None:
            killed.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(
            proc.returncode,
            out.read().decode("utf-8", "replace"),
            err.read().decode("utf-8", "replace"),
            wall,
            usage.ru_maxrss / 1024.0,
            killed.is_set(),
        )


#: The beat duration every reported time is scaled to: a time ``t``
#: measured while the metronome beats in ``b`` seconds is reported as
#: ``t * BEAT_S / b``, the time it would take on a machine that beats in
#: 10 ms.  The 2 vCPU machine the baseline was recorded on beats in
#: about 11 to 12 ms when it is not slowed.
BEAT_S = 0.010

#: Machine beats on either side of a timed child process (set-up, batch pass).
AROUND_BEATS = 3

#: Beats on either side of an op's own that give its local speed.
WINDOW_BEATS = 5


@dataclass
class Pace:
    """What a time measured inside :meth:`Metronome.around` is scaled by."""

    factor: float = 1.0


class Metronome:
    """The ``metronome.py`` child: asked for a beat, it runs one fixed
    pure-Python task and answers with its duration.

    The machine's virtual CPUs share their cores with other tenants, so
    each runs at its own speed, and that speed drifts by a half and more
    within a minute; a beat on one CPU may take 6 ms while one on the
    other takes 11.  A time scaled by the beats measured next to it on
    the CPU it ran on is steady where the bare time is not.  For work in
    the benchmark's own process, :meth:`pin` puts the benchmark, every
    process it starts from then on and the metronome on one *home* CPU;
    work in other processes, which may run on any CPU, is scaled by
    :meth:`machine_beat` instead.  The program never runs in the
    metronome's process, so it cannot change how long a beat takes, and
    a beat runs only while nothing else in the benchmark does.
    """

    def __init__(self, script: str, cwd: str) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self.home = self.cpus[0]
        self.proc = subprocess.Popen(
            [sys.executable, script], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, cwd=cwd, text=True,
        )
        self._on = self.cpus
        self.beats: List[float] = []

    def pin(self) -> None:
        """Run the benchmark, and every process it starts, on the home CPU."""
        os.sched_setaffinity(0, {self.home})

    def beat(self, cpu: Optional[int] = None) -> float:
        """One beat on ``cpu`` (the home CPU by default); its seconds."""
        assert self.proc.stdin is not None and self.proc.stdout is not None
        on = [self.home if cpu is None else cpu]
        if on != self._on:
            os.sched_setaffinity(self.proc.pid, on)
            self._on = on
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the metronome stopped")
        self.beats.append(float(line))
        return self.beats[-1]

    def machine_beat(self) -> float:
        """One beat on each CPU in turn; their mean, the speed of the
        machine as a whole for work that may run on any CPU."""
        return sum(self.beat(cpu) for cpu in self.cpus) / len(self.cpus)

    @contextmanager
    def around(self) -> Iterator[Pace]:
        """Run the body free to use every CPU, between machine beats; the
        :class:`Pace` it yields then scales a time measured in the body by
        their mean.  The benchmark's CPUs are as before afterwards."""
        pace = Pace()
        before = [self.machine_beat() for _ in range(AROUND_BEATS)]
        pinned = os.sched_getaffinity(0)
        os.sched_setaffinity(0, self.cpus)
        try:
            yield pace
        finally:
            os.sched_setaffinity(0, pinned)
        after = [self.machine_beat() for _ in range(AROUND_BEATS)]
        pace.factor = BEAT_S * len(before + after) / sum(before + after)

    def close(self) -> None:
        """Stop the child and wait for it; safe to call more than once."""
        if not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def scale_to_beats(times: Sequence[float], beats: Sequence[float]) -> List[float]:
    """Each of ``times`` (``beats[i]`` measured right after ``times[i]``)
    scaled by the median of the beats within :data:`WINDOW_BEATS` of its
    own, so one slow beat does not move it."""
    scaled = []
    for index, elapsed in enumerate(times):
        window = beats[max(0, index - WINDOW_BEATS): index + WINDOW_BEATS + 1]
        scaled.append(elapsed * BEAT_S / median(window))
    return scaled


class Daemon:
    """A ``tlp-serve`` child driven over stdio, one request in flight.

    A request that misses its deadline is answered with ``None``; the
    daemon is then killed and a fresh one started on the same cache
    directory.  ``starts`` counts every process started.
    """

    def __init__(self, argv: List[str], env: Dict[str, str], cwd: str) -> None:
        self.argv, self.env, self.cwd = argv, env, cwd
        self.starts = 0
        self.maxrss_mb = 0.0
        self.proc: Optional[subprocess.Popen] = None
        self._buffer = b""
        self.start()

    def start(self) -> None:
        self.proc = subprocess.Popen(
            self.argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, env=self.env, cwd=self.cwd,
        )
        self._buffer = b""
        self.starts += 1

    def request(self, payload: Dict[str, Any], deadline_s: float) -> Optional[Dict[str, Any]]:
        assert self.proc is not None and self.proc.stdin is not None
        try:
            self.proc.stdin.write((json.dumps(payload) + "\n").encode("utf-8"))
            self.proc.stdin.flush()
        except BrokenPipeError:
            self.restart()
            return None
        line = self._readline(time.monotonic() + deadline_s)
        if line is None:
            self.restart()
            return None
        return json.loads(line)

    def _readline(self, deadline: float) -> Optional[bytes]:
        assert self.proc is not None and self.proc.stdout is not None
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buffer:
            left = deadline - time.monotonic()
            if left <= 0:
                return None
            ready, _, _ = select.select([fd], [], [], left)
            if not ready:
                return None
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                return None
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return line

    def peak_rss_mb(self) -> float:
        """The daemon's own high-water RSS (``VmHWM``) so far, over every
        process started.  The rusage that ``wait4`` returns would also
        count the benchmark's memory, which the child's pre-exec image
        shared."""
        assert self.proc is not None
        try:
            with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        return max(self.maxrss_mb, int(line.split()[1]) / 1024.0)
        except OSError:
            pass
        return self.maxrss_mb

    def _reap(self, timeout: float) -> None:
        assert self.proc is not None
        timer = threading.Timer(timeout, self.proc.kill)
        timer.start()
        try:
            _, status = os.waitpid(self.proc.pid, 0)
        finally:
            timer.cancel()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None:
                try:
                    stream.close()
                except BrokenPipeError:
                    pass

    def restart(self) -> None:
        assert self.proc is not None
        self.maxrss_mb = self.peak_rss_mb()
        self.proc.kill()
        self._reap(10.0)
        self.start()

    def close(self) -> None:
        """Orderly shutdown; the process is always reaped."""
        if self.proc is None:
            return
        self.maxrss_mb = self.peak_rss_mb()
        try:
            assert self.proc.stdin is not None
            self.proc.stdin.write(b'{"op": "shutdown"}\n')
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        self._reap(30.0)
        self.proc = None


# -- the verdict oracle --------------------------------------------------------


def verdict_error(
    expect: Expect, well_typed: bool, diagnostics: Sequence[str], prefix: str = ""
) -> Optional[str]:
    """Why a verdict disagrees with the construction, or ``None``.

    ``prefix`` is what the surface puts before a positioned diagnostic
    (``"path:"`` for ``tlp-check`` output, nothing for ``check_text``).
    """
    errors = [d for d in diagnostics if "error" in d]
    if expect.kind == "clean":
        if well_typed and not errors:
            return None
        return f"expected well typed, got {list(diagnostics)[:2]}"
    if well_typed:
        return f"expected {expect.kind} ({expect.pattern}) at line {expect.line}, got well typed"
    if len(errors) != 1:
        return f"expected one error, got {len(errors)}: {errors[:3]}"
    if expect.kind == "parse":
        # Syntax errors carry their position inside the message, not as
        # a clause anchor: ``error: 7:1: expected a term``.
        if errors[0].startswith(f"{prefix}error: "):
            return None
        return f"expected a syntax error, got {errors[0]!r}"
    want = f"{prefix}{expect.line}:"
    if not errors[0].startswith(want):
        return f"expected the error at line {expect.line}, got {errors[0]!r}"
    return None


@dataclass
class Tally:
    """Attempted and failed ops, with the first few failure reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: List[str] = field(default_factory=list)

    def record(self, error: Optional[str], what: str = "") -> None:
        self.attempted += 1
        if error is not None:
            self.fail(f"{what}: {error}" if what else error)

    def fail(self, reason: str) -> None:
        """Count a failure of the run itself, not of one op."""
        self.failed += 1
        if len(self.reasons) < 10:
            self.reasons.append(reason)
