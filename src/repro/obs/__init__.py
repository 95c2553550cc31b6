"""repro.obs — observability for the subtype/match/resolution pipeline.

The paper's central claim is *dynamic*: subtyping **is** SLD-resolution
over ``H_C`` (Definition 3), ``match`` walks the same constraint space
(Definition 13), and Theorem 6 is a statement about every resolvent of a
well-typed execution.  This package makes those dynamics visible without
changing them:

* a process-wide :class:`~repro.obs.registry.TelemetryRegistry`
  (``obs.METRICS``) with named counters, gauges, and latency histograms
  (whose moments are also read as timers) — disabled by default, ~free
  when off;
* a structured trace-event stream (``obs.TRACER``) of typed events
  (``subtype_goal``, ``sld_step``, ``match_call``, ``resolvent_check``,
  ``cache_probe``, ``phase``) whose parent-span ids nest derivations,
  with in-memory and JSON-lines sinks;
* one timing instrument, :func:`span`, joining the two: a timed region
  reads the clock once at each end and that one duration feeds both the
  metric of its name and, when tracing, its span event — so ``--stats``,
  ``--trace`` and ``--profile`` all see the same regions.

Quick use::

    from repro import obs

    obs.enable()                      # metrics on
    sink = obs.trace_to_memory()      # tracing on, events collected
    ... run checks / queries ...
    print(obs.render_summary())       # counter/timer table
    print(obs.render_tree(sink.events))
    data = obs.summary()              # plain dict, JSON-ready
    obs.disable()

    with obs.span("checker.parse"):   # one timed region, both halves
        ...

Every instrumented hot path guards with ``if METRICS.enabled`` /
``if TRACER.enabled`` (or goes through :func:`span`, which hands out a
shared null object while both are off); with both off the pipeline
runs the exact seed code paths (the overhead guard in ``tests/obs``
asserts < 5% on the subtype hot loop, and a differential test asserts
bit-identical behaviour).
"""

from __future__ import annotations

import contextlib
import time
from typing import Any, Dict, IO, Iterator, Optional, Tuple, Type

from .events import (
    CacheProbeEvent,
    MatchCallEvent,
    PhaseEvent,
    ResolventCheckEvent,
    SldStepEvent,
    SubtypeGoalEvent,
    TraceEvent,
)
from .export import CONTENT_TYPE as PROMETHEUS_CONTENT_TYPE
from .export import parse_exposition, render_prometheus
from .histogram import HistogramStat
from .profile import ProfileReport, SpanProfiler
from .registry import TelemetryRegistry
from .trace import (
    JsonlSink,
    MemorySink,
    SpanHandle,
    Tracer,
    TraceSink,
    render_tree,
)

__all__ = [
    "METRICS",
    "TRACER",
    "enable",
    "disable",
    "enabled",
    "span",
    "Span",
    "NULL_SPAN",
    "reset",
    "summary",
    "render_summary",
    "prometheus_text",
    "publish_runtime_gauges",
    "runtime_stats_lines",
    "collect",
    "trace_to_memory",
    "trace_to_stream",
    "trace_to_path",
    "profile_spans",
    "TelemetryRegistry",
    "HistogramStat",
    "SpanProfiler",
    "ProfileReport",
    "PROMETHEUS_CONTENT_TYPE",
    "parse_exposition",
    "render_prometheus",
    "Tracer",
    "TraceSink",
    "MemorySink",
    "JsonlSink",
    "SpanHandle",
    "render_tree",
    "TraceEvent",
    "SubtypeGoalEvent",
    "SldStepEvent",
    "MatchCallEvent",
    "ResolventCheckEvent",
    "CacheProbeEvent",
    "PhaseEvent",
]

#: The process-wide metrics registry every instrumented module records to.
METRICS = TelemetryRegistry()

#: The process-wide tracer every instrumented module emits events through.
TRACER = Tracer()


class Span:
    """One open timed region, handed out by :func:`span` while observing.

    ``traced`` says whether the region becomes a trace event; a typed
    caller hands its event's fields to :meth:`attach` only when it is
    (they are usually pretty-printed terms, too costly to build for
    metrics alone).  ``duration`` holds the measured seconds once the
    region has closed.
    """

    __slots__ = (
        "name", "traced", "duration", "_event", "_detail", "_fields",
        "_start", "_handle",
    )

    def __init__(self, name: str, event: Type[TraceEvent], detail: str) -> None:
        self.name = name
        self.traced = TRACER.enabled
        self.duration = 0.0
        self._event = event
        self._detail = detail
        self._fields: Optional[Dict[str, Any]] = None
        self._handle: Optional[SpanHandle] = None

    def attach(self, **fields: Any) -> None:
        """Set the fields of the span's typed trace event."""
        self._fields = fields

    def __enter__(self) -> "Span":
        self._start = time.perf_counter()
        if self.traced:
            self._handle = TRACER.begin(self._start)
        return self

    def __exit__(self, *exc: object) -> bool:
        self.duration = duration = time.perf_counter() - self._start
        METRICS.observe(self.name, duration)
        if self._handle is not None:
            fields = self._fields
            if fields is None:
                fields = (
                    {"name": self.name, "detail": self._detail}
                    if self._event is PhaseEvent
                    else {}
                )
            TRACER.end(self._handle, self._event, duration, **fields)
        return False


class _NullSpan:
    """The shared do-nothing region :func:`span` returns while off."""

    __slots__ = ()

    traced = False
    duration = 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


NULL_SPAN = _NullSpan()


def span(name: str, event: Type[TraceEvent] = PhaseEvent, detail: str = ""):
    """Time a block as region ``name``: the one timing instrument.

    With metrics and tracing both off this returns :data:`NULL_SPAN`
    (no allocation, no clock read).  Otherwise the clock is read once on
    entry and once on exit; that one duration is observed into metric
    ``name`` and, while tracing, closes the span's ``event`` — a
    :class:`PhaseEvent` named ``name`` with ``detail`` unless a typed
    event class is given, whose fields the caller attaches.
    """
    if not (METRICS.enabled or TRACER.enabled):
        return NULL_SPAN
    return Span(name, event, detail)


def enable() -> None:
    """Turn metrics collection on (tracing needs a sink — see trace_to_*)."""
    METRICS.enable()


def disable() -> None:
    """Turn metrics collection off and detach every trace sink."""
    METRICS.disable()
    TRACER.clear_sinks()


def enabled() -> bool:
    """True iff metrics or tracing is currently active."""
    return METRICS.enabled or TRACER.enabled


def reset() -> None:
    """Zero all metrics and restart trace ids/clock."""
    METRICS.reset()
    TRACER.reset()


def summary() -> Dict[str, Any]:
    """A JSON-ready snapshot of everything recorded so far."""
    snapshot = METRICS.snapshot()
    snapshot["trace_events_emitted"] = TRACER.emitted
    return snapshot


def render_summary() -> str:
    """The human-readable metrics table (what ``tlp-check --stats`` prints)."""
    return METRICS.render()


def publish_runtime_gauges() -> None:
    """Record the term-kernel runtime state as gauges (no-op when off).

    Covers the intern table (``intern.size``/``intern.hit_rate``) and the
    process-wide shared subtype memo (``subtype.shared_memo.size`` and
    friends) — point-in-time sizes, complementing the per-goal
    ``subtype.shared_memo.hits``/``.entries`` counters the engine itself
    increments.  Imports lazily: ``repro.obs`` must stay importable
    before ``repro.terms``/``repro.core`` (they import it for METRICS).
    """
    if not METRICS.enabled:
        return
    from ..core.shared_memo import SHARED_MEMO
    from ..terms.term import intern_stats

    interned = intern_stats()
    METRICS.gauge("intern.size", interned.size)
    METRICS.gauge("intern.hits", interned.hits)
    METRICS.gauge("intern.misses", interned.misses)
    METRICS.gauge("intern.hit_rate", round(interned.hit_rate, 4))
    memo = SHARED_MEMO.stats()
    METRICS.gauge("subtype.shared_memo.scopes", memo["scopes"])
    METRICS.gauge("subtype.shared_memo.size", memo["entries"])
    METRICS.gauge("subtype.shared_memo.attachments", memo["attachments"])
    METRICS.gauge("subtype.shared_memo.evictions", memo["evictions"])
    from ..core.automata import AUTOMATA

    automata = AUTOMATA.stats()
    METRICS.gauge("subtype.automaton.scopes", automata["scopes"])
    METRICS.gauge("subtype.automaton.states", automata["states"])
    METRICS.gauge("subtype.automaton.transitions", automata["transitions"])
    METRICS.gauge("subtype.automaton.cache_entries", automata["cache_entries"])
    METRICS.gauge("subtype.automaton.compiled", automata["compiles"])
    METRICS.gauge("subtype.automaton.attachments", automata["attachments"])
    METRICS.gauge("subtype.automaton.refusals", automata["refusals"])


def runtime_stats_lines() -> "list[str]":
    """Human-readable intern-table / shared-memo state for ``:stats`` & co.

    The shared-memo hit rate is derived from the engine-side counters
    (``subtype.shared_memo.hits`` vs ``.entries`` — every miss that
    completes a derivation writes one entry), so it reflects goals posed
    while telemetry was on.
    """
    from ..core.shared_memo import SHARED_MEMO
    from ..terms.term import intern_stats

    interned = intern_stats()
    intern_line = (
        f"intern table: {interned.size} nodes "
        f"({interned.structs} structs, {interned.vars} vars), "
        f"hit rate {interned.hit_rate:.1%}"
    )
    memo = SHARED_MEMO.stats()
    hits = METRICS.counter("subtype.shared_memo.hits")
    entries = METRICS.counter("subtype.shared_memo.entries")
    probes = hits + entries
    rate = f", hit rate {hits / probes:.1%}" if probes else ""
    memo_line = (
        f"shared subtype memo: {memo['entries']} entries across "
        f"{memo['scopes']} scope(s), {memo['attachments']} engine "
        f"attachment(s){rate}"
    )
    from ..core.automata import AUTOMATA

    automata = AUTOMATA.stats()
    hits = METRICS.counter("subtype.automaton.hits")
    fallbacks = METRICS.counter("subtype.automaton.fallbacks")
    queries = hits + fallbacks
    rate = f", hit rate {hits / queries:.1%}" if queries else ""
    automata_line = (
        f"tree automata: {automata['scopes']} compiled scope(s), "
        f"{automata['states']} state(s), {automata['transitions']} "
        f"transition(s), {automata['attachments']} attachment(s){rate}"
    )
    return [intern_line, memo_line, automata_line]


def trace_to_memory() -> MemorySink:
    """Attach (and return) an in-memory sink; tracing turns on."""
    sink = MemorySink()
    TRACER.add_sink(sink)
    return sink


def trace_to_stream(stream: IO[str]) -> JsonlSink:
    """Attach (and return) a JSONL sink on ``stream``; tracing turns on."""
    sink = JsonlSink(stream)
    TRACER.add_sink(sink)
    return sink


def trace_to_path(path: str) -> JsonlSink:
    """Attach a JSONL sink that owns a freshly opened trace file.

    The returned sink flushes every line and closes its file from
    ``close()`` — call ``TRACER.close_sinks()`` (or ``sink.close()``) in
    a ``finally`` so the trace survives an exception mid-operation.
    """
    sink = JsonlSink(open(path, "w", encoding="utf-8"), owns_stream=True)
    TRACER.add_sink(sink)
    return sink


def profile_spans() -> SpanProfiler:
    """Attach (and return) a span profiler; tracing turns on.

    Detach with ``TRACER.remove_sink(profiler)`` and read
    ``profiler.report()`` — see :mod:`repro.obs.profile`.
    """
    profiler = SpanProfiler()
    TRACER.add_sink(profiler)
    return profiler


def prometheus_text(
    labels: "Optional[Dict[str, str]]" = None,
    extra_gauges: "Optional[Dict[str, float]]" = None,
) -> str:
    """The current registry state as Prometheus text exposition."""
    return render_prometheus(
        METRICS.snapshot(), labels=labels, extra_gauges=extra_gauges
    )


@contextlib.contextmanager
def collect() -> Iterator[Tuple[TelemetryRegistry, MemorySink]]:
    """Enable metrics + in-memory tracing for a block, then restore.

    Yields ``(METRICS, sink)``; on exit the sink is detached and the
    previous enabled/disabled state of the registry is restored.  Metrics
    recorded during the block are kept (call :func:`reset` to drop them).
    """
    was_enabled = METRICS.enabled
    METRICS.enable()
    sink = trace_to_memory()
    try:
        yield METRICS, sink
    finally:
        TRACER.remove_sink(sink)
        METRICS.enabled = was_enabled
