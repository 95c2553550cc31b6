"""Structured trace-event stream: tracer, span nesting, and sinks.

The :class:`Tracer` hands out span ids from one process-wide sequence and
keeps a stack of open spans per thread and per asyncio task (a context
variable), so events emitted while a span is open automatically carry
its id as their ``parent_id`` — derivations nest without any plumbing
in the instrumented code.  Instrumented code opens spans through
:func:`repro.obs.span`, which drives :meth:`Tracer.begin` and
:meth:`Tracer.end`.

Tracing is **on iff at least one sink is attached** (``tracer.enabled``
is kept in sync by ``add_sink``/``remove_sink``).  Instrumented code
guards emission with that flag, so an un-traced process pays one
attribute check per potential event and allocates nothing.

Two sinks cover the use cases:

* :class:`MemorySink` — an in-memory list, for tests and programmatic
  inspection (:func:`render_tree` draws its events as an indented,
  human-readable span forest);
* :class:`JsonlSink` — one JSON object per line on any text stream
  (``tlp-check --trace``, ``BENCH_*.json`` companions).
"""

from __future__ import annotations

import json
import threading
import time
from contextvars import ContextVar
from typing import Any, Dict, IO, List, Optional, Sequence, Tuple, Type

from .events import PhaseEvent, TraceEvent

__all__ = [
    "TraceSink",
    "MemorySink",
    "JsonlSink",
    "SpanHandle",
    "Tracer",
    "render_tree",
]


class TraceSink:
    """Sink interface: receives every emitted event."""

    def emit(self, event: TraceEvent) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        """Release any resource the sink holds (default: nothing).

        Called by :meth:`Tracer.close_sinks` — the shutdown hook the CLIs
        and the daemon run in their ``finally`` blocks, so file-backed
        sinks are flushed and closed even when the traced operation
        raises.
        """


class MemorySink(TraceSink):
    """Collects events in a list (the test/inspection sink)."""

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []

    def emit(self, event: TraceEvent) -> None:
        self.events.append(event)

    def clear(self) -> None:
        self.events.clear()


class JsonlSink(TraceSink):
    """Writes one JSON object per event to a text stream.

    With ``owns_stream=True`` the sink is responsible for the stream's
    lifetime: :meth:`close` (invoked directly or via
    :meth:`Tracer.close_sinks`) flushes and closes it, so a trace file
    ends up complete on disk even when the traced operation raises or
    the daemon shuts down mid-stream.  Borrowed streams (stderr, a
    caller-managed file) are flushed but never closed.
    """

    def __init__(
        self,
        stream: IO[str],
        flush_every_line: bool = True,
        owns_stream: bool = False,
    ) -> None:
        self.stream = stream
        self.flush_every_line = flush_every_line
        self.owns_stream = owns_stream
        self.lines_written = 0
        self.closed = False

    def emit(self, event: TraceEvent) -> None:
        if self.closed:
            return
        self.stream.write(json.dumps(event.to_dict(), default=str) + "\n")
        self.lines_written += 1
        if self.flush_every_line:
            self.stream.flush()

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        try:
            self.stream.flush()
        except ValueError:  # stream already closed underneath us
            return
        if self.owns_stream:
            self.stream.close()


class SpanHandle:
    """An open span: identity plus its start time."""

    __slots__ = ("span_id", "parent_id", "start")

    def __init__(self, span_id: int, parent_id: Optional[int], start: float) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start


class Tracer:
    """Span-id allocation, per-thread and per-task nesting, sink fan-out."""

    def __init__(self) -> None:
        self.enabled = False
        self._sinks: List[TraceSink] = []
        self._lock = threading.Lock()
        self._open: ContextVar[Tuple[int, ...]] = ContextVar("open_spans", default=())
        self._next_id = 0
        self._epoch = time.perf_counter()
        self.emitted = 0

    # -- sink management ------------------------------------------------------

    def add_sink(self, sink: TraceSink) -> TraceSink:
        with self._lock:
            self._sinks.append(sink)
            self.enabled = True
        return sink

    def remove_sink(self, sink: TraceSink) -> None:
        with self._lock:
            if sink in self._sinks:
                self._sinks.remove(sink)
            self.enabled = bool(self._sinks)

    def clear_sinks(self) -> None:
        with self._lock:
            self._sinks.clear()
            self.enabled = False

    def close_sinks(self) -> None:
        """Detach every sink and close each one (the shutdown hook).

        Unlike :meth:`clear_sinks` this also runs each sink's ``close``,
        so file-backed sinks flush their buffers and release their file
        handles — run this from a ``finally`` around any traced
        operation that attached an owning :class:`JsonlSink`.
        """
        with self._lock:
            sinks = list(self._sinks)
            self._sinks.clear()
            self.enabled = False
        for sink in sinks:
            sink.close()

    def reset(self) -> None:
        """Restart ids and the clock (sinks stay attached)."""
        with self._lock:
            self._next_id = 0
            self._epoch = time.perf_counter()
            self.emitted = 0
        self._open = ContextVar("open_spans", default=())

    # -- span bookkeeping -----------------------------------------------------

    def _allocate_id(self) -> int:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        return span_id

    def now(self) -> float:
        """Seconds on the tracer's monotonic clock."""
        return time.perf_counter() - self._epoch

    def current_span(self) -> Optional[int]:
        stack = self._open.get()
        return stack[-1] if stack else None

    def begin(self, clock: Optional[float] = None) -> SpanHandle:
        """Open a span: allocate an id and push it on the open-span stack.

        ``clock`` is a ``time.perf_counter()`` reading the caller already
        took for the span's start (default: read it now).
        """
        if clock is None:
            clock = time.perf_counter()
        stack = self._open.get()
        handle = SpanHandle(
            self._allocate_id(),
            stack[-1] if stack else None,
            clock - self._epoch,
        )
        self._open.set(stack + (handle.span_id,))
        return handle

    def end(
        self,
        handle: SpanHandle,
        event_class: Type[TraceEvent] = PhaseEvent,
        dur: Optional[float] = None,
        **fields: Any,
    ) -> Optional[TraceEvent]:
        """Close a span and emit its event.

        ``dur`` is the span's measured length (default: now minus its
        start on the tracer's clock).
        """
        stack = self._open.get()
        if stack and stack[-1] == handle.span_id:
            self._open.set(stack[:-1])
        elif handle.span_id in stack:  # tolerate mismatched nesting
            self._open.set(tuple(i for i in stack if i != handle.span_id))
        event = event_class(
            span_id=handle.span_id,
            parent_id=handle.parent_id,
            ts=handle.start,
            dur=self.now() - handle.start if dur is None else dur,
            **fields,
        )
        self._emit(event)
        return event

    def point(self, event_class: Type[TraceEvent], **fields: Any) -> Optional[TraceEvent]:
        """Emit an instantaneous event under the current span."""
        event = event_class(
            span_id=self._allocate_id(),
            parent_id=self.current_span(),
            ts=self.now(),
            dur=None,
            **fields,
        )
        self._emit(event)
        return event

    # -- emission -------------------------------------------------------------

    def _emit(self, event: TraceEvent) -> None:
        with self._lock:
            sinks = list(self._sinks)
            self.emitted += 1
        for sink in sinks:
            sink.emit(event)


# -- human-readable rendering -------------------------------------------------


def _describe(event: TraceEvent) -> str:
    """One-line summary of an event's payload (envelope fields dropped)."""
    payload = event.to_dict()
    for envelope_key in ("kind", "span_id", "parent_id", "ts", "dur"):
        payload.pop(envelope_key, None)
    parts = [f"{key}={value}" for key, value in payload.items() if value not in (None, "")]
    text = event.kind
    if parts:
        text += " " + " ".join(parts)
    if event.dur is not None:
        text += f"  [{event.dur * 1e3:.2f}ms]"
    return text


def render_tree(events: Sequence[TraceEvent]) -> str:
    """Render events as an indented forest using their parent links."""
    by_id: Dict[int, TraceEvent] = {event.span_id: event for event in events}
    children: Dict[Optional[int], List[TraceEvent]] = {}
    for event in events:
        parent: Optional[int] = event.parent_id
        if parent is not None and parent not in by_id:
            parent = None  # orphan (parent not captured): promote to root
        children.setdefault(parent, []).append(event)
    for siblings in children.values():
        siblings.sort(key=lambda e: (e.ts, e.span_id))

    lines: List[str] = []

    def walk(event: TraceEvent, depth: int) -> None:
        lines.append("  " * depth + _describe(event))
        for child in children.get(event.span_id, []):
            walk(child, depth + 1)

    for root in children.get(None, []):
        walk(root, 0)
    return "\n".join(lines)
