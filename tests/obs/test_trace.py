"""Unit tests for the tracer: span nesting, sinks, JSONL round-trips."""

import io
import json

from repro import obs
from repro.obs import (
    CacheProbeEvent,
    JsonlSink,
    MemorySink,
    NULL_SPAN,
    PhaseEvent,
    SubtypeGoalEvent,
    Tracer,
    render_tree,
)


def fresh_tracer():
    tracer = Tracer()
    sink = MemorySink()
    tracer.add_sink(sink)
    return tracer, sink


# -- span arithmetic -----------------------------------------------------------


def test_span_ids_are_fresh_and_sequential():
    tracer, sink = fresh_tracer()
    tracer.point(PhaseEvent, name="a")
    tracer.point(PhaseEvent, name="b")
    ids = [event.span_id for event in sink.events]
    assert len(set(ids)) == 2
    assert ids == sorted(ids)


def test_point_event_has_no_duration():
    tracer, sink = fresh_tracer()
    tracer.point(CacheProbeEvent, cache="c", hit=True)
    [event] = sink.events
    assert event.dur is None
    assert event.kind == "cache_probe"


def test_span_nesting_via_parent_ids():
    tracer, sink = fresh_tracer()
    outer = tracer.begin()
    inner = tracer.begin()
    tracer.point(PhaseEvent, name="leaf")
    tracer.end(inner, PhaseEvent, name="inner")
    tracer.end(outer, PhaseEvent, name="outer")

    by_name = {event.name: event for event in sink.events}
    assert by_name["outer"].parent_id is None
    assert by_name["inner"].parent_id == by_name["outer"].span_id
    assert by_name["leaf"].parent_id == by_name["inner"].span_id
    assert by_name["inner"].dur is not None
    assert by_name["outer"].dur >= by_name["inner"].dur


def test_span_context_manager_nests():
    sink = obs.trace_to_memory()
    with obs.span("outer"):
        with obs.span("inner", detail="d"):
            pass
    inner, outer = sink.events  # inner closes first
    assert inner.name == "inner" and inner.detail == "d"
    assert inner.parent_id == outer.span_id


def test_mismatched_end_is_tolerated():
    tracer, sink = fresh_tracer()
    a = tracer.begin()
    b = tracer.begin()
    tracer.end(a, PhaseEvent, name="a")  # out of order
    tracer.end(b, PhaseEvent, name="b")
    assert tracer.current_span() is None
    assert len(sink.events) == 2


def test_enabled_tracks_sinks():
    tracer = Tracer()
    assert not tracer.enabled
    sink = MemorySink()
    tracer.add_sink(sink)
    assert tracer.enabled
    tracer.remove_sink(sink)
    assert not tracer.enabled


def test_disabled_span_is_shared_null_manager():
    assert not obs.TRACER.enabled
    assert obs.span("x") is NULL_SPAN
    assert obs.span("y") is NULL_SPAN
    with obs.span("x"):
        pass
    # Metrics alone still time the region but never reach the tracer.
    obs.enable()
    with obs.span("x") as region:
        pass
    assert region is not NULL_SPAN and not region.traced
    assert obs.TRACER.emitted == 0


def test_reset_restarts_ids():
    tracer, sink = fresh_tracer()
    tracer.point(PhaseEvent, name="a")
    tracer.reset()
    tracer.point(PhaseEvent, name="b")
    assert sink.events[-1].span_id == 0
    assert tracer.emitted == 1


# -- sinks --------------------------------------------------------------------


def test_jsonl_round_trip():
    tracer = Tracer()
    buffer = io.StringIO()
    sink = JsonlSink(buffer)
    tracer.add_sink(sink)
    handle = tracer.begin()
    tracer.point(CacheProbeEvent, cache="memo", hit=False)
    tracer.end(
        handle,
        SubtypeGoalEvent,
        supertype="nat",
        subtype="succ(0)",
        engine="strategy",
        result=True,
    )
    lines = buffer.getvalue().splitlines()
    assert sink.lines_written == 2 == len(lines)
    decoded = [json.loads(line) for line in lines]
    assert decoded[0]["kind"] == "cache_probe"
    assert decoded[1]["kind"] == "subtype_goal"
    assert decoded[1]["supertype"] == "nat"
    assert decoded[1]["result"] is True
    for payload in decoded:
        assert isinstance(payload["span_id"], int)
        assert "parent_id" in payload and "ts" in payload and "dur" in payload
    # The probe was emitted inside the open subtype span.
    assert decoded[0]["parent_id"] == decoded[1]["span_id"]


def test_render_tree_indents_children():
    sink = obs.trace_to_memory()
    with obs.span("root"):
        obs.TRACER.point(PhaseEvent, name="child")
    text = render_tree(sink.events)
    lines = text.splitlines()
    assert lines[0].startswith("phase name=root")
    assert lines[1].startswith("  phase name=child")


def test_render_tree_promotes_orphans():
    sink = obs.trace_to_memory()
    with obs.span("invisible"):
        obs.TRACER.point(PhaseEvent, name="orphan")
        # Drop the closing event by detaching before the span ends.
        obs.TRACER.remove_sink(sink)
    text = render_tree(sink.events)
    assert text.splitlines()[0].startswith("phase name=orphan")


def test_trace_file_survives_a_raising_operation(tmp_path):
    """Regression: an exception mid-trace used to leave the file handle
    open (and, without line flushing, truncated).  trace_to_path +
    close_sinks in a finally must leave a complete, closed JSONL file."""
    trace_path = tmp_path / "crash.jsonl"
    sink = obs.trace_to_path(str(trace_path))
    try:
        with obs.span("doomed"):
            obs.TRACER.point(PhaseEvent, name="before-crash")
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    finally:
        obs.TRACER.close_sinks()
    assert sink.closed
    assert sink.stream.closed  # owns_stream: the handle was released
    assert not obs.TRACER.enabled
    lines = trace_path.read_text().splitlines()
    # Everything made it to disk — including the span closed by the
    # context manager's unwind — and every line parses.
    assert [json.loads(line)["name"] for line in lines] == [
        "before-crash",
        "doomed",
    ]


def test_closed_jsonl_sink_ignores_further_emits():
    buffer = io.StringIO()
    sink = JsonlSink(buffer)
    tracer = Tracer()
    tracer.add_sink(sink)
    tracer.point(PhaseEvent, name="kept")
    sink.close()
    tracer.point(PhaseEvent, name="dropped")
    assert sink.lines_written == 1
    assert "dropped" not in buffer.getvalue()
    # Borrowed stream: flushed but left open.
    assert not buffer.closed


def test_close_is_idempotent_and_tolerates_dead_streams():
    buffer = io.StringIO()
    sink = JsonlSink(buffer, owns_stream=True)
    sink.close()
    sink.close()  # second close must be a no-op
    assert buffer.closed
    dead = io.StringIO()
    dead.close()
    already_dead = JsonlSink(dead, owns_stream=True)
    already_dead.close()  # flush raises ValueError internally; swallowed


def test_close_sinks_closes_every_sink_and_disables():
    tracer = Tracer()
    first, second = io.StringIO(), io.StringIO()
    a = JsonlSink(first)
    b = JsonlSink(second)
    tracer.add_sink(a)
    tracer.add_sink(b)
    tracer.close_sinks()
    assert a.closed and b.closed
    assert not tracer.enabled
    tracer.point(PhaseEvent, name="late")
    assert first.getvalue() == second.getvalue() == ""


# -- module-level conveniences -------------------------------------------------


def test_collect_context_manager_restores_state():
    assert not obs.METRICS.enabled
    with obs.collect() as (metrics, sink):
        assert metrics.enabled
        assert obs.TRACER.enabled
        obs.TRACER.point(PhaseEvent, name="x")
    assert not obs.METRICS.enabled
    assert not obs.TRACER.enabled
    assert [event.name for event in sink.events] == ["x"]


def test_summary_includes_trace_counter():
    with obs.collect():
        obs.METRICS.inc("a")
        obs.TRACER.point(PhaseEvent, name="x")
    data = obs.summary()
    assert data["counters"]["a"] == 1
    assert data["trace_events_emitted"] == 1
