"""obs.span: the one timing instrument behind metrics, traces and profiles."""

import asyncio

import pytest

from repro import obs
from repro.obs import NULL_SPAN, PhaseEvent, Span, SubtypeGoalEvent


@pytest.mark.parametrize(
    "metrics, tracing",
    [(False, False), (True, False), (False, True), (True, True)],
    ids=["off", "metrics", "tracing", "both"],
)
def test_span_under_each_switch(metrics, tracing):
    obs.METRICS.enabled = metrics
    sink = obs.trace_to_memory() if tracing else None
    region = obs.span("checker.parse", detail="d")
    with region:
        sum(range(1000))

    if not (metrics or tracing):
        # Allocation-free fast path: the very same object every call.
        assert region is NULL_SPAN
        assert obs.span("other") is NULL_SPAN
        assert obs.METRICS.snapshot()["timers"] == {}
        assert obs.TRACER.emitted == 0
        return
    assert isinstance(region, Span)
    assert region.traced is tracing
    assert region.duration > 0.0

    snapshot = obs.METRICS.snapshot()
    if metrics:
        timer = snapshot["timers"]["checker.parse"]
        histogram = snapshot["histograms"]["checker.parse"]
        assert timer["count"] == histogram["count"] == 1
        assert timer["total_s"] == histogram["total_s"] == region.duration
        assert timer["min_s"] == timer["max_s"] == timer["mean_s"] == region.duration
        assert list(snapshot["timers"]) == ["checker.parse"]
    else:
        assert snapshot["timers"] == {} and snapshot["histograms"] == {}

    if tracing:
        [event] = sink.events
        assert isinstance(event, PhaseEvent)
        assert (event.name, event.detail) == ("checker.parse", "d")
        assert event.dur == region.duration
        if metrics:  # one clock pair feeds both halves
            assert snapshot["timers"]["checker.parse"]["total_s"] == event.dur
    else:
        assert obs.TRACER.emitted == 0


def test_typed_span_carries_attached_fields_only_when_traced():
    obs.enable()
    with obs.span("subtype.holds", SubtypeGoalEvent) as region:
        assert not region.traced  # metrics only: nothing to attach
    sink = obs.trace_to_memory()
    with obs.span("subtype.holds", SubtypeGoalEvent) as region:
        if region.traced:
            region.attach(supertype="nat", subtype="0", result=True)
    [event] = sink.events
    assert isinstance(event, SubtypeGoalEvent)
    assert (event.supertype, event.subtype, event.result) == ("nat", "0", True)
    assert obs.METRICS.timer("subtype.holds")["count"] == 2


def test_span_closes_when_its_block_raises():
    obs.enable()
    sink = obs.trace_to_memory()
    with pytest.raises(RuntimeError):
        with obs.span("outer"):
            with obs.span("doomed"):
                raise RuntimeError("boom")
    assert [event.name for event in sink.events] == ["doomed", "outer"]
    assert obs.TRACER.current_span() is None
    assert obs.METRICS.timer("doomed")["count"] == 1


def test_spans_nest_per_asyncio_task():
    """Interleaved requests on one event loop keep their own parents."""
    sink = obs.trace_to_memory()

    async def request(name):
        with obs.span(name):
            await asyncio.sleep(0)
            with obs.span(name + ".inner"):
                await asyncio.sleep(0)

    async def main():
        await asyncio.gather(request("a"), request("b"))

    asyncio.run(main())
    by_name = {event.name: event for event in sink.events}
    for name in ("a", "b"):
        assert by_name[name].parent_id is None
        assert by_name[name + ".inner"].parent_id == by_name[name].span_id
