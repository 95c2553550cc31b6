"""Unit tests for the telemetry registry: arithmetic, disabled no-ops."""

import threading

from repro import obs
from repro.obs import METRICS, NULL_SPAN, HistogramStat, TelemetryRegistry


def fresh():
    registry = TelemetryRegistry()
    registry.enable()
    return registry


# -- counters and gauges -----------------------------------------------------


def test_counter_arithmetic():
    registry = fresh()
    registry.inc("a")
    registry.inc("a")
    registry.inc("a", 5)
    registry.inc("b", -2)
    assert registry.counter("a") == 7
    assert registry.counter("b") == -2
    assert registry.counter("missing") == 0


def test_gauge_set_and_max():
    registry = fresh()
    registry.gauge("g", 3.5)
    assert registry.gauge_value("g") == 3.5
    registry.gauge("g", 1.0)
    assert registry.gauge_value("g") == 1.0
    registry.gauge_max("m", 4)
    registry.gauge_max("m", 2)
    registry.gauge_max("m", 9)
    assert registry.gauge_value("m") == 9
    assert registry.gauge_value("missing") is None


def test_timer_stat_accumulates():
    registry = fresh()
    registry.observe("t", 0.5)
    registry.observe("t", 1.5)
    snap = registry.timer("t")
    assert snap == registry.snapshot()["timers"]["t"]
    assert snap["count"] == 2
    assert snap["total_s"] == 2.0
    assert snap["min_s"] == 0.5
    assert snap["max_s"] == 1.5
    assert snap["mean_s"] == 1.0


def test_empty_timer_reports_zero_min():
    assert HistogramStat().moments()["min_s"] == 0.0
    registry = fresh()
    registry.merge_snapshot({"histograms": {"t": HistogramStat().snapshot()}})
    assert registry.timer("t")["min_s"] == 0.0


def test_observe_feeds_timer_and_histogram():
    registry = fresh()
    registry.observe("subtype.holds", 0.002)
    registry.observe("subtype.holds", 0.004)
    timer = registry.timer("subtype.holds")
    assert timer["count"] == 2 and timer["min_s"] == 0.002
    histogram = registry.histogram("subtype.holds")
    assert histogram is not None
    assert histogram["count"] == 2
    assert histogram["min_s"] == 0.002 and histogram["max_s"] == 0.004
    assert registry.histogram("missing") is None


def test_snapshot_and_reset_cover_histograms():
    registry = fresh()
    registry.observe("h", 0.001)
    snap = registry.snapshot()
    assert snap["histograms"]["h"]["count"] == 1
    registry.reset()
    assert registry.histogram("h") is None
    assert registry.snapshot()["histograms"] == {}


def test_reset_zeroes_but_keeps_enabled():
    registry = fresh()
    registry.inc("a")
    registry.gauge("g", 1)
    registry.observe("t", 0.001)
    registry.reset()
    assert registry.enabled
    assert registry.counter("a") == 0
    assert registry.gauge_value("g") is None
    assert registry.timer("t") is None


# -- the disabled invariant ---------------------------------------------------


def test_disabled_records_nothing():
    registry = TelemetryRegistry()  # disabled by default
    registry.inc("a", 100)
    registry.gauge("g", 1.0)
    registry.gauge_max("m", 1.0)
    registry.observe("t", 1.0)
    snap = registry.snapshot()
    assert snap["counters"] == {}
    assert snap["gauges"] == {}
    assert snap["timers"] == {}


def test_disabled_time_is_the_shared_null_singleton():
    assert not METRICS.enabled
    # Allocation-free fast path: the very same object every call.
    assert obs.span("x") is NULL_SPAN
    assert obs.span("y") is NULL_SPAN
    with obs.span("x"):
        pass
    assert METRICS.snapshot()["timers"] == {}
    assert METRICS.snapshot()["histograms"] == {}


def test_process_registry_disabled_by_default():
    # The singleton itself must boot disabled (library import must not
    # start collecting).
    assert isinstance(METRICS, TelemetryRegistry)


# -- rendering and snapshots --------------------------------------------------


def test_snapshot_is_a_copy():
    registry = fresh()
    registry.inc("a")
    snap = registry.snapshot()
    snap["counters"]["a"] = 999
    assert registry.counter("a") == 1


def test_render_mentions_every_metric():
    registry = fresh()
    registry.inc("subtype.goals", 3)
    registry.gauge("sld.max_depth_reached", 7)
    registry.observe("match.match", 0.001)
    table = registry.render()
    assert "subtype.goals" in table
    assert "sld.max_depth_reached" in table
    assert "match.match" in table


def test_render_empty():
    assert TelemetryRegistry().render() == "(no telemetry recorded)"


def test_thread_safety_of_inc():
    registry = fresh()

    def worker():
        for _ in range(1000):
            registry.inc("n")

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert registry.counter("n") == 8000
