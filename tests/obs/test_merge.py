"""TelemetryRegistry.merge_snapshot: the worker-pool aggregation path."""

import threading

from repro.obs import TelemetryRegistry


def observed(seed):
    registry = TelemetryRegistry()
    registry.enable()
    registry.inc("files", seed)
    registry.inc("shared", 1)
    registry.gauge("depth", float(seed))
    for _ in range(seed):
        registry.observe("span", 0.5)
    return registry


def test_counters_add_gauges_max_timers_fold():
    main = observed(2)
    main.merge_snapshot(observed(5).snapshot())
    assert main.counter("files") == 7
    assert main.counter("shared") == 2
    assert main.gauge_value("depth") == 5.0
    span = main.timer("span")
    assert span["count"] == 7
    assert span["total_s"] == 7 * 0.5
    assert span["max_s"] == 0.5


def test_merge_into_empty_registry_creates_everything():
    main = TelemetryRegistry()
    main.enable()
    main.merge_snapshot(observed(3).snapshot())
    assert main.counter("files") == 3
    assert main.timer("span")["count"] == 3


def test_merge_is_a_noop_while_disabled():
    main = TelemetryRegistry()
    main.merge_snapshot(observed(3).snapshot())
    assert main.counter("files") == 0
    assert main.timer("span") is None


def test_merge_tolerates_partial_snapshots():
    main = TelemetryRegistry()
    main.enable()
    main.merge_snapshot({"counters": {"only": 1}})
    main.merge_snapshot({})
    assert main.counter("only") == 1


def test_timer_view_merge_keeps_extrema_and_counts():
    """The ``timers`` view is derived from the histograms; merging a
    worker snapshot keeps every one of its fields lossless."""
    main = TelemetryRegistry()
    main.enable()
    main.observe("span", 0.1)
    worker = TelemetryRegistry()
    worker.enable()
    for seconds in (0.05, 0.15, 0.7):
        worker.observe("span", seconds)
    main.merge_snapshot(worker.snapshot())
    merged = main.timer("span")
    assert merged == main.snapshot()["timers"]["span"]
    assert merged["count"] == 4
    assert abs(merged["total_s"] - 1.0) < 1e-9
    assert abs(merged["mean_s"] - 0.25) < 1e-9
    assert merged["max_s"] == 0.7
    assert merged["min_s"] == 0.05


def test_merging_an_empty_snapshot_does_not_clobber_min():
    """An idle worker ships min_s=0.0; folding it in must not drag the
    coordinator's real minimum down to zero."""
    main = TelemetryRegistry()
    main.enable()
    main.observe("span", 0.3)
    idle = TelemetryRegistry()
    idle.enable()
    main.merge_snapshot(idle.snapshot())
    assert main.timer("span")["min_s"] == 0.3
    assert main.histogram("span")["min_s"] == 0.3


def test_histograms_fold_through_merge_snapshot():
    main = observed(2)
    main.merge_snapshot(observed(5).snapshot())
    merged = main.histogram("span")
    assert merged["count"] == 7
    assert sum(merged["buckets"].values()) == 7
    assert merged["p50_s"] >= 0.5  # every sample sat in the 0.5s bucket


def test_concurrent_increments_and_merges_lose_nothing():
    """Thread-pool semantics: direct inc() from many threads plus
    snapshot merges from 'workers' — the lock must serialise both."""
    main = TelemetryRegistry()
    main.enable()

    def worker():
        local = TelemetryRegistry()
        local.enable()
        for _ in range(500):
            main.inc("direct")
            local.inc("shipped")
        main.merge_snapshot(local.snapshot())

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert main.counter("direct") == 8 * 500
    assert main.counter("shipped") == 8 * 500
