"""Process-wide telemetry registry: named counters, gauges, and timings.

The registry is the metrics half of ``repro.obs`` (the trace-event half
lives in :mod:`repro.obs.trace`).  It is designed around one invariant:
**when disabled it costs ~nothing**.  Instrumented hot paths guard every
recording call with a single attribute check (``if METRICS.enabled:``),
and the registry's own entry points return immediately — allocating
nothing — when the flag is down.  Enabling flips one boolean; there is no
re-import or monkey-patching involved.

All mutation happens under one lock, so concurrent engines (the future
sharded/batched deployments the ROADMAP describes) can share the
process-wide instance safely.  Counter/gauge/timer reads take the same
lock and return plain snapshots, never live references.

Naming convention: dotted lowercase paths, subsystem first —
``subtype.goals``, ``match.calls``, ``sld.steps``, ``checker.clause_check``.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional

from .histogram import HistogramStat

__all__ = ["HistogramStat", "TelemetryRegistry"]


class TelemetryRegistry:
    """Thread-safe named counters, gauges, and timing histograms."""

    def __init__(self) -> None:
        self.enabled = False
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, HistogramStat] = {}

    # -- lifecycle -----------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Zero every metric (the enabled flag is left as-is)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    # -- recording -----------------------------------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` (no-op while disabled)."""
        if not self.enabled:
            return
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (no-op while disabled)."""
        if not self.enabled:
            return
        with self._lock:
            self._gauges[name] = value

    def gauge_max(self, name: str, value: float) -> None:
        """Raise gauge ``name`` to ``value`` if larger (no-op disabled)."""
        if not self.enabled:
            return
        with self._lock:
            if value > self._gauges.get(name, float("-inf")):
                self._gauges[name] = value

    def observe(self, name: str, seconds: float) -> None:
        """Record one timing observation (no-op while disabled).

        The sample lands in the fixed-log-bucket histogram ``name``,
        which keeps count, total, min and max alongside its buckets —
        the ``timers`` view of :meth:`snapshot` is derived from those
        moments.  Disabled, this returns before touching anything.
        Timed regions reach here through :func:`repro.obs.span`.
        """
        if not self.enabled:
            return
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = HistogramStat()
            histogram.record(seconds)

    def merge_snapshot(self, snapshot: Dict[str, Any]) -> None:
        """Fold a :meth:`snapshot` from another registry into this one.

        Worker processes of the batch service record into their own
        process-local registry and ship ``snapshot()`` dicts back to the
        coordinator, which merges them here: counters add, gauges keep the
        maximum (the useful aggregate for utilisation/high-water gauges),
        and histograms fold bucket counts and moments together.  The
        ``timers`` section is a view of the histograms and is not read.
        Merging the same snapshot twice would double-count — callers
        merge each worker snapshot exactly once.  No-op while disabled,
        like all recording.
        """
        if not self.enabled:
            return
        with self._lock:
            for name, value in snapshot.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0) + value
            for name, value in snapshot.get("gauges", {}).items():
                if value > self._gauges.get(name, float("-inf")):
                    self._gauges[name] = value
            for name, sample in snapshot.get("histograms", {}).items():
                histogram = self._histograms.get(name)
                if histogram is None:
                    histogram = self._histograms[name] = HistogramStat()
                histogram.merge(sample)

    # -- reading -------------------------------------------------------------

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    def gauge_value(self, name: str) -> Optional[float]:
        with self._lock:
            return self._gauges.get(name)

    def timer(self, name: str) -> Optional[Dict[str, float]]:
        """The timer view of histogram ``name`` (total/count/min/max/mean)."""
        with self._lock:
            stat = self._histograms.get(name)
            return stat.moments() if stat else None

    def histogram(self, name: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            stat = self._histograms.get(name)
            return stat.snapshot() if stat else None

    def snapshot(self) -> Dict[str, Any]:
        """A plain-dict copy of everything recorded so far."""
        with self._lock:
            return {
                "enabled": self.enabled,
                "counters": dict(sorted(self._counters.items())),
                "gauges": dict(sorted(self._gauges.items())),
                "timers": {
                    name: stat.moments()
                    for name, stat in sorted(self._histograms.items())
                },
                "histograms": {
                    name: stat.snapshot()
                    for name, stat in sorted(self._histograms.items())
                },
            }

    def render(self) -> str:
        """A human-readable metrics table (the ``--stats`` output)."""
        snap = self.snapshot()
        lines = []
        if snap["counters"]:
            lines.append("counters")
            width = max(len(n) for n in snap["counters"]) + 2
            for name, value in snap["counters"].items():
                lines.append(f"  {name.ljust(width)}{value:>12,}")
        if snap["gauges"]:
            lines.append("gauges")
            width = max(len(n) for n in snap["gauges"]) + 2
            for name, value in snap["gauges"].items():
                lines.append(f"  {name.ljust(width)}{value:>12g}")
        if snap["timers"]:
            lines.append("timers")
            width = max(len(n) for n in snap["timers"]) + 2
            for name, stat in snap["timers"].items():
                lines.append(
                    f"  {name.ljust(width)}"
                    f"{stat['count']:>8,} calls"
                    f"{stat['total_s'] * 1e3:>12.2f}ms total"
                    f"{stat['mean_s'] * 1e6:>12.1f}µs mean"
                    f"{stat['min_s'] * 1e6:>12.1f}µs min"
                    f"{stat['max_s'] * 1e6:>12.1f}µs max"
                )
        if snap["histograms"]:
            lines.append("latency histograms")
            width = max(len(n) for n in snap["histograms"]) + 2
            for name, stat in snap["histograms"].items():
                lines.append(
                    f"  {name.ljust(width)}"
                    f"{stat['p50_s'] * 1e6:>12.1f}µs p50"
                    f"{stat['p90_s'] * 1e6:>12.1f}µs p90"
                    f"{stat['p99_s'] * 1e6:>12.1f}µs p99"
                    f"{stat['max_s'] * 1e6:>12.1f}µs max"
                )
        if not lines:
            return "(no telemetry recorded)"
        return "\n".join(lines)
