"""Fixed-log-bucket latency histograms: mergeable, order-independent.

:class:`HistogramStat` is the one store behind every timed region
(:func:`repro.obs.span` feeds it through ``TelemetryRegistry.observe``).
It keeps the moments a mean needs (total, count, min, max) — the
registry's ``timers`` view is :meth:`HistogramStat.moments` — and
counts observations into a **fixed geometric bucket grid** — powers of
two from 1µs up to ~33s — so p50/p90/p99 summaries survive aggregation
across worker processes.

The grid being *fixed* (the same bounds in every process, every version)
is what makes merging exact: folding two histograms adds bucket counts
elementwise and combines min/max/total/count, so

    merge(a, merge(b, c)) == merge(merge(a, b), c)

bucket-for-bucket — ``TelemetryRegistry.merge_snapshot`` can fold worker
snapshots in *any* order and every quantile summary comes out identical
(``tests/obs/test_histogram.py`` asserts this associativity, including
through a real process pool).  Quantiles are estimated at a bucket's
upper bound, clamped into the observed ``[min, max]`` — a deterministic
function of the merged counts alone, never of merge order.

The bounds double per bucket, so any quantile estimate is within 2x of
the true value — the right resolution for "where does prover time go"
questions (the paper's §6 cost discussion), and 27 machine words per
metric is cheap enough to keep on every hot path.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional

__all__ = ["BUCKET_BOUNDS_S", "HistogramStat", "bucket_index"]

#: Upper bounds (seconds) of the finite buckets: 1µs · 2^i.  Observations
#: beyond the last bound land in one overflow bucket.  Changing this grid
#: is a telemetry-schema change: bump ``SCHEME`` alongside it so foreign
#: snapshots are never merged bucket-for-bucket against a different grid.
BUCKET_BOUNDS_S = tuple(1e-6 * (2.0 ** i) for i in range(26))

#: Identifies the bucket grid inside snapshots (merge sanity check).
SCHEME = "log2-1us-26"

_OVERFLOW = len(BUCKET_BOUNDS_S)


def bucket_index(seconds: float) -> int:
    """The bucket an observation falls into (``_OVERFLOW`` past the grid)."""
    return bisect_left(BUCKET_BOUNDS_S, seconds)


class HistogramStat:
    """Latency distribution for one named operation."""

    __slots__ = ("count", "total_s", "min_s", "max_s", "_buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total_s = 0.0
        self.min_s = float("inf")
        self.max_s = 0.0
        self._buckets: List[int] = [0] * (_OVERFLOW + 1)

    # -- recording -----------------------------------------------------------

    def record(self, seconds: float) -> None:
        self.count += 1
        self.total_s += seconds
        if seconds < self.min_s:
            self.min_s = seconds
        if seconds > self.max_s:
            self.max_s = seconds
        self._buckets[bisect_left(BUCKET_BOUNDS_S, seconds)] += 1

    # -- reading -------------------------------------------------------------

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (``0 < q <= 1``) from the bucket counts.

        The estimate is the upper bound of the bucket holding the target
        rank, clamped into the observed ``[min_s, max_s]`` — exact to
        within one bucket width (2x), and dependent only on the merged
        counts, so it is stable under any merge order.
        """
        if not self.count:
            return 0.0
        target = q * self.count
        seen = 0
        for index, bucket_count in enumerate(self._buckets):
            seen += bucket_count
            if seen >= target and bucket_count:
                upper = (
                    BUCKET_BOUNDS_S[index] if index < _OVERFLOW else self.max_s
                )
                return min(max(upper, self.min_s), self.max_s)
        return self.max_s  # pragma: no cover - unreachable (seen == count)

    def moments(self) -> Dict[str, float]:
        """The timer view: total, count, min, max and mean (no buckets)."""
        return {
            "total_s": self.total_s,
            "count": self.count,
            "min_s": self.min_s if self.count else 0.0,
            "max_s": self.max_s,
            "mean_s": self.mean_s,
        }

    def bucket_counts(self) -> List[int]:
        """A copy of the raw per-bucket counts (overflow bucket last)."""
        return list(self._buckets)

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready summary + sparse raw buckets (what merging needs)."""
        return {
            "scheme": SCHEME,
            "count": self.count,
            "total_s": self.total_s,
            "min_s": self.min_s if self.count else 0.0,
            "max_s": self.max_s,
            "mean_s": self.mean_s,
            "p50_s": self.quantile(0.50),
            "p90_s": self.quantile(0.90),
            "p99_s": self.quantile(0.99),
            # Sparse, string-keyed (survives a JSON round trip unchanged).
            "buckets": {
                str(index): count
                for index, count in enumerate(self._buckets)
                if count
            },
        }

    # -- merging -------------------------------------------------------------

    def merge(self, other: Dict[str, object]) -> None:
        """Fold another histogram's :meth:`snapshot` into this one.

        Exact and associative: bucket counts add, extrema combine.  A
        snapshot from a different bucket grid (foreign ``scheme``) folds
        its moments (count/total/min/max) but not its buckets — quantiles
        then degrade gracefully instead of silently lying.
        """
        other_count = int(other.get("count", 0))
        if not other_count:
            return
        self.count += other_count
        self.total_s += float(other.get("total_s", 0.0))
        other_min = float(other.get("min_s", float("inf")))
        if other_min < self.min_s:
            self.min_s = other_min
        other_max = float(other.get("max_s", 0.0))
        if other_max > self.max_s:
            self.max_s = other_max
        if other.get("scheme", SCHEME) != SCHEME:
            return
        buckets = other.get("buckets")
        if isinstance(buckets, dict):
            for key, value in buckets.items():
                index = int(key)
                if 0 <= index <= _OVERFLOW:
                    self._buckets[index] += int(value)

    @classmethod
    def from_snapshot(cls, snapshot: Dict[str, object]) -> "HistogramStat":
        stat = cls()
        stat.merge(snapshot)
        return stat


def summarise(snapshot: Dict[str, object]) -> Dict[str, float]:
    """The summary-only view of a histogram snapshot (no raw buckets).

    What run reports and the ``stats`` daemon op embed: enough to read
    the distribution, too small to bloat a JSON report.
    """
    return {
        "count": int(snapshot.get("count", 0)),
        "total_s": float(snapshot.get("total_s", 0.0)),
        "min_s": float(snapshot.get("min_s", 0.0)),
        "max_s": float(snapshot.get("max_s", 0.0)),
        "mean_s": float(snapshot.get("mean_s", 0.0)),
        "p50_s": float(snapshot.get("p50_s", 0.0)),
        "p90_s": float(snapshot.get("p90_s", 0.0)),
        "p99_s": float(snapshot.get("p99_s", 0.0)),
    }
