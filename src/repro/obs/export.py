"""Prometheus text-exposition rendering of a telemetry snapshot.

Turns a :meth:`TelemetryRegistry.snapshot` into the plain-text format
every Prometheus-compatible scraper understands (text exposition format
version 0.0.4):

* counters   → ``tlp_<name>_total`` with ``# TYPE ... counter``;
* gauges     → ``tlp_<name>`` with ``# TYPE ... gauge``;
* histograms → ``tlp_<name>_seconds`` classic histograms: cumulative
  ``_bucket{le="..."}`` series over the fixed log2 grid, ending in
  ``le="+Inf"``, plus ``_sum`` and ``_count``;
* timers     → ``tlp_<name>_seconds_min``/``_seconds_max`` gauges only:
  the ``timers`` section is a view of the histogram of the same name,
  whose ``_sum``/``_count`` it would repeat, and Prometheus histograms
  have no native extrema.

Dotted metric names become underscore-separated (``subtype.holds`` →
``tlp_subtype_holds_seconds``); an optional label set is attached to
every sample line, which is how multi-worker deployments distinguish
scrapes (``instance``/``job`` conventionally come from the scraper).

The module also ships a strict :func:`parse_exposition` used by the
tests and the CI gate to assert the output is genuinely scrapeable —
every sample line must round-trip, bucket series must be cumulative,
and ``+Inf`` must equal ``_count``.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Mapping, Optional

from .histogram import BUCKET_BOUNDS_S

__all__ = [
    "CONTENT_TYPE",
    "render_prometheus",
    "parse_exposition",
]

#: What a conforming HTTP endpoint serves the exposition as.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Every metric this writer emits is namespaced under one prefix.
NAMESPACE = "tlp"

_INVALID_METRIC_CHARS = re.compile(r"[^a-zA-Z0-9_:]")
_INVALID_LABEL_CHARS = re.compile(r"[^a-zA-Z0-9_]")

#: One sample line: name, optional {labels}, value.
_SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^{}]*\})?"
    r" (?P<value>[-+]?(?:[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?|Inf|NaN))$"
)


def _metric_name(name: str, suffix: str = "") -> str:
    base = _INVALID_METRIC_CHARS.sub("_", name)
    return f"{NAMESPACE}_{base}{suffix}"


def _render_labels(labels: Optional[Mapping[str, str]]) -> str:
    if not labels:
        return ""
    parts = []
    for key in sorted(labels):
        clean_key = _INVALID_LABEL_CHARS.sub("_", str(key))
        value = str(labels[key]).replace("\\", r"\\").replace('"', r"\"")
        value = value.replace("\n", r"\n")
        parts.append(f'{clean_key}="{value}"')
    return "{" + ",".join(parts) + "}"


def _fmt(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _merge_label_sets(
    base: str, extra: Optional[Mapping[str, str]]
) -> str:
    """Join the shared label block with a per-sample one (``le=...``)."""
    if not base:
        return _render_labels(extra)
    if not extra:
        return base
    inner = base[1:-1] + "," + _render_labels(extra)[1:-1]
    return "{" + inner + "}"


def render_prometheus(
    snapshot: Dict[str, Any],
    labels: Optional[Mapping[str, str]] = None,
    extra_gauges: Optional[Mapping[str, float]] = None,
) -> str:
    """Render a registry snapshot as Prometheus text exposition.

    ``labels`` attach to every sample line; ``extra_gauges`` let a
    surface inject point-in-time state that lives outside the registry
    (daemon uptime, LRU occupancy) without mutating the registry first.
    """
    label_block = _render_labels(labels)
    lines: List[str] = []

    for name, value in snapshot.get("counters", {}).items():
        metric = _metric_name(name, "_total")
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric}{label_block} {_fmt(value)}")

    gauges = dict(snapshot.get("gauges", {}))
    if extra_gauges:
        gauges.update(extra_gauges)
    for name in sorted(gauges):
        metric = _metric_name(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric}{label_block} {_fmt(gauges[name])}")

    histograms = snapshot.get("histograms", {})
    for name, stat in snapshot.get("timers", {}).items():
        # Every timer is a view of the histogram of the same name, which
        # carries _sum/_count itself — emit only the extrema it lacks.
        for bound_name, key in (("min", "min_s"), ("max", "max_s")):
            extremum = _metric_name(name, f"_seconds_{bound_name}")
            lines.append(f"# TYPE {extremum} gauge")
            lines.append(
                f"{extremum}{label_block} {_fmt(stat.get(key, 0.0))}"
            )

    for name, stat in histograms.items():
        metric = _metric_name(name, "_seconds")
        lines.append(f"# TYPE {metric} histogram")
        buckets = {
            int(index): int(count)
            for index, count in stat.get("buckets", {}).items()
        }
        cumulative = 0
        for index, bound in enumerate(BUCKET_BOUNDS_S):
            cumulative += buckets.get(index, 0)
            le = _merge_label_sets(label_block, {"le": f"{bound:.9g}"})
            lines.append(f"{metric}_bucket{le} {cumulative}")
        le = _merge_label_sets(label_block, {"le": "+Inf"})
        lines.append(f"{metric}_bucket{le} {_fmt(stat['count'])}")
        lines.append(f"{metric}_sum{label_block} {_fmt(stat['total_s'])}")
        lines.append(f"{metric}_count{label_block} {_fmt(stat['count'])}")

    return "\n".join(lines) + "\n" if lines else "\n"


def parse_exposition(text: str) -> Dict[str, float]:
    """Parse exposition text back into ``{"name{labels}": value}``.

    Strict: raises :class:`ValueError` on any line that is neither a
    comment, blank, nor a well-formed sample.  The tests and the CI
    observability gate run every rendered document through this.
    """
    samples: Dict[str, float] = {}
    for line_number, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        matched = _SAMPLE_LINE.match(line)
        if matched is None:
            raise ValueError(
                f"line {line_number} is not valid exposition: {line!r}"
            )
        raw = matched.group("value")
        value = float("inf") if raw in ("Inf", "+Inf") else float(raw)
        key = matched.group("name") + (matched.group("labels") or "")
        if key in samples:
            raise ValueError(f"line {line_number} repeats sample {key!r}")
        samples[key] = value
    return samples
