"""Prometheus text exposition over the metrics registry.

:func:`render_prometheus` renders a :class:`~repro.obs.metrics.MetricsRegistry`
in the Prometheus text format (version 0.0.4) — the lingua franca any
scraping service tier understands.  ``GET /metrics`` on ``repro serve``
is the scrape endpoint; ``repro-bench stats`` prints the same text.
Zero dependencies, like the rest of :mod:`repro.obs`.

Naming conventions (documented in ``docs/observability.md``):

* every metric is prefixed ``repro_`` and sanitized to the Prometheus
  grammar — characters outside ``[a-zA-Z0-9_:]`` (the registry uses
  dotted names) become ``_``, so ``plan.cache.hit`` exports as
  ``repro_plan_cache_hit_total``;
* counters gain the conventional ``_total`` suffix and ``# TYPE ...
  counter``;
* gauges export under their sanitized name with ``# TYPE ... gauge``;
* histograms export as Prometheus *summaries*: ``{quantile="0.5|0.95|
  0.99"}`` sample lines from the reservoir estimate, plus the exact
  ``_sum`` and ``_count`` series (quantile lines are omitted while the
  histogram is empty — NaN quantiles scrape poorly).
"""

from __future__ import annotations

import re

from repro.obs import metrics as metrics_mod

#: Prefix applied to every exported metric name.
PREFIX = "repro_"

#: Content type of the text exposition format.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_:]")
_INVALID_FIRST = re.compile(r"^[^a-zA-Z_:]")


def sanitize(name: str, *, prefix: str = PREFIX) -> str:
    """The registry metric name as a valid Prometheus metric name."""
    cleaned = _INVALID_CHARS.sub("_", name)
    cleaned = _INVALID_FIRST.sub("_", cleaned)
    return prefix + cleaned


def _format_value(value: float) -> str:
    """A Prometheus-parseable sample value (repr keeps full precision)."""
    if value != value:  # NaN
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    return repr(value) if isinstance(value, float) else str(value)


def render_prometheus(
    registry: metrics_mod.MetricsRegistry | None = None,
    *,
    prefix: str = PREFIX,
) -> str:
    """The registry in the Prometheus text exposition format.

    Defaults to the effective default registry
    (:func:`repro.obs.metrics.get_registry`).  Families are emitted in
    sorted name order, each with its ``# HELP``/``# TYPE`` header; the
    output always ends with a newline (scrapers require it).
    """
    if registry is None:
        registry = metrics_mod.get_registry()
    lines: list[str] = []
    for name in sorted(registry._counters):
        counter = registry._counters[name]
        exported = sanitize(name, prefix=prefix) + "_total"
        lines.append(f"# HELP {exported} repro counter {name}")
        lines.append(f"# TYPE {exported} counter")
        lines.append(f"{exported} {_format_value(counter.value)}")
    for name in sorted(registry._gauges):
        gauge = registry._gauges[name]
        exported = sanitize(name, prefix=prefix)
        lines.append(f"# HELP {exported} repro gauge {name}")
        lines.append(f"# TYPE {exported} gauge")
        lines.append(f"{exported} {_format_value(gauge.value)}")
    for name in sorted(registry._histograms):
        histogram = registry._histograms[name]
        exported = sanitize(name, prefix=prefix)
        lines.append(f"# HELP {exported} repro histogram {name}")
        lines.append(f"# TYPE {exported} summary")
        if histogram.count:
            for q in (0.5, 0.95, 0.99):
                value = histogram.percentile(q * 100.0)
                lines.append(
                    f'{exported}{{quantile="{q}"}} {_format_value(value)}'
                )
        lines.append(f"{exported}_sum {_format_value(histogram.total)}")
        lines.append(f"{exported}_count {histogram.count}")
    return "\n".join(lines) + "\n"

