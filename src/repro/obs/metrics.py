"""A process-wide registry of counters, gauges, and histograms.

The pipeline reports *what happened* through metrics and *how long it
took* through spans (:mod:`repro.obs.trace`).  Metrics are always on:
recording one is a couple of dictionary operations per *stage* (never per
tuple), so the uninstrumented hot loops stay untouched.

Registries chain: a :class:`MetricsRegistry` built with a ``parent``
forwards every recording to it, so the per-engine registry on
:class:`~repro.core.execute.ExecutionContext` can be reset independently
(``invalidate()``/``close()``) while the process-wide default registry
keeps the cumulative totals that ``EXPLAIN ANALYZE`` diffs.

:func:`use_registry` swaps the *default* registry for the current
context only (a :mod:`contextvars` override), so one context can capture
exactly its own recordings into a fresh registry without interleaving
with other threads.

The metric catalog (names and meanings) is in ``docs/observability.md``.
"""

from __future__ import annotations

import json
import math
import random
from collections.abc import Sequence
from contextlib import contextmanager
from contextvars import ContextVar


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation.

    ``values`` need not be sorted; raises ``ValueError`` when empty.
    """
    if not values:
        raise ValueError("percentile of empty sequence")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A last-write-wins value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Streaming summary of observed values: count, sum, min, max, mean,
    and reservoir-estimated p50/p95/p99.

    The percentiles come from a bounded reservoir (Vitter's Algorithm R,
    ``RESERVOIR_SIZE`` values, stdlib ``random`` with a fixed per-instance
    seed so summaries are reproducible): exact until the reservoir fills,
    a uniform sample of the stream after.  Memory stays O(1) per
    histogram regardless of observation count.
    """

    RESERVOIR_SIZE = 512

    __slots__ = ("count", "total", "min", "max", "_reservoir", "_rng")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._reservoir: list[float] = []
        self._rng = random.Random(0x0B5)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self._reservoir) < self.RESERVOIR_SIZE:
            self._reservoir.append(value)
        else:
            slot = self._rng.randrange(self.count)
            if slot < self.RESERVOIR_SIZE:
                self._reservoir[slot] = value

    def percentile(self, q: float) -> float:
        """The reservoir-estimated ``q``-th percentile (0-100)."""
        return percentile(self._reservoir, q)

    def summary(self) -> dict:
        """A JSON-ready summary (empty histogram: all-zero, no min/max)."""
        if self.count == 0:
            return {"count": 0, "sum": 0.0}
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.total / self.count,
            "p50": self.percentile(50.0),
            "p95": self.percentile(95.0),
            "p99": self.percentile(99.0),
        }


class MetricsRegistry:
    """Named metrics, created on first use, snapshottable and resettable."""

    def __init__(self, parent: "MetricsRegistry | None" = None) -> None:
        self.parent = parent
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- recording ---------------------------------------------------------

    def counter(self, name: str) -> Counter:
        """The named counter, created at zero on first use."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter()
        return counter

    def gauge(self, name: str) -> Gauge:
        """The named gauge, created at zero on first use."""
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge()
        return gauge

    def histogram(self, name: str) -> Histogram:
        """The named histogram, created empty on first use."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram()
        return histogram

    def inc(self, name: str, amount: int = 1) -> None:
        """Increment a counter here and in every ancestor registry."""
        self.counter(name).inc(amount)
        if self.parent is not None:
            self.parent.inc(name, amount)

    def set_gauge(self, name: str, value: float) -> None:
        """Set a gauge here and in every ancestor registry."""
        self.gauge(name).set(value)
        if self.parent is not None:
            self.parent.set_gauge(name, value)

    def observe(self, name: str, value: float) -> None:
        """Record a histogram observation here and in every ancestor."""
        self.histogram(name).observe(value)
        if self.parent is not None:
            self.parent.observe(name, value)

    # -- reading -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Every metric's current value: counters and gauges as numbers,
        histograms as summary dicts, sorted by name."""
        out: dict[str, object] = {}
        for name, counter in self._counters.items():
            out[name] = counter.value
        for name, gauge in self._gauges.items():
            out[name] = gauge.value
        for name, histogram in self._histograms.items():
            out[name] = histogram.summary()
        return dict(sorted(out.items()))

    def reset(self) -> None:
        """Drop every metric (they recreate at zero on next use)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    def render_text(self) -> str:
        """One ``name value`` line per metric (histograms as key=value)."""
        lines = []
        for name, value in self.snapshot().items():
            if isinstance(value, dict):
                inner = " ".join(f"{k}={v:g}" for k, v in value.items())
                lines.append(f"{name} {inner}")
            else:
                lines.append(f"{name} {value:g}")
        return "\n".join(lines)

    def render_json(self, *, indent: int | None = 2) -> str:
        """The snapshot as a JSON document."""
        return json.dumps(self.snapshot(), indent=indent)


def delta(before: dict, after: dict) -> dict:
    """The metrics that changed between two snapshots.

    Counters and gauges diff numerically; histograms diff their ``count``
    and ``sum`` fields and carry the ``after`` percentiles (p50/p95/p99
    are not differences — they describe the distribution as of the second
    snapshot).  Metrics absent from ``before`` count from zero; unchanged
    metrics are omitted.
    """
    changed: dict[str, object] = {}
    for name, value in after.items():
        prior = before.get(name)
        if isinstance(value, dict):
            prior = prior or {"count": 0, "sum": 0.0}
            if value.get("count", 0) != prior.get("count", 0):
                entry = {
                    "count": value.get("count", 0) - prior.get("count", 0),
                    "sum": value.get("sum", 0.0) - prior.get("sum", 0.0),
                }
                for key in ("p50", "p95", "p99"):
                    if key in value:
                        entry[key] = value[key]
                changed[name] = entry
        else:
            diff = value - (prior or 0)
            if diff != 0:
                changed[name] = diff
    return changed


#: The process-wide default registry; stage instrumentation without an
#: execution context (kernels, sampling, streaming, SQLite) records here.
_DEFAULT = MetricsRegistry()

#: A context-local override of the default registry.  While set (see
#: :func:`use_registry`), every module-level recording in this context —
#: and only this context — lands on the override instead.
_ACTIVE: ContextVar[MetricsRegistry | None] = ContextVar(
    "repro_metrics_registry", default=None
)


def get_registry() -> MetricsRegistry:
    """The effective default registry of this context.

    The context-local override installed by :func:`use_registry` when one
    is active, else the process-wide default.
    """
    active = _ACTIVE.get()
    return active if active is not None else _DEFAULT


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide default registry (tests); returns the
    previous one."""
    global _DEFAULT
    previous = _DEFAULT
    _DEFAULT = registry
    return previous


@contextmanager
def use_registry(registry: MetricsRegistry):
    """Route this context's module-level recordings to ``registry``.

    Context-local (a thread installs its own without touching siblings);
    restores the previous state on exit.
    """
    token = _ACTIVE.set(registry)
    try:
        yield registry
    finally:
        _ACTIVE.reset(token)


def inc(name: str, amount: int = 1) -> None:
    """Increment a counter on the effective default registry."""
    get_registry().inc(name, amount)


def set_gauge(name: str, value: float) -> None:
    """Set a gauge on the effective default registry."""
    get_registry().set_gauge(name, value)


def observe(name: str, value: float) -> None:
    """Record a histogram observation on the effective default registry."""
    get_registry().observe(name, value)


def snapshot() -> dict:
    """Snapshot the effective default registry."""
    return get_registry().snapshot()
