"""The plan-feedback store: observed costs that calibrate the cost model.

:class:`PlanFeedback` keeps a bounded, thread-safe record of what each
``(semantics cell, lane)`` pair actually cost — ``(rows, worlds, cost
units, seconds)`` per completed execution — recorded by the outermost
frame of :func:`repro.core.execute.execute_plan` when the engine opts in
with ``calibrate=True``.  The store answers the calibration questions
the :class:`~repro.core.cost.CostModel` and the ``feedback`` report ask:

* :meth:`per_row_seconds` — the median observed seconds per row visit of
  a lane;
* :meth:`linear_fit` — a least-squares ``seconds = a + b·rows`` fit (the
  intercept is the lane's measured fixed overhead);
* :meth:`seconds_per_unit` — the median seconds per cost unit, which
  turns unit-cost estimates into wall-clock predictions.

Everything is observational: the store never changes an answer.  JSON
persistence (:meth:`save`/:meth:`load`) lets calibration survive
restarts — the engine loads at construction when given a
``feedback_path`` and saves on ``close()``.

Like the rest of :mod:`repro.obs`: zero dependencies, bounded memory
(per-key deques), and cheap on the hot path (one tuple append under a
lock per recorded execution).
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import tempfile
import threading
from pathlib import Path

from repro.obs import metrics

#: Observations kept per (cell, lane) key — enough for stable medians
#: and fits, bounded against unbounded query churn.
DEFAULT_CAPACITY = 128

#: Fewest observations before a calibration answer is offered; below
#: this the model keeps its static defaults.
MIN_OBSERVATIONS = 3


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


class PlanFeedback:
    """Bounded per-(cell, lane) observations of actual execution cost."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self.capacity = max(int(capacity), 1)
        self._lock = threading.Lock()
        #: key -> list of (rows, worlds, cost_units, seconds); append-only
        #: up to ``capacity``, then oldest-first eviction.
        self._observations: dict[
            tuple[str, str], list[tuple[float, float, float, float]]
        ] = {}

    @staticmethod
    def _key(cell: str, lane: str) -> tuple[str, str]:
        return (cell, lane)

    def record(
        self,
        cell: str,
        lane: str,
        *,
        rows: float,
        worlds: float,
        cost: float,
        seconds: float,
    ) -> None:
        """Record one completed execution's actual cost."""
        if seconds < 0 or not math.isfinite(seconds):
            return
        entry = (float(rows), float(worlds), float(cost), float(seconds))
        with self._lock:
            bucket = self._observations.setdefault(self._key(cell, lane), [])
            bucket.append(entry)
            if len(bucket) > self.capacity:
                del bucket[0: len(bucket) - self.capacity]

    def observations(
        self, cell: str, lane: str
    ) -> list[tuple[float, float, float, float]]:
        """The recorded ``(rows, worlds, cost, seconds)`` tuples, oldest
        first."""
        with self._lock:
            return list(self._observations.get(self._key(cell, lane), ()))

    def count(self, cell: str, lane: str) -> int:
        with self._lock:
            return len(self._observations.get(self._key(cell, lane), ()))

    def __len__(self) -> int:
        with self._lock:
            return sum(len(b) for b in self._observations.values())

    # -- calibration answers -------------------------------------------------

    def per_row_seconds(self, cell: str, lane: str) -> float | None:
        """Median observed seconds per row visit, or ``None`` without
        enough data."""
        rates = [
            seconds / rows
            for rows, _, _, seconds in self.observations(cell, lane)
            if rows > 0
        ]
        if len(rates) < MIN_OBSERVATIONS:
            return None
        return _median(rates)

    def seconds_per_unit(self, cell: str, lane: str) -> float | None:
        """Median observed seconds per cost unit, or ``None``."""
        rates = [
            seconds / cost
            for _, _, cost, seconds in self.observations(cell, lane)
            if cost and cost > 0
        ]
        if len(rates) < MIN_OBSERVATIONS:
            return None
        return _median(rates)

    def linear_fit(
        self, cell: str, lane: str
    ) -> tuple[float, float] | None:
        """Least-squares ``seconds = a + b·rows`` over the observations.

        Returns ``(a, b)`` with the intercept clamped at zero (a negative
        measured overhead is noise), or ``None`` without
        :data:`MIN_OBSERVATIONS` points spanning at least two distinct
        row counts (a fit needs slope information).
        """
        points = [
            (rows, seconds)
            for rows, _, _, seconds in self.observations(cell, lane)
            if rows > 0
        ]
        if len(points) < MIN_OBSERVATIONS:
            return None
        if len({rows for rows, _ in points}) < 2:
            return None
        n = float(len(points))
        mean_x = sum(x for x, _ in points) / n
        mean_y = sum(y for _, y in points) / n
        sxx = sum((x - mean_x) ** 2 for x, _ in points)
        if sxx == 0:
            return None
        sxy = sum((x - mean_x) * (y - mean_y) for x, y in points)
        slope = sxy / sxx
        intercept = mean_y - slope * mean_x
        return (max(intercept, 0.0), max(slope, 0.0))

    # -- introspection and persistence ---------------------------------------

    def snapshot(self) -> dict:
        """A JSON-ready summary per (cell, lane): counts and calibration.

        The shape behind ``engine.feedback_snapshot()`` and the
        ``repro-bench feedback`` rendering.
        """
        with self._lock:
            keys = list(self._observations)
        summary: dict[str, dict] = {}
        for cell, lane in sorted(keys):
            entry: dict = {
                "observations": self.count(cell, lane),
            }
            per_row = self.per_row_seconds(cell, lane)
            if per_row is not None:
                entry["per_row_seconds"] = per_row
            per_unit = self.seconds_per_unit(cell, lane)
            if per_unit is not None:
                entry["seconds_per_unit"] = per_unit
            fit = self.linear_fit(cell, lane)
            if fit is not None:
                entry["fit"] = {"intercept": fit[0], "per_row": fit[1]}
            summary[f"{cell}|{lane}"] = entry
        return summary

    def to_dict(self) -> dict:
        """The full persistent form (see :meth:`save`)."""
        with self._lock:
            observations = {
                f"{cell}|{lane}": [list(entry) for entry in bucket]
                for (cell, lane), bucket in sorted(
                    self._observations.items()
                )
            }
        return {
            "version": 1,
            "capacity": self.capacity,
            "observations": observations,
        }

    def save(self, path: str | Path) -> None:
        """Write the store as JSON, atomically.

        The document goes to a temporary file in the same directory, is
        flushed to disk, and then replaces ``path`` in one ``os.replace``:
        a crash mid-write leaves the previous file (or none), never a
        truncated one.
        """
        path = Path(path)
        text = json.dumps(self.to_dict(), indent=1) + "\n"
        fd, temporary = tempfile.mkstemp(
            dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temporary, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(temporary)
            raise

    def load(self, path: str | Path) -> int:
        """Merge a previously-saved store into this one.

        Returns the number of observations loaded.  A missing file loads
        zero observations (first run with a configured ``feedback_path``).
        A truncated or otherwise corrupt file also loads zero — calibration
        is advisory, so a bad file must not stop an engine from starting —
        and counts a ``feedback.load_error`` metric.
        """
        path = Path(path)
        if not path.exists():
            return 0
        try:
            entries = list(_entries(json.loads(path.read_text())))
        except (OSError, ValueError, TypeError, AttributeError):
            metrics.inc("feedback.load_error")
            return 0
        for cell, lane, (rows, worlds, cost, seconds) in entries:
            self.record(
                cell, lane, rows=rows, worlds=worlds, cost=cost, seconds=seconds
            )
        return len(entries)


def _entries(document: dict):
    """``(cell, lane, observation)`` triples of a saved document.

    Raises ``ValueError``/``TypeError``/``AttributeError`` on a document
    of the wrong shape, before anything is recorded.
    """
    for key, bucket in document.get("observations", {}).items():
        cell, _, lane = key.partition("|")
        if not cell or not lane:
            continue
        for entry in bucket:
            rows, worlds, cost, seconds = entry
            yield cell, lane, (
                float(rows), float(worlds), float(cost), float(seconds)
            )
