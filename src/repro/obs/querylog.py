"""An always-on structured log of every query execution.

Spans (:mod:`repro.obs.trace`) answer *where time went inside* one
execution; metrics (:mod:`repro.obs.metrics`) answer *how much of
everything happened* cumulatively.  The query log answers the operational
question in between: *which queries ran, what did each one cost, and what
did it get* — one :class:`QueryRecord` per outermost execution, capturing
the wall-clock timestamp, the query digest, the planned lane and the lane
that actually answered, the cost estimate against the actual work, the
guard's partial-progress counters, the degradation event, the DKW epsilon
whenever a sampling estimator produced the answer, the error class on
failure, and the duration.  The record is the only per-execution fact
store: EXPLAIN ANALYZE, the serving tier and the slow-query trail all
read it (the executing thread finds it as
:attr:`~repro.core.execute.ExecutionContext.last_record`).

The log is a bounded ring buffer on the engine's
:class:`~repro.core.execute.ExecutionContext`, recorded from the
outermost frame of :func:`~repro.core.execute.execute_plan` — success,
degradation, and error paths alike — and surfaced as
:meth:`engine.recent_queries()
<repro.core.engine.AggregationEngine.recent_queries>`.  Recording a query
is a handful of attribute assignments plus one deque append; there is no
off switch because none is needed.

A *slow-query threshold* (``slow_query_ms``) optionally persists
offending records: any record at or above the threshold is appended as
one JSON object per line to ``slow_query_path``, the shape audit
tooling tails.  The record schema is documented in
``docs/observability.md``.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from collections import deque
from pathlib import Path

from repro.exceptions import ObservabilityError

#: Default ring-buffer capacity (engine kwarg ``query_log_capacity``).
DEFAULT_CAPACITY = 256

#: Record statuses.  The engine's outermost execution frame writes the
#: first three; the serving tier (:mod:`repro.serve`) additionally
#: records admission-control rejections as ``shed`` — a request that
#: never executed, with ``lane`` set to ``"admission"`` and ``error``
#: naming the shed class — so one log stream accounts for admitted and
#: rejected work alike.
STATUS_OK = "ok"
STATUS_DEGRADED = "degraded"
STATUS_ERROR = "error"
STATUS_SHED = "shed"

#: The ``lane`` value of records that never reached an execution lane
#: (admission-control sheds and cost-based rejections).
ADMISSION_LANE = "admission"


def query_digest(text: str) -> str:
    """A short stable digest of the canonical query text.

    Lets log consumers group and join records by query identity without
    carrying (or exposing) full query text in downstream systems.
    """
    return hashlib.sha1(text.encode("utf-8")).hexdigest()[:12]


class QueryRecord:
    """One executed query, as the audit trail sees it.

    Attributes
    ----------
    ts:
        Wall-clock epoch seconds when execution started (correlates with
        ``Span.start_ts``).
    query / digest:
        The canonical SQL text and its :func:`query_digest`.
    mapping_semantics / aggregate_semantics:
        The semantics cell, as the enum string values.
    lane:
        The planner-chosen execution lane.
    executed_lane:
        The lane that produced the answer: differs from ``lane`` after a
        runtime fallback (nested composition declining to sampling) or a
        degradation.  Error records and records that never executed
        repeat ``lane``.
    status:
        ``"ok"`` | ``"degraded"`` | ``"error"`` | ``"shed"`` (the last
        written only by the serving tier's admission controller).
    degraded:
        The degradation event dict (``from``/``to``/``reason``/
        ``progress``, plus ``samples``/``epsilon`` for a sampling rerun),
        or ``None``.
    breach:
        Class name of the guardrail error that tripped (recorded whether
        degradation recovered or the error propagated), or ``None``.
    error:
        Class name of the error the caller saw, or ``None`` on success
        (a recovered breach leaves ``error`` ``None`` but sets
        ``breach``).
    seconds:
        Monotonic wall-clock duration of the outermost execution frame.
    rows:
        Input size: row count of the compiled query's source table.
    worlds:
        Possible worlds the guard counted (``None`` when no guard ran —
        world counting lives in the guard's cooperative checks).
    guard:
        The guard's final partial-progress counters (``rows``/``worlds``
        processed), or ``None`` when no budget was active.
    epsilon:
        The DKW accuracy contract when a sampling estimator produced the
        answer (planned, fallen back to, or degraded to), else ``None``.
    plan_digest:
        Short digest of the plan identity (query text + cell + lane
        chain), so log consumers can group records by *plan*, not just by
        query — a replanned query gets a new digest.
    est_cost / actual_cost:
        The planner's estimated cost units for the chosen lane, and the
        cost recomputed from what actually ran (``None`` when the run
        aborted before completing).  Their ratio is the per-query
        misestimation the ``planner.misestimate.cost`` histogram
        aggregates.
    estimates / actuals / misestimation:
        The whole estimate/actual loop: the plan-time
        :class:`~repro.core.cost.PlanEstimate` as a dict, what the
        executed lane really did in the same units, and the
        ``actual / estimate`` ratios (all ``None`` for plans built
        without an estimate and for records that never executed).
    """

    __slots__ = (
        "ts",
        "query",
        "digest",
        "mapping_semantics",
        "aggregate_semantics",
        "lane",
        "executed_lane",
        "status",
        "degraded",
        "breach",
        "error",
        "seconds",
        "rows",
        "worlds",
        "guard",
        "epsilon",
        "plan_digest",
        "est_cost",
        "actual_cost",
        "estimates",
        "actuals",
        "misestimation",
    )

    def __init__(
        self,
        *,
        ts: float,
        query: str,
        mapping_semantics: str,
        aggregate_semantics: str,
        lane: str,
        status: str,
        seconds: float,
        rows: int,
        executed_lane: str | None = None,
        degraded: dict | None = None,
        breach: str | None = None,
        error: str | None = None,
        worlds: int | None = None,
        guard: dict | None = None,
        epsilon: float | None = None,
        plan_digest: str | None = None,
        est_cost: float | None = None,
        actual_cost: float | None = None,
        estimates: dict | None = None,
        actuals: dict | None = None,
        misestimation: dict | None = None,
    ) -> None:
        self.ts = ts
        self.query = query
        self.digest = query_digest(query)
        self.mapping_semantics = mapping_semantics
        self.aggregate_semantics = aggregate_semantics
        self.lane = lane
        self.executed_lane = lane if executed_lane is None else executed_lane
        self.status = status
        self.degraded = degraded
        self.breach = breach
        self.error = error
        self.seconds = seconds
        self.rows = rows
        self.worlds = worlds
        self.guard = guard
        self.epsilon = epsilon
        self.plan_digest = plan_digest
        self.est_cost = est_cost
        self.actual_cost = actual_cost
        self.estimates = estimates
        self.actuals = actuals
        self.misestimation = misestimation

    def to_dict(self) -> dict:
        """A JSON-ready form (the JSONL slow-log line shape)."""
        return {
            "ts": self.ts,
            "query": self.query,
            "digest": self.digest,
            "mapping_semantics": self.mapping_semantics,
            "aggregate_semantics": self.aggregate_semantics,
            "lane": self.lane,
            "executed_lane": self.executed_lane,
            "status": self.status,
            "degraded": self.degraded,
            "breach": self.breach,
            "error": self.error,
            "seconds": self.seconds,
            "rows": self.rows,
            "worlds": self.worlds,
            "guard": self.guard,
            "epsilon": self.epsilon,
            "plan_digest": self.plan_digest,
            "est_cost": self.est_cost,
            "actual_cost": self.actual_cost,
            "estimates": self.estimates,
            "actuals": self.actuals,
            "misestimation": self.misestimation,
        }

    def __repr__(self) -> str:
        return (
            f"QueryRecord({self.digest} {self.lane} {self.status} "
            f"{self.seconds * 1e3:.3f} ms)"
        )


class QueryLog:
    """A thread-safe ring buffer of the last ``capacity`` query records.

    ``slow_ms``/``slow_path`` arm the slow-query trail: records whose
    duration is at or above the threshold are additionally appended (one
    JSON object per line, under the lock) to the file at ``slow_path``.
    A threshold of ``0`` persists every record — the smoke-test and
    trace-everything configuration.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        *,
        slow_ms: float | None = None,
        slow_path: str | Path | None = None,
    ) -> None:
        self.slow_ms = slow_ms
        self.slow_path = Path(slow_path) if slow_path is not None else None
        self._records: deque[QueryRecord] = deque(maxlen=capacity)
        self._lock = threading.Lock()

    def record(self, record: QueryRecord) -> None:
        """Append one record (and persist it when it is slow)."""
        slow = (
            self.slow_ms is not None
            and self.slow_path is not None
            and record.seconds * 1000.0 >= self.slow_ms
        )
        with self._lock:
            self._records.append(record)
            if slow:
                with self.slow_path.open("a") as handle:
                    handle.write(json.dumps(record.to_dict()) + "\n")

    def recent(self, n: int | None = None) -> list[QueryRecord]:
        """The last ``n`` records (all buffered ones by default), oldest
        first."""
        with self._lock:
            records = list(self._records)
        if n is not None:
            records = records[-n:] if n > 0 else []
        return records

    def clear(self) -> None:
        """Drop every buffered record (the slow-query file is untouched)."""
        with self._lock:
            self._records.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)


def read_slow_log(path: str | Path) -> tuple[list[dict], int]:
    """Read a slow-query JSONL trail; returns ``(records, torn)``.

    A crash mid-append can leave the *final* line torn: it is skipped and
    counted in ``torn`` (0 or 1).  An unparsable line anywhere else means
    the file is corrupt, not torn, and raises
    :class:`~repro.exceptions.ObservabilityError`.
    """
    with open(path) as handle:
        lines = [line.strip() for line in handle]
    lines = [(number, line) for number, line in enumerate(lines, 1) if line]
    records: list[dict] = []
    for index, (number, line) in enumerate(lines):
        try:
            record = json.loads(line)
        except ValueError:
            record = None
        if isinstance(record, dict):
            records.append(record)
        elif index == len(lines) - 1:
            return records, 1
        else:
            raise ObservabilityError(
                f"{path}: line {number} is not a query-log record"
            )
    return records, 0


def now() -> float:
    """Wall-clock epoch seconds (one seam for tests to patch)."""
    return time.time()
