"""The user-facing facade: compile, plan, and execute aggregate queries.

:class:`AggregationEngine` owns the source tables and the schema p-mapping,
and answers queries posed on the mediated schema under any of the six
semantics cells:

>>> engine = AggregationEngine([table], pmapping)              # doctest: +SKIP
>>> engine.answer("SELECT COUNT(*) FROM T1 WHERE date < '2008-1-20'",
...               "by-tuple", "range")                         # doctest: +SKIP
RangeAnswer([1, 3])

Mapping and aggregate semantics accept either the enums or their string
values (``"by-table"``/``"by-tuple"``, ``"range"``/``"distribution"``/
``"expected-value"``).

Answering runs a three-stage pipeline:

1. **compile** (:mod:`repro.core.compile`) — parse the text, resolve the
   ``(Table, PMapping)`` pair, prepare per-mapping reformulations and
   condition evaluators; once per (query, engine);
2. **plan** (:meth:`repro.core.planner.Planner.plan`) — bind the compiled
   query and a semantics cell to an execution lane, with the fallback
   chain recorded on the resulting
   :class:`~repro.core.planner.ExecutionPlan`;
3. **execute** (:mod:`repro.core.execute`) — run the plan against the
   engine's :class:`~repro.core.execute.ExecutionContext` (executor,
   columnar cache, sampling defaults).

:meth:`answer` runs all three stages, serving repeats from the context's
LRU caches; :meth:`prepare` returns a
:class:`~repro.core.execute.PreparedQuery` handle whose repeated
:meth:`~repro.core.execute.PreparedQuery.answer` calls also skip per-row
predicate evaluation by pinning the contribution vectors.

Nested queries (a subquery in FROM, the paper's Q2 shape) are supported:

* under **by-table** semantics directly (each mapping's reformulation is an
  ordinary nested SQL query);
* under **by-tuple/range** by composing per-group ranges: groups partition
  the tuples, mapping choices are independent across groups, and the outer
  aggregate is monotone in each group value, so the outer bounds are the
  outer aggregate of the per-group bounds (exact whenever every group is
  defined in every world — e.g. the inner query has no WHERE clause, as in
  Q2; groups whose inner aggregate can be undefined are dropped with a
  documented soundness caveat);
* under other by-tuple semantics via naive enumeration or sampling,
  according to the engine's policy.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from typing import TYPE_CHECKING

from repro.core import bytable
from repro.core.answers import AggregateAnswer, BatchResult
from repro.core.compile import CompiledQuery, cache_key
from repro.core.execute import ExecutionContext, PreparedQuery
from repro.core.guard import Budget
from repro.core.planner import ExecutionPlan, Planner
from repro.core.semantics import (
    AggregateSemantics,
    MappingSemantics,
    coerce_aggregate_semantics,
    coerce_mapping_semantics,
)
from repro.exceptions import (
    EvaluationError,
    MappingError,
    ReproError,
)
from repro.obs import metrics, trace
from repro.obs.timers import Stopwatch
from repro.schema.mapping import PMapping, SchemaPMapping
from repro.sql.ast import AggregateQuery
from repro.storage.sqlite_backend import SQLiteBackend
from repro.storage.table import Table

if TYPE_CHECKING:
    from repro.obs.profile import Profile
    from repro.obs.querylog import QueryRecord


class AggregationEngine:
    """Answers aggregate queries over sources with uncertain mappings.

    Parameters
    ----------
    tables:
        The source data: a single :class:`Table`, an iterable of tables, or
        a ``{relation_name: Table}`` mapping.
    mappings:
        The uncertainty model: a :class:`SchemaPMapping`, a single
        :class:`PMapping`, or an iterable of p-mappings.
    backend:
        ``"memory"`` evaluates by-table queries in-process; ``"sqlite"``
        materializes the sources into a SQLite database and pushes
        reformulated queries to it (the paper's DBMS-backed configuration).
    allow_exponential / allow_sampling / use_extensions:
        The algorithm-selection policy for open Figure 6 cells: the
        engine's :class:`Planner` is built from these flags (all off: the
        strict paper-faithful policy).
    vectorize:
        With ``True`` (the default), the engine keeps a columnar snapshot
        of each table (:class:`~repro.storage.columnar.ColumnarTable`,
        built lazily and cached until :meth:`invalidate`/:meth:`close`),
        and the by-tuple PTIME, sampling and by-table lanes run their
        array bodies over it (:mod:`repro.core.vectorized`) where the
        query and data allow, with bit-identical answers.  With ``False``
        no snapshot is built and every lane runs its pure-Python body
        (the Figure 2–5 row walks for the PTIME cells), the reference
        the array bodies are checked against.
    samples / seed / max_sequences:
        Defaults for the sampling estimator and the naive-enumeration
        guard; individual :meth:`answer` calls can override them.
    budget / timeout_ms / max_rows / max_worlds / max_support:
        Execution guardrails (see :mod:`repro.core.guard` and
        ``docs/robustness.md``): either a full
        :class:`~repro.core.guard.Budget`, or the individual limits from
        which one is built.  Every :meth:`answer` executes under these
        limits (a per-call ``budget=`` overrides them), raising
        :class:`~repro.exceptions.QueryTimeoutError` /
        :class:`~repro.exceptions.BudgetExceededError` with a structured
        partial-progress snapshot when one trips.
    degrade:
        When True, a guardrail breach walks the lane's explicit
        degradation chain instead of raising: exact exponential work
        (naive enumeration and nested composition) degrades to the
        sampling estimator (its accuracy contract is recorded on the
        execution record and in EXPLAIN ANALYZE).  The degraded rerun
        keeps the resource budgets but not the already-spent deadline.
        Other lanes, the by-tuple PTIME lane among them, are terminal:
        their breach propagates.
    query_log_capacity / slow_query_ms / slow_query_path:
        The always-on structured query log (:mod:`repro.obs.querylog`):
        ring-buffer capacity behind :meth:`recent_queries`, and the
        optional slow-query threshold (milliseconds) at or above which a
        record is also appended, one JSON object per line, to
        ``slow_query_path``.
    """

    def __init__(
        self,
        tables: Table | Iterable[Table] | Mapping[str, Table],
        mappings: SchemaPMapping | PMapping | Iterable[PMapping],
        *,
        backend: str = "memory",
        allow_exponential: bool = False,
        allow_sampling: bool = False,
        use_extensions: bool = False,
        vectorize: bool = True,
        samples: int = 2000,
        seed: int | None = None,
        max_sequences: int = 1 << 22,
        budget: Budget | None = None,
        timeout_ms: float | None = None,
        max_rows: int | None = None,
        max_worlds: int | None = None,
        max_support: int | None = None,
        degrade: bool = False,
        query_log_capacity: int = 256,
        slow_query_ms: float | None = None,
        slow_query_path: str | None = None,
    ) -> None:
        if isinstance(tables, Table):
            tables = [tables]
        if isinstance(tables, Mapping):
            self._tables = dict(tables)
        else:
            self._tables = {table.relation.name: table for table in tables}
        if isinstance(mappings, PMapping):
            mappings = [mappings]
        if isinstance(mappings, SchemaPMapping):
            self._schema_pmapping = mappings
        else:
            self._schema_pmapping = SchemaPMapping(list(mappings))
        for pmapping in self._schema_pmapping:
            if pmapping.source.name not in self._tables:
                raise MappingError(
                    f"p-mapping source relation {pmapping.source.name!r} has "
                    "no table"
                )
        self.planner = Planner(
            allow_exponential=allow_exponential,
            allow_sampling=allow_sampling,
            use_extensions=use_extensions,
        )
        sqlite_backend: SQLiteBackend | None = None
        if backend == "sqlite":
            sqlite_backend = SQLiteBackend()
            for table in self._tables.values():
                sqlite_backend.materialize(table)
            executor = bytable.sqlite_executor(sqlite_backend)
        elif backend == "memory":
            executor = bytable.memory_executor(self._tables)
        else:
            raise EvaluationError(
                f"unknown backend {backend!r} (choices: memory, sqlite)"
            )
        limits = (timeout_ms, max_rows, max_worlds, max_support)
        if budget is not None and any(v is not None for v in limits):
            raise EvaluationError(
                "pass either budget= or the individual limit keywords "
                "(timeout_ms/max_rows/max_worlds/max_support), not both"
            )
        if budget is None and any(v is not None for v in limits):
            budget = Budget(
                timeout_ms=timeout_ms,
                max_rows=max_rows,
                max_worlds=max_worlds,
                max_support=max_support,
            )
        self.context = ExecutionContext(
            self._tables,
            self._schema_pmapping,
            executor,
            backend=sqlite_backend,
            vectorize=vectorize,
            samples=samples,
            seed=seed,
            max_sequences=max_sequences,
            budget=budget,
            degrade=degrade,
            query_log_capacity=query_log_capacity,
            slow_query_ms=slow_query_ms,
            slow_query_path=slow_query_path,
        )

    # -- lifecycle ---------------------------------------------------------

    def invalidate(self) -> None:
        """Drop every cached artifact (compiled, plans, prepared, columnar).

        Call after mutating a source table: cached columnar snapshots and
        pinned prepared queries reflect the rows at build time and would
        otherwise keep answering from stale data.
        """
        self.context.invalidate()

    def close(self) -> None:
        """Release the SQLite backend (if any).

        A SQLite-backed engine refuses further work after ``close()``
        (:class:`EvaluationError` ``"engine is closed"``); a memory-backed
        engine holds no external resources and keeps answering.
        """
        self.context.close()

    def __enter__(self) -> "AggregationEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- pipeline ----------------------------------------------------------

    def compile(self, query: str | AggregateQuery) -> CompiledQuery:
        """Stage 1: the compiled form of ``query`` (cached by text)."""
        return self.context.compile(query)

    def prepare(self, query: str | AggregateQuery) -> PreparedQuery:
        """Compile ``query`` into a reusable prepared-plan handle.

        The handle answers any semantics cell via
        :meth:`~repro.core.execute.PreparedQuery.answer`; its first by-tuple
        execution pins the contribution vectors so later executions skip
        per-row predicate evaluation.  Repeated :meth:`prepare` calls with
        the same query text return the cached handle.
        """
        self.context.ensure_open()
        return self.context.prepare(self.planner, query)

    def plan(
        self,
        query: str | AggregateQuery,
        mapping_semantics: MappingSemantics | str,
        aggregate_semantics: AggregateSemantics | str,
    ) -> ExecutionPlan:
        """Stage 2: the execution plan for one cell (inspectable, cached)."""
        return self.context.plan(
            self.planner,
            self.context.compile(query),
            coerce_mapping_semantics(mapping_semantics),
            coerce_aggregate_semantics(aggregate_semantics),
        )

    # -- answering ---------------------------------------------------------

    def answer(
        self,
        query: str | AggregateQuery,
        mapping_semantics: MappingSemantics | str,
        aggregate_semantics: AggregateSemantics | str,
        *,
        samples: int | None = None,
        seed: int | None = None,
        max_sequences: int | None = None,
        budget: Budget | None = None,
    ) -> AggregateAnswer:
        """Answer ``query`` under one semantics cell.

        Runs the full compile/plan/execute pipeline; the compile and plan
        stages are served from the engine's LRU caches on repeats.
        ``budget`` overrides the engine's guardrails for this call only.

        Raises
        ------
        IntractableError
            When the cell has no PTIME algorithm and the engine's policy
            forbids both the exponential fallback and sampling.
        QueryTimeoutError / BudgetExceededError
            When a guardrail trips and degradation is off (or exhausted).
        """
        self.context.ensure_open()
        with trace.span("answer", query=cache_key(query)):
            plan = self.plan(query, mapping_semantics, aggregate_semantics)
            return plan.answer(
                samples=samples,
                seed=seed,
                max_sequences=max_sequences,
                budget=budget,
            )

    def answer_many(
        self,
        queries: Iterable[str | AggregateQuery],
        mapping_semantics: MappingSemantics | str,
        aggregate_semantics: AggregateSemantics | str,
        *,
        samples: int | None = None,
        seed: int | None = None,
        max_sequences: int | None = None,
        return_errors: bool = False,
    ) -> BatchResult:
        """Answer a batch of queries under one semantics cell, one after
        another in the input order.

        Each query is prepared once (shared with any earlier
        :meth:`prepare`/:meth:`answer` of the same text via the context
        caches), so repeated texts in the batch pay compilation and
        planning only once.

        ``return_errors`` controls what a failing query does to the rest
        of the batch: ``True`` records the typed
        :class:`~repro.exceptions.ReproError` as that query's entry in the
        returned :class:`~repro.core.answers.BatchResult` and keeps going;
        ``False`` (the default) re-raises immediately.
        """

        def one(query: str | AggregateQuery) -> AggregateAnswer | Exception:
            try:
                return self.prepare(query).answer(
                    mapping_semantics,
                    aggregate_semantics,
                    samples=samples,
                    seed=seed,
                    max_sequences=max_sequences,
                )
            except ReproError as error:
                if not return_errors:
                    raise
                self.context.metrics.inc("batch.query_error")
                return error

        return BatchResult(one(query) for query in queries)

    # -- observability -----------------------------------------------------

    def explain(
        self,
        query: str | AggregateQuery,
        mapping_semantics: MappingSemantics | str,
        aggregate_semantics: AggregateSemantics | str,
    ) -> dict:
        """The execution plan, without executing (``EXPLAIN``).

        Returns :meth:`~repro.core.planner.ExecutionPlan.to_dict`: the
        chosen lane, the cell's Figure 6 complexity class, the algorithm,
        and the fallback chain (plus the inner plan for nested queries).
        """
        return self.plan(
            query, mapping_semantics, aggregate_semantics
        ).to_dict()

    def explain_analyze(
        self,
        query: str | AggregateQuery,
        mapping_semantics: MappingSemantics | str,
        aggregate_semantics: AggregateSemantics | str,
        *,
        repeat: int = 1,
        samples: int | None = None,
        seed: int | None = None,
        max_sequences: int | None = None,
    ) -> dict:
        """Execute and report what happened (``EXPLAIN ANALYZE``).

        Runs the query ``repeat`` times under a temporary in-memory trace
        sink (replacing any installed sink for the duration) and returns
        the plan tree plus per-span wall-clock timings (one root span per
        execution) and the process-wide metric deltas of the run.  With
        ``repeat > 1`` the deltas make the cache behaviour visible: one
        ``plan.cache.miss`` on a cold engine, ``repeat - 1`` hits after.

        The report also carries the cost-model loop of the last
        execution, read from its
        :class:`~repro.obs.querylog.QueryRecord`: ``executed_lane``,
        ``estimates`` (the plan-time
        :class:`~repro.core.cost.PlanEstimate`), ``actuals`` (what the
        executed lane really did, in the same units), and
        ``misestimation`` (the ``actual / estimate`` ratios) — the
        Postgres-style ``est rows=... actual rows=...`` comparison — and
        its ``degradation`` event, if any.
        """
        self.context.ensure_open()
        if repeat < 1:
            raise EvaluationError("repeat must be >= 1")
        sink = trace.InMemorySink()
        registry = metrics.get_registry()
        before = registry.snapshot()
        watch = Stopwatch()
        with trace.use_sink(sink), watch:
            for _ in range(repeat):
                answer = self.answer(
                    query,
                    mapping_semantics,
                    aggregate_semantics,
                    samples=samples,
                    seed=seed,
                    max_sequences=max_sequences,
                )
        deltas = metrics.delta(before, registry.snapshot())
        plan = self.plan(query, mapping_semantics, aggregate_semantics)
        report = {
            "query": plan.compiled.text,
            "plan": plan.to_dict(),
            "answer": repr(answer),
            "executions": repeat,
            "seconds": watch.elapsed,
            "spans": [root.to_dict() for root in sink.roots],
            "metrics": deltas,
        }
        record = self.context.last_record
        if record.degraded is not None:
            report["degradation"] = dict(record.degraded)
        if record.estimates is not None:
            report["executed_lane"] = record.executed_lane
            report["estimates"] = record.estimates
            report["actuals"] = record.actuals
            report["misestimation"] = record.misestimation
        return report

    def profile(
        self,
        query: str | AggregateQuery,
        mapping_semantics: MappingSemantics | str,
        aggregate_semantics: AggregateSemantics | str,
        *,
        repeat: int = 1,
        samples: int | None = None,
        seed: int | None = None,
        max_sequences: int | None = None,
    ) -> "Profile":
        """A flat profile of ``repeat`` executions of one semantics cell.

        Runs the query under a temporary in-memory trace sink (replacing
        any installed sink for the duration, like :meth:`explain_analyze`)
        and aggregates the recorded span trees with
        :func:`repro.obs.profile.build_profile`: per span name the call
        count, cumulative and *self* time, and p50/p95 of per-call
        durations, plus the critical path of the slowest execution.  The
        self-time column partitions the recorded root time exactly, so it
        answers "where did the time go" with no remainder.
        """
        from repro.obs.profile import build_profile

        self.context.ensure_open()
        if repeat < 1:
            raise EvaluationError("repeat must be >= 1")
        sink = trace.InMemorySink(capacity=max(repeat, 256))
        with trace.use_sink(sink):
            for _ in range(repeat):
                self.answer(
                    query,
                    mapping_semantics,
                    aggregate_semantics,
                    samples=samples,
                    seed=seed,
                    max_sequences=max_sequences,
                )
        plan = self.plan(query, mapping_semantics, aggregate_semantics)
        return build_profile(
            sink.roots,
            metadata={
                "query": plan.compiled.text,
                "mapping_semantics": plan.mapping_semantics.value,
                "aggregate_semantics": plan.aggregate_semantics.value,
                "executions": repeat,
            },
        )

    def metrics_snapshot(self) -> dict:
        """The per-engine metric state (see ``docs/observability.md``)."""
        return self.context.metrics.snapshot()

    def recent_queries(self, n: int | None = None) -> list["QueryRecord"]:
        """The last ``n`` structured query records, oldest first.

        Every outermost execution — successful, degraded, or errored —
        leaves one :class:`~repro.obs.querylog.QueryRecord` in the
        engine's ring buffer (capacity set by ``query_log_capacity``);
        ``record.to_dict()`` gives the JSON shape documented in
        ``docs/observability.md``.
        """
        return self.context.query_log.recent(n)

    def answer_six(
        self,
        query: str | AggregateQuery,
        **options: object,
    ) -> dict[tuple[MappingSemantics, AggregateSemantics], AggregateAnswer]:
        """All six semantics cells for one query (the paper's Table III).

        The query is parsed and compiled exactly once; see
        :meth:`PreparedQuery.answer_six` for what the cells share and how
        intractable cells are reported.
        """
        return self.prepare(query).answer_six(**options)


__all__: Sequence[str] = ["AggregationEngine"]
