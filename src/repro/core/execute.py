"""Stage 3 of the answer pipeline: run execution plans against engine state.

:class:`ExecutionContext` is the per-engine home for everything execution
needs that outlives a single call: the source tables, the certain-query
executor (in-memory or SQLite), the lazily-built columnar snapshots the
array bodies read, the sampling/enumeration defaults, and the LRU caches —
compiled queries keyed by query text, execution plans keyed by
``(query text, mapping semantics, aggregate semantics)``, and prepared
query handles keyed by query text.

:func:`execute_plan` dispatches an :class:`~repro.core.planner.ExecutionPlan`
on its lane; :class:`PreparedQuery` is the user-facing prepare-once/
execute-many handle returned by
:meth:`~repro.core.engine.AggregationEngine.prepare`, which additionally
pins its query's array-backed problem and row vectors (see
:meth:`repro.core.compile.CompiledQuery.pin`) so repeated executions skip
rebuilding masks and re-evaluating predicates.
"""

from __future__ import annotations

import contextvars
import math
import sqlite3
import threading
import time
from collections import OrderedDict
from collections.abc import Mapping

from repro.core import bytable, naive, sampling
from repro.core import guard as guardmod
from repro.core.answers import (
    AggregateAnswer,
    DistributionAnswer,
    ExpectedValueAnswer,
    GroupedAnswer,
    RangeAnswer,
    project,
)
from repro.core.common import run_prepared
from repro.core.compile import CompiledQuery, cache_key, compile_query
from repro.core.eval import apply_aggregate
from repro.core.planner import (
    SAMPLING_SPEC,
    ExecutionPlan,
    Lane,
    Planner,
    degradation_chain,
)
from repro.core.semantics import (
    AggregateSemantics,
    MappingSemantics,
    coerce_aggregate_semantics,
    coerce_mapping_semantics,
)
from repro.exceptions import (
    EngineClosedError,
    EvaluationError,
    GuardrailError,
    IntractableError,
    ReproError,
    UnsupportedQueryError,
)
from repro.core import cost as costmod
from repro.obs import metrics, querylog, trace
from repro.testing import faults
from repro.schema.mapping import SchemaPMapping
from repro.sql.ast import AggregateOp, AggregateQuery
from repro.storage.columnar import ColumnarTable
from repro.storage.sqlite_backend import SQLiteBackend
from repro.storage.table import Table

#: Default capacity of each LRU cache (compiled queries, plans, prepared
#: handles).  Generous for interactive use, bounded for query-churn traffic.
DEFAULT_CACHE_SIZE = 128


class ExecutionContext:
    """Per-engine execution state shared by every plan.

    Unifies what used to be scattered across the engine: tables, the
    executor closure, the optional SQLite backend, the columnar cache, and
    the evaluation defaults — plus the pipeline's LRU caches.
    """

    def __init__(
        self,
        tables: Mapping[str, Table],
        schema_pmapping: SchemaPMapping,
        executor: bytable.CertainExecutor,
        *,
        backend: SQLiteBackend | None = None,
        vectorize: bool = True,
        samples: int = 2000,
        seed: int | None = None,
        max_sequences: int = 1 << 22,
        cache_size: int = DEFAULT_CACHE_SIZE,
        budget: guardmod.Budget | None = None,
        degrade: bool = False,
        query_log_capacity: int = querylog.DEFAULT_CAPACITY,
        slow_query_ms: float | None = None,
        slow_query_path: str | None = None,
    ) -> None:
        self.tables = dict(tables)
        self.schema_pmapping = schema_pmapping
        self.executor = executor
        self.backend = backend
        self.vectorize = vectorize
        self.samples = samples
        self.seed = seed
        self.max_sequences = max_sequences
        self.budget = budget
        self.degrade = degrade
        #: Thread-local home of :attr:`last_record`: the serving tier
        #: answers one context from many worker threads concurrently, and
        #: one request must never read another's record.
        self._thread_state = threading.local()
        #: Build-once columnar snapshots keyed by source-relation name,
        #: shared by every array body (see :meth:`columnar_for`).  Dropped
        #: by :meth:`invalidate` and :meth:`close` (build-once semantics:
        #: an entry reflects the table rows at build time).
        self.columnar_cache: dict[str, ColumnarTable] = {}
        #: The always-on structured query log (``engine.recent_queries()``
        #: and the slow-query JSONL trail); recorded by the outermost
        #: :func:`execute_plan` frame on every path, including errors.
        self.query_log = querylog.QueryLog(
            query_log_capacity,
            slow_ms=slow_query_ms,
            slow_path=slow_query_path,
        )
        self.cache_size = cache_size
        self.closed = False
        #: Serializes the three LRU caches below (and their metrics): the
        #: engine promises thread-safe prepare/answer, and an OrderedDict
        #: being reordered from two threads corrupts itself.
        self._lock = threading.RLock()
        #: Per-engine metric state (cache hits/misses, lane counts); chained
        #: to the process-wide registry so EXPLAIN ANALYZE sees the same
        #: numbers.  Reset by :meth:`invalidate` and :meth:`close`.
        self.metrics = metrics.MetricsRegistry(parent=metrics.get_registry())
        self._compiled: OrderedDict[str, CompiledQuery] = OrderedDict()
        self._plans: OrderedDict[
            tuple[str, MappingSemantics, AggregateSemantics], ExecutionPlan
        ] = OrderedDict()
        self._prepared: OrderedDict[str, PreparedQuery] = OrderedDict()

    @property
    def last_record(self) -> querylog.QueryRecord | None:
        """The calling thread's most recent outermost execution, as the
        :class:`~repro.obs.querylog.QueryRecord` the query log holds
        (the same object); ``None`` before the thread's first one."""
        return getattr(self._thread_state, "record", None)

    # -- lifecycle ---------------------------------------------------------

    def ensure_open(self) -> None:
        """Raise when the engine backing this context has been closed."""
        if self.closed:
            raise EngineClosedError("engine is closed")

    def close(self) -> None:
        """Release the SQLite backend (if any) and refuse further execution.

        Also drops the cached columnar snapshots and resets the
        per-context metric state: a closed context must not keep
        reporting the cache traffic of its previous life (the
        process-wide parent registry retains the cumulative totals).
        """
        if self.backend is not None:
            self.backend.close()
            self.backend = None
            self.closed = True
        self.columnar_cache.clear()
        self.metrics.reset()

    def invalidate(self) -> None:
        """Drop every cache (compiled, plans, prepared, columnar).

        Call after mutating a source table or swapping the planner; cached
        state reflects the data and policy at compile/plan time.  The
        per-context metric state resets with the caches — hit/miss counts
        refer to cache entries that no longer exist.
        """
        with self._lock:
            self._compiled.clear()
            self._plans.clear()
            self._prepared.clear()
            self.columnar_cache.clear()
            self.metrics.reset()

    def columnar_for(self, compiled: CompiledQuery) -> ColumnarTable | None:
        """The cached columnar snapshot of one compiled query's table.

        The one switch for every array body: ``None`` (every lane runs its
        pure-Python reference body) unless the engine was built with
        ``vectorize=True``.  Built once per source relation and
        shared across lanes.  A cached entry whose row count no longer
        matches the table is rebuilt (a defensive guard; :meth:`invalidate`
        after mutating a table remains the contract — a same-length data
        swap is only caught there).
        """
        if not self.vectorize:
            return None
        name = compiled.pmapping.source.name
        with self._lock:
            columnar = self.columnar_cache.get(name)
            if columnar is None or columnar.row_count != len(compiled.table):
                columnar = ColumnarTable(compiled.table)
                self.columnar_cache[name] = columnar
            return columnar

    # -- caches ------------------------------------------------------------

    def _remember(self, cache: OrderedDict, key, value) -> None:
        cache[key] = value
        cache.move_to_end(key)
        while len(cache) > self.cache_size:
            if faults.maybe_fire("plan.cache.evict") is faults.CORRUPT:
                # Injected eviction corruption: dropping the whole cache is
                # the worst state an eviction bug could leave that is still
                # *correct* (misses recompile; answers never change).
                cache.clear()
                return
            cache.popitem(last=False)

    def compile(self, query: str | AggregateQuery) -> CompiledQuery:
        """Compile a query, serving repeats from the text-keyed LRU cache."""
        key = cache_key(query)
        with self._lock:
            compiled = self._compiled.get(key)
            if compiled is None:
                self.metrics.inc("compile.cache.miss")
                with trace.span("compile", query=key):
                    compiled = compile_query(
                        query, self.tables, self.schema_pmapping
                    )
                self._remember(self._compiled, key, compiled)
            else:
                self.metrics.inc("compile.cache.hit")
                self._compiled.move_to_end(key)
            return compiled

    def plan(
        self,
        planner: Planner,
        compiled: CompiledQuery,
        mapping_semantics: MappingSemantics,
        aggregate_semantics: AggregateSemantics,
    ) -> ExecutionPlan:
        """The cell's execution plan, from the LRU plan cache.

        Keyed by ``(query text, mapping semantics, aggregate semantics)``;
        a hit returns the identical :class:`ExecutionPlan` object.
        """
        key = (compiled.text, mapping_semantics, aggregate_semantics)
        with self._lock:
            plan = self._plans.get(key)
            if plan is None:
                self.metrics.inc("plan.cache.miss")
                with trace.span(
                    "plan.select_lane",
                    query=compiled.text,
                    mapping_semantics=mapping_semantics.value,
                    aggregate_semantics=aggregate_semantics.value,
                ):
                    plan = planner.plan(
                        compiled, mapping_semantics, aggregate_semantics, self
                    )
                self.metrics.inc(
                    "plan.cell."
                    f"{compiled.query.aggregate.op.value}."
                    f"{mapping_semantics.value}.{aggregate_semantics.value}"
                )
                self._remember(self._plans, key, plan)
            else:
                self.metrics.inc("plan.cache.hit")
                self._plans.move_to_end(key)
            return plan

    def prepare(
        self, planner: Planner, query: str | AggregateQuery
    ) -> "PreparedQuery":
        """A (cached) prepared-plan handle for the query."""
        compiled = self.compile(query)
        with self._lock:
            prepared = self._prepared.get(compiled.text)
            if prepared is None:
                self.metrics.inc("prepared.cache.miss")
                prepared = PreparedQuery(compiled, planner, self)
                self._remember(self._prepared, compiled.text, prepared)
            else:
                self.metrics.inc("prepared.cache.hit")
                self._prepared.move_to_end(compiled.text)
            return prepared


class PreparedQuery:
    """A query compiled once, answerable under any semantics cell.

    The prepare-once/execute-many handle: planning a cell pins the
    compiled query (:meth:`~repro.core.compile.CompiledQuery.pin`), so the
    first execution that reads the array-backed problem or walks the rows
    keeps what it built, and every subsequent :meth:`answer` folds that
    instead of rebuilding masks or re-evaluating predicates row by row.
    Obtain via :meth:`~repro.core.engine.AggregationEngine.prepare`.
    """

    __slots__ = ("compiled", "_planner", "_context")

    def __init__(
        self,
        compiled: CompiledQuery,
        planner: Planner,
        context: ExecutionContext,
    ) -> None:
        self.compiled = compiled
        self._planner = planner
        self._context = context

    @property
    def query(self) -> AggregateQuery:
        """The parsed query."""
        return self.compiled.query

    @property
    def text(self) -> str:
        """The canonical SQL text (the plan-cache key)."""
        return self.compiled.text

    def plan_for(
        self,
        mapping_semantics: MappingSemantics | str,
        aggregate_semantics: AggregateSemantics | str,
    ) -> ExecutionPlan:
        """The execution plan for one cell (inspectable: ``.lane`` etc.)."""
        self.compiled.pin()
        return self._context.plan(
            self._planner,
            self.compiled,
            coerce_mapping_semantics(mapping_semantics),
            coerce_aggregate_semantics(aggregate_semantics),
        )

    def answer(
        self,
        mapping_semantics: MappingSemantics | str,
        aggregate_semantics: AggregateSemantics | str,
        *,
        samples: int | None = None,
        seed: int | None = None,
        max_sequences: int | None = None,
        budget: guardmod.Budget | None = None,
    ) -> AggregateAnswer:
        """Answer one semantics cell, amortizing compilation and planning."""
        self._context.ensure_open()
        with trace.span("answer", query=self.compiled.text, prepared=True):
            return self.plan_for(mapping_semantics, aggregate_semantics).answer(
                samples=samples,
                seed=seed,
                max_sequences=max_sequences,
                budget=budget,
            )

    def answer_six(
        self, **options: object
    ) -> dict[tuple[MappingSemantics, AggregateSemantics], AggregateAnswer]:
        """All six semantics cells (the paper's Table III) as one request.

        Each cell plans and executes as :meth:`answer` does (its own guard,
        lane and query-log record); a cell that is intractable under the
        engine's policy is reported as the raised
        :class:`IntractableError`.  Within the request, nodes several cells
        project run once (:func:`~repro.core.guard.sharing`): the sampled
        draw per ``(samples, seed)`` and the by-table per-mapping answers.
        A seeded cell is therefore ``==`` to answering it alone.
        """
        results: dict[
            tuple[MappingSemantics, AggregateSemantics], AggregateAnswer
        ] = {}
        with guardmod.sharing():
            for mapping_sem in MappingSemantics:
                for aggregate_sem in AggregateSemantics:
                    try:
                        answer = self.answer(mapping_sem, aggregate_sem, **options)
                    except IntractableError as error:
                        answer = error
                    results[(mapping_sem, aggregate_sem)] = answer
        return results

    def __repr__(self) -> str:
        return f"PreparedQuery({self.text!r})"


# -- plan execution --------------------------------------------------------

#: Non-library exceptions an execution lane can surface when the machinery
#: under it (the OS, SQLite) fails.  The outermost
#: execution frame translates these into a typed, chained
#: :class:`EvaluationError` so callers always see a
#: :class:`~repro.exceptions.ReproError` — the invariant the chaos suite
#: asserts.
_INFRA_ERRORS = (
    OSError,
    RuntimeError,
    ValueError,
    MemoryError,
    TimeoutError,
    sqlite3.Error,
)

#: The lane that actually produced the answer, written at the terminal
#: success points of :func:`_dispatch` into a one-slot cell installed by
#: the outermost frame.  A plan can end up far from where it started —
#: nested composition can decline to its fallback, a guard breach can
#: degrade — and only the terminal dispatch knows where execution landed.
_executed_lane: contextvars.ContextVar[list | None] = contextvars.ContextVar(
    "repro_executed_lane", default=None
)


def _note_lane(lane: str) -> None:
    cell = _executed_lane.get()
    if cell is not None:
        cell[0] = lane


def execute_plan(
    plan: ExecutionPlan,
    *,
    samples: int | None = None,
    seed: int | None = None,
    max_sequences: int | None = None,
    budget: guardmod.Budget | None = None,
) -> AggregateAnswer:
    """Run a plan under the engine's guardrails (stage 3 entry point).

    The outermost frame owns the robustness machinery: it activates an
    :class:`~repro.core.guard.ExecutionGuard` for the effective budget
    (the ``budget`` override, else the context's), translates
    infrastructure failures into typed errors, and — when the context
    enables graceful degradation — walks the lane's degradation chain
    after a guard breach.  It also builds the execution record: exactly
    one per outermost execution, on the success, degraded, and error
    paths alike (see :func:`_record_execution`).  Nested frames (inner
    plans, fallback re-entry) detect the already-active guard and
    dispatch directly.
    """
    context = plan.context
    context.ensure_open()
    if guardmod.current_guard() is not None:
        # An enclosing execute_plan frame already owns the guard,
        # translation, degradation, and execution record; this is an
        # inner plan.
        return _dispatch(
            plan, samples=samples, seed=seed, max_sequences=max_sequences
        )
    effective = budget if budget is not None else context.budget
    started_ts = time.time()
    started = time.perf_counter()
    breach: GuardrailError | None = None
    degraded: dict | None = None
    progress: dict | None = None
    caught: BaseException | None = None
    answered: AggregateAnswer | None = None
    lane_cell = [plan.lane]
    lane_token = _executed_lane.set(lane_cell)
    try:
        try:
            with guardmod.guarded(effective) as guard:
                answer = _dispatch(
                    plan,
                    samples=samples,
                    seed=seed,
                    max_sequences=max_sequences,
                )
            if guard is not None:
                progress = guard.progress()
            answered = answer
            return answer
        except GuardrailError as error:
            breach = error
            progress = dict(error.progress)
            context.metrics.inc(f"guard.breach.{plan.lane}")
            if not context.degrade:
                raise
            answer, degraded = _degrade(
                plan,
                error,
                effective,
                samples=samples,
                seed=seed,
                max_sequences=max_sequences,
            )
            answered = answer
            return answer
        except ReproError:
            raise
        except _INFRA_ERRORS as error:
            context.metrics.inc("execute.infra_error")
            raise EvaluationError(
                f"execution failed on an infrastructure error: "
                f"{type(error).__name__}: {error}"
            ) from error
    except BaseException as error:
        caught = error
        raise
    finally:
        _executed_lane.reset(lane_token)
        _record_execution(
            plan,
            ts=started_ts,
            seconds=time.perf_counter() - started,
            executed_lane=lane_cell[0],
            samples=samples,
            error=caught,
            breach=breach,
            degraded=degraded,
            progress=progress,
            answer=answered,
        )


def _record_execution(
    plan: ExecutionPlan,
    *,
    ts: float,
    seconds: float,
    executed_lane: str,
    samples: int | None,
    error: BaseException | None,
    breach: GuardrailError | None,
    degraded: dict | None,
    progress: dict | None,
    answer: AggregateAnswer | None,
) -> None:
    """Build the one record of an outermost execution and publish it.

    The record closes the estimate/actual loop: the executed lane's
    actual work in the estimate's units and the misestimation ratios,
    published as ``planner.misestimate.*`` histograms and per-lane
    execution counters (plans without an estimate, i.e. hand-built ones
    that bypass the planner, skip this block).  A recovered guard breach
    records as ``degraded`` with the breach class kept alongside; an
    unrecovered error as ``error``.  The DKW epsilon is recorded whenever
    a sampling estimator produced the answer: planned, fallen back to, or
    degraded to.  The record becomes the calling thread's
    :attr:`ExecutionContext.last_record` and is appended to the query
    log; query-log persistence failures (the slow-query file) never fail
    the query, they downgrade to a metric.
    """
    context = plan.context
    effective_samples = context.samples if samples is None else samples
    if degraded is not None:
        status = querylog.STATUS_DEGRADED
        effective_samples = degraded["samples"]
    else:
        status = querylog.STATUS_OK if error is None else querylog.STATUS_ERROR
    epsilon = None
    if error is None and executed_lane == Lane.SAMPLING:
        epsilon = sampling.dkw_epsilon(effective_samples)
    estimates = actuals = ratios = None
    if plan.estimate is not None:
        support = None
        if (
            isinstance(answer, DistributionAnswer)
            and answer.distribution is not None
        ):
            support = float(len(answer.distribution))
        actuals = costmod.COST_MODEL.actuals(
            plan,
            executed_lane,
            samples=effective_samples,
            support=support,
            progress=progress if error is not None else None,
        )
        estimates = plan.estimate.to_dict()
        ratios = costmod.misestimation(estimates, actuals)
        registry = context.metrics
        registry.inc(f"planner.executed.{executed_lane}")
        if executed_lane != plan.lane:
            registry.inc("planner.lane_changed")
        for kind, ratio in ratios.items():
            registry.observe(f"planner.misestimate.{kind}", ratio)
    record = querylog.QueryRecord(
        ts=ts,
        query=plan.compiled.text,
        mapping_semantics=plan.mapping_semantics.value,
        aggregate_semantics=plan.aggregate_semantics.value,
        lane=plan.lane,
        executed_lane=executed_lane,
        status=status,
        degraded=degraded,
        breach=type(breach).__name__ if breach is not None else None,
        error=type(error).__name__ if error is not None else None,
        seconds=seconds,
        rows=len(plan.compiled.table),
        worlds=progress.get("worlds") if progress else None,
        guard=progress,
        epsilon=epsilon,
        plan_digest=plan.digest,
        est_cost=plan.estimate.cost if plan.estimate is not None else None,
        actual_cost=actuals.get("cost") if actuals is not None else None,
        estimates=estimates,
        actuals=actuals,
        misestimation=ratios,
    )
    context._thread_state.record = record
    try:
        context.query_log.record(record)
    except OSError:
        context.metrics.inc("querylog.write_error")


def _dispatch(
    plan: ExecutionPlan,
    *,
    samples: int | None = None,
    seed: int | None = None,
    max_sequences: int | None = None,
) -> AggregateAnswer:
    """Dispatch a plan on its lane, falling back where the lane allows.

    Each dispatch runs inside an ``execute.<lane>`` span; a conditional
    lane that declines at run time records ``execute.fallback.<lane>`` and
    re-enters through its fallback plan, so the fallback's span nests under
    the declined lane's.
    """
    context = plan.context
    context.ensure_open()
    if faults.maybe_fire("execute.dispatch") is faults.CORRUPT:
        raise EvaluationError("corrupted dispatch state (injected fault)")
    lane = plan.lane
    with trace.span(
        "execute." + lane,
        lane=lane,
        algorithm=plan.spec.name if plan.spec is not None else None,
    ):
        if lane == Lane.BY_TABLE:
            results = guardmod.shared(
                ("by-table", id(plan.compiled)),
                lambda: _by_table_results(plan),
            )
            _note_lane(lane)
            return bytable.combine_results(results, plan.aggregate_semantics)
        if lane == Lane.SCALAR:
            answer = _ptime_answer(plan)
            _note_lane(lane)
            return answer
        if lane == Lane.EXTENSION:
            answer = project(
                run_prepared(plan.compiled.prepared(), plan.spec.kernel),
                plan.aggregate_semantics,
            )
            _note_lane(lane)
            return answer
        if lane == Lane.NESTED_RANGE:
            answer = _execute_nested_range(plan)
            # The inner plan's dispatch noted its own lane; the outer
            # composition is what actually answered.
            _note_lane(lane)
            return answer
        if lane == Lane.NESTED_COMPOSE:
            answer = _compose_nested(plan)
            if answer is not None:
                _note_lane(lane)
                return answer
            if plan.fallback is not None:
                context.metrics.inc(f"execute.fallback.{lane}")
                return _dispatch(
                    plan.fallback,
                    samples=samples,
                    seed=seed,
                    max_sequences=max_sequences,
                )
            raise IntractableError(
                "nested by-tuple queries under the distribution/expected "
                "value semantics require allow_exponential=True or "
                "allow_sampling=True"
            )
        compiled = plan.compiled
        if lane == Lane.NAIVE:
            answer = naive.naive_by_tuple_answer(
                compiled.table,
                compiled.pmapping,
                compiled.query,
                plan.aggregate_semantics,
                max_sequences=(
                    context.max_sequences if max_sequences is None else max_sequences
                ),
            )
            _note_lane(lane)
            return answer
        if lane == Lane.SAMPLING:
            prepared = None
            if not compiled.is_nested and compiled.query.group_by is None:
                prepared = compiled.problem(context.columnar_for(compiled))
                if prepared is None:
                    prepared = compiled.prepared_or_none()
            answer = sampling.sample_by_tuple(
                compiled.table,
                compiled.pmapping,
                compiled.query,
                plan.aggregate_semantics,
                samples=context.samples if samples is None else samples,
                seed=context.seed if seed is None else seed,
                prepared=prepared,
            )
            _note_lane(lane)
            return answer
    raise EvaluationError(f"unknown execution lane {lane!r}")


def _by_table_results(plan: ExecutionPlan) -> list[tuple[object, float]]:
    """The per-mapping ``(answer, probability)`` pairs of paper Figure 1."""
    context = plan.context
    compiled = plan.compiled
    if _by_table_columnar_shape(plan):
        problem = compiled.problem(context.columnar_for(compiled))
        if problem is not None:
            results = bytable.columnar_results(problem)
            if results is not None:
                context.metrics.inc("bytable.columnar")
                return results
    guard = guardmod.current_guard()
    reformulated_pairs = compiled.reformulations()
    context.metrics.inc("bytable.reformulations", len(reformulated_pairs))
    results = []
    for reformulated, probability in reformulated_pairs:
        if guard is not None:
            guard.check_deadline()
        results.append((context.executor(reformulated), probability))
    return results


def _by_table_columnar_shape(plan: ExecutionPlan) -> bool:
    """True when a by-table plan may answer from the array-backed problem.

    Flat, ungrouped, non-DISTINCT queries on the in-memory executor: the
    per-mapping answers then come from one masked fold per mapping
    (:func:`repro.core.bytable.columnar_results`).  SQLite-backed engines
    keep shipping the reformulations to the DBMS.
    """
    query = plan.compiled.query
    return (
        plan.context.backend is None
        and not plan.compiled.is_nested
        and query.group_by is None
        and not query.aggregate.distinct
    )


def _degrade(
    plan: ExecutionPlan,
    error: GuardrailError,
    budget: guardmod.Budget | None,
    *,
    samples: int | None,
    seed: int | None,
    max_sequences: int | None,
) -> tuple[AggregateAnswer, dict]:
    """Walk the lane's degradation chain after a guard breach.

    Every chain target is the sampling estimator (see
    :data:`~repro.core.planner.DEGRADATION_CHAIN`).  Each degraded rerun
    keeps the resource budgets but drops the wall-clock deadline (the
    original already spent it; re-arming would trip instantly and make
    degradation unreachable), clamps its draw count to the worlds budget,
    and returns the answer with its degradation event, which carries the
    accuracy contract (the DKW epsilon for the recorded sample size).
    When the lane has no chain, or every target breaches again, the last
    guardrail error propagates.
    """
    context = plan.context
    relaxed = budget.without_deadline() if budget is not None else None
    last_error: GuardrailError = error
    for target in degradation_chain(plan.lane):
        degraded = ExecutionPlan(
            plan.compiled,
            plan.mapping_semantics,
            plan.aggregate_semantics,
            target,
            plan.complexity,
            SAMPLING_SPEC,
            context=context,
        )
        context.metrics.inc("degraded.total")
        context.metrics.inc(f"degraded.{plan.lane}.to.{target}")
        base = context.samples if samples is None else samples
        limit = relaxed.max_worlds if relaxed is not None else None
        degraded_samples = base if limit is None else min(base, limit)
        with trace.span(
            "execute.degrade",
            from_lane=plan.lane,
            to_lane=target,
            reason=type(error).__name__,
        ):
            try:
                with guardmod.guarded(relaxed):
                    answer = _dispatch(
                        degraded,
                        samples=degraded_samples,
                        seed=seed,
                        max_sequences=max_sequences,
                    )
            except GuardrailError as breach:
                context.metrics.inc(f"guard.breach.{target}")
                last_error = breach
                continue
        context.metrics.inc("degraded.sampling")
        return answer, {
            "from": plan.lane,
            "to": target,
            "reason": type(error).__name__,
            "progress": dict(error.progress),
            "samples": degraded_samples,
            "epsilon": sampling.dkw_epsilon(degraded_samples),
        }
    raise last_error


def _ptime_answer(plan: ExecutionPlan) -> AggregateAnswer:
    """Run the by-tuple PTIME lane: the one place its body is chosen.

    With a columnar snapshot, the cell's array kernel runs once over the
    query's problem (:meth:`~repro.core.compile.CompiledQuery.problem`);
    a GROUP BY query's groups are the problem's segments.  The Figure 2-5
    row walk answers without a snapshot, and for data outside the array
    fragment (TEXT/DATE arguments, integers beyond 2**53).
    """
    from repro.core import vectorized

    compiled = plan.compiled
    context = plan.context
    columnar = context.columnar_for(compiled)
    problem = compiled.problem(columnar)
    if problem is not None:
        try:
            answer = vectorized.answer_problem(problem, plan.aggregate_semantics)
        except vectorized.ColumnarError:
            pass
        else:
            context.metrics.inc("vectorized.hit")
            return answer
    if columnar is not None:
        context.metrics.inc("vectorized.fallback")
    return run_prepared(compiled.prepared(), plan.spec.kernel)


def _execute_nested_range(plan: ExecutionPlan) -> RangeAnswer:
    """Per-group range composition for the nested by-tuple/range cell.

    Groups partition the tuples, mapping choices are independent across
    groups, and the outer aggregate is monotone in each group value, so the
    outer bounds are the outer aggregate of the per-group bounds (exact
    whenever every group is defined in every world; groups whose inner
    aggregate can be undefined are dropped — a documented soundness caveat).
    """
    query = plan.compiled.query
    if query.aggregate.distinct:
        raise UnsupportedQueryError(
            "DISTINCT on the outer aggregate of a nested by-tuple range "
            "query is not supported"
        )
    inner_answer = _dispatch(plan.inner_plan)
    if isinstance(inner_answer, GroupedAnswer):
        ranges = [r for _, r in inner_answer]
    else:
        ranges = [inner_answer]
    defined = [r for r in ranges if isinstance(r, RangeAnswer) and r.is_defined]
    if not defined:
        return RangeAnswer(None, None)
    low = apply_aggregate(query.aggregate.op, [r.low for r in defined])
    high = apply_aggregate(query.aggregate.op, [r.high for r in defined])
    return RangeAnswer(low, high)


def _compose_nested(plan: ExecutionPlan) -> AggregateAnswer | None:
    """Exact nested distribution/expected value via independent composition.

    Beyond the paper (its Section VII future work): interpret the inner
    per-group results as independent random variables and compose them
    exactly.  Returns ``None`` (fall back) when the inner operator has no
    exact polynomial distribution, a group can be undefined in some world,
    or the composed support would explode.
    """
    from repro.core import extensions, nested
    from repro.core.bytuple_count import distribution_count_kernel

    query = plan.compiled.query
    inner = plan.compiled.inner
    if query.aggregate.distinct:
        return None
    inner_op = inner.query.aggregate.op
    try:
        if inner_op is AggregateOp.COUNT:
            inner_kernel = distribution_count_kernel
        elif inner_op is AggregateOp.MAX:
            inner_kernel = extensions.max_distribution_kernel
        elif inner_op is AggregateOp.MIN:
            inner_kernel = extensions.min_distribution_kernel
        else:
            return None  # inner SUM/AVG: no exact polynomial route
        inner_answer = run_prepared(inner.prepared(), inner_kernel)
        if isinstance(inner_answer, GroupedAnswer):
            group_answers = [answer for _, answer in inner_answer]
        else:
            group_answers = [inner_answer]
        distributions = []
        for answer in group_answers:
            assert isinstance(answer, DistributionAnswer)
            if not answer.is_defined or answer.undefined_probability > 1e-12:
                return None  # world-dependent group set: fall back
            distributions.append(answer.distribution)
        outer_op = query.aggregate.op
        if plan.aggregate_semantics is AggregateSemantics.EXPECTED_VALUE:
            # Linearity of expectation avoids the convolution (whose
            # support can explode) for the additive outer operators.
            if outer_op is AggregateOp.SUM:
                return ExpectedValueAnswer(
                    math.fsum(d.expected_value() for d in distributions)
                )
            if outer_op is AggregateOp.AVG:
                return ExpectedValueAnswer(
                    math.fsum(d.expected_value() for d in distributions)
                    / len(distributions)
                )
        distribution = nested.compose_independent(outer_op, distributions)
    except EvaluationError:
        return None  # support blow-up or similar: fall back
    return project(DistributionAnswer(distribution), plan.aggregate_semantics)
