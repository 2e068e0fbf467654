"""Stage 1 of the answer pipeline: compile a query once per engine.

Answering a query involves work that depends only on the *query* and the
*engine's data* — parsing the SQL text, resolving which ``(Table,
PMapping)`` pair the query reads, reformulating it under every candidate
mapping, and compiling the per-mapping selection conditions.  The engine
used to redo all of it on every :meth:`~repro.core.engine.AggregationEngine.answer`
call; :class:`CompiledQuery` performs it once and is then shared by every
semantics cell, every execution lane, and every re-execution of the same
query.

The pipeline is::

    compile_query()  ->  CompiledQuery          (this module)
    Planner.plan()   ->  ExecutionPlan          (repro.core.planner)
    execute_plan()   ->  AggregateAnswer        (repro.core.execute)

Nested queries (a subquery in FROM, the paper's Q2 shape) compile
recursively: ``compiled.inner`` is the compiled flat inner query, so the
nested by-tuple lanes reuse its prepared form too.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.core.common import PreparedTupleQuery
from repro.exceptions import UnsupportedQueryError
from repro.obs import metrics, trace
from repro.schema.mapping import PMapping, SchemaPMapping
from repro.sql.ast import AggregateQuery, SubquerySource
from repro.sql.parser import parse_query
from repro.sql.reformulate import reformulations
from repro.storage.table import Table


def cache_key(query: str | AggregateQuery) -> str:
    """The text under which a query is cached.

    A ``str`` query is its own key (so repeated calls with the same text
    never re-parse); an already-parsed query keys by its canonical SQL
    rendering.
    """
    if isinstance(query, str):
        return query
    return query.to_sql()


class CompiledQuery:
    """A query parsed, resolved, and prepared against one engine's data.

    Holds the parsed AST, the resolved ``(Table, PMapping)`` pair, the
    per-mapping reformulations (built lazily, cached), the array-backed
    problem every array body reads (:meth:`problem`), and the row walk's
    per-mapping compiled condition evaluators of
    :class:`~repro.core.common.PreparedTupleQuery` (likewise lazy — only a
    row walk pays for them, and queries outside the by-tuple fragment only
    fail when a by-tuple lane actually asks).

    A prepared handle pins its query (:meth:`pin`): the problem and the
    row vectors are then kept across calls instead of rebuilt per call.
    """

    __slots__ = ("query", "table", "pmapping", "text", "inner", "pinned",
                 "_prepared", "_reformulations", "_problem", "_snapshot")

    def __init__(
        self, query: AggregateQuery, table: Table, pmapping: PMapping
    ) -> None:
        self.query = query
        self.table = table
        self.pmapping = pmapping
        self.text = query.to_sql()
        self.inner: CompiledQuery | None = None
        if isinstance(query.source, SubquerySource):
            self.inner = CompiledQuery(query.source.query, table, pmapping)
        self.pinned = False
        self._prepared: PreparedTupleQuery | None = None
        self._reformulations: list[tuple[AggregateQuery, float]] | None = None
        #: The pinned problem and the snapshot it was tried on (the
        #: problem is ``None`` where the arrays declined that snapshot).
        self._problem = None
        self._snapshot = None

    @property
    def is_nested(self) -> bool:
        """True when the query aggregates over a subquery in FROM."""
        return self.inner is not None

    def pin(self) -> None:
        """Keep this query's problem and row vectors across calls.

        Called by a prepared handle; every level of a nested query is
        pinned.  Nothing is built here: :meth:`problem` pins the first
        problem it builds per snapshot, :meth:`prepared` the row vectors
        the first time a row walk asks.
        """
        self.pinned = True
        if self.inner is not None:
            self.inner.pin()

    def problem(self, columnar):
        """The array-backed problem over ``columnar``, or ``None``.

        The one builder of a :class:`~repro.core.vectorized.VectorizedProblem`
        for the engine's lanes (the by-tuple PTIME kernels, the by-table
        fold, the flat sampler).  ``None`` without a snapshot, for nested
        queries, and outside the array fragment (non-numeric aggregate
        arguments, conditions the mask compiler rejects, shapes outside
        the by-tuple fragment).  A pinned query builds once per snapshot
        and keeps the result, a declined build included, so later calls
        go straight to the row walk; an unpinned one builds per call and
        keeps nothing.
        """
        if columnar is None or self.inner is not None:
            return None
        if not self.pinned:
            return self._build_problem(columnar)
        if self._snapshot is not columnar:
            with trace.span("compile.materialize", query=self.text):
                self._problem = self._build_problem(columnar)
            self._snapshot = columnar
            if self._problem is not None:
                metrics.inc("prepared.materializations")
        return self._problem

    def _build_problem(self, columnar):
        from repro.core import vectorized

        try:
            return vectorized.VectorizedProblem(columnar, self.pmapping, self.query)
        except (vectorized.ColumnarError, UnsupportedQueryError):
            return None

    def prepared(self) -> PreparedTupleQuery:
        """The row walk's state: per-mapping compiled predicates, built once.

        A pinned query also pins the contribution vectors, the first time
        it is asked (:meth:`PreparedTupleQuery.materialize`).

        Raises
        ------
        UnsupportedQueryError
            For nested queries (prepare ``compiled.inner`` instead) and for
            query shapes outside the by-tuple fragment (e.g. DISTINCT SUM).
        """
        if self._prepared is None:
            with trace.span("compile.prepare_tuples", query=self.text):
                self._prepared = PreparedTupleQuery(
                    self.table, self.pmapping, self.query
                )
        if self.pinned and not self._prepared.is_materialized:
            with trace.span("compile.materialize", query=self.text):
                self._prepared.materialize()
            metrics.inc("prepared.materializations")
        return self._prepared

    def prepared_or_none(self) -> PreparedTupleQuery | None:
        """Like :meth:`prepared`, but ``None`` outside the by-tuple fragment."""
        try:
            return self.prepared()
        except UnsupportedQueryError:
            return None

    def reformulations(self) -> list[tuple[AggregateQuery, float]]:
        """Per-mapping ``(reformulated query, probability)`` pairs.

        The by-table lane's input (paper Figure 1, steps 1-2), computed once
        and reused across semantics and re-executions.
        """
        if self._reformulations is None:
            with trace.span("compile.reformulate", query=self.text):
                self._reformulations = list(
                    reformulations(self.query, self.pmapping, unmapped="null")
                )
        return self._reformulations

    def __repr__(self) -> str:
        return f"CompiledQuery({self.text!r})"


def resolve(
    query: AggregateQuery,
    tables: Mapping[str, Table],
    schema_pmapping: SchemaPMapping,
) -> tuple[Table, PMapping]:
    """The ``(Table, PMapping)`` pair a query reads, via its target relation."""
    source = query.source
    while isinstance(source, SubquerySource):
        source = source.query.source
    pmapping = schema_pmapping.for_target(source.name)
    return tables[pmapping.source.name], pmapping


def compile_query(
    query: str | AggregateQuery,
    tables: Mapping[str, Table],
    schema_pmapping: SchemaPMapping,
) -> CompiledQuery:
    """Parse (if given text), resolve, and compile one query."""
    if isinstance(query, str):
        with trace.span("compile.parse"):
            query = parse_query(query)
    table, pmapping = resolve(query, tables, schema_pmapping)
    return CompiledQuery(query, table, pmapping)
