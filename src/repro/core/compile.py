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
    per-mapping reformulations (built lazily, cached), and the per-mapping
    compiled condition evaluators of
    :class:`~repro.core.common.PreparedTupleQuery` (likewise lazy — by-table
    and naive lanes never pay for them, and queries outside the by-tuple
    fragment only fail when a by-tuple lane actually asks).
    """

    __slots__ = ("query", "table", "pmapping", "text", "inner",
                 "_prepared", "_reformulations")

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
        self._prepared: PreparedTupleQuery | None = None
        self._reformulations: list[tuple[AggregateQuery, float]] | None = None

    @property
    def is_nested(self) -> bool:
        """True when the query aggregates over a subquery in FROM."""
        return self.inner is not None

    def prepared(self) -> PreparedTupleQuery:
        """The by-tuple form: per-mapping compiled predicates, built once.

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
        return self._prepared

    def prepared_or_none(self) -> PreparedTupleQuery | None:
        """Like :meth:`prepared`, but ``None`` outside the by-tuple fragment."""
        try:
            return self.prepared()
        except UnsupportedQueryError:
            return None

    @property
    def is_materialized(self) -> bool:
        """True once this (flat) level's contribution state is pinned."""
        return self._prepared is not None and self._prepared.is_materialized

    @property
    def columnar_problem(self):
        """The pinned array-backed problem of this (flat) level, or ``None``.

        Never builds anything: ``None`` until a prepared query's plan has
        materialized it over a numpy columnar snapshot.
        """
        if self._prepared is None:
            return None
        return self._prepared.columnar_problem

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

    def materialize(
        self, columnar=None, *, vectors: bool = True
    ) -> "CompiledQuery":
        """Pin the contribution vectors for repeated execution.

        Delegates to :meth:`PreparedTupleQuery.materialize` on the flat
        level actually scanned (the inner query for nested shapes); a no-op
        for queries outside the by-tuple fragment.  Idempotent.  When a
        :class:`~repro.storage.columnar.ColumnarTable` snapshot of the
        source table is supplied, the prepared query materializes as an
        array-backed problem instead of per-row vectors where it can (see
        :meth:`PreparedTupleQuery.materialize`); ``vectors=False`` pins
        that array-backed problem or nothing.
        """
        target = self.inner if self.inner is not None else self
        prepared = target.prepared_or_none()
        if prepared is not None and not prepared.is_materialized:
            with trace.span("compile.materialize", query=self.text):
                prepared.materialize(columnar=columnar, vectors=vectors)
            if prepared.is_materialized:
                metrics.inc("prepared.materializations")
        return self

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
