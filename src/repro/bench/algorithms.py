"""Registry of benchmarkable algorithms under their paper names.

Every algorithm the paper's figures time is available here as a named
closure over a :class:`BenchContext`:

====================  ========================================================
name                  implementation
====================  ========================================================
ByTupleRangeCOUNT     Figure 2 (scalar, or vectorized when the context says)
ByTuplePDCOUNT        Figure 3 dynamic program
ByTupleExpValCOUNT    expectation of the Figure 3 distribution
ByTupleRangeSUM       Figure 4
ByTupleExpValSUM      Theorem 4 -> by-table on the context's SQL backend
ByTupleRangeAVG       tight greedy (Section IV-B)
ByTupleRangeMAX/MIN   Figure 5
ByTuplePDSUM          naive sequence enumeration (no PTIME algorithm)
ByTuplePDAVG          naive
ByTupleExpValAVG      naive
ByTuplePDMAX          naive
ByTupleExpValMAX      naive
ByTableCOUNT/...      generic Figure 1 on the SQL backend (distribution)
====================  ========================================================

The context owns the expensive shared state — parsed queries, the columnar
view, the SQLite materialization — so sweeps pay for them once per size,
not once per algorithm.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.core import vectorized
from repro.core.answers import AggregateAnswer
from repro.core.bytable import by_table_answer, sqlite_executor
from repro.core.bytuple_avg import by_tuple_range_avg
from repro.core.bytuple_count import (
    by_tuple_distribution_count,
    by_tuple_expected_count,
    by_tuple_range_count,
)
from repro.core.bytuple_minmax import by_tuple_range_max, by_tuple_range_min
from repro.core.bytuple_sum import by_tuple_expected_sum, by_tuple_range_sum
from repro.core.naive import naive_by_tuple_answer
from repro.core.semantics import AggregateSemantics
from repro.exceptions import EvaluationError
from repro.schema.mapping import PMapping
from repro.sql.ast import AggregateOp, AggregateQuery
from repro.sql.parser import parse_query
from repro.storage.sqlite_backend import SQLiteBackend
from repro.storage.table import Table


class BenchContext:
    """Shared state for one benchmark configuration.

    Parameters
    ----------
    table / pmapping:
        The workload.
    queries:
        One query text per aggregate operator (e.g. from
        :class:`repro.data.synthetic.Workload`).
    use_vectorized:
        Route the PTIME range algorithms and the COUNT DP through the numpy
        fast path (:mod:`repro.core.vectorized`).  Off by default: the
        scalar path matches the paper's per-tuple implementation and is
        what the figure defaults time; the vectorized path is this
        library's optimization, benchmarked by the ablation.
    max_sequences:
        Budget for the naive exponential algorithms.
    columnar / backend:
        Optionally share a pre-built columnar view / pre-materialized SQLite
        backend across contexts (a sweep that only varies the p-mapping
        reuses the same expensive table state).  A shared backend is not
        closed by :meth:`close`.
    """

    def __init__(
        self,
        table: Table,
        pmapping: PMapping,
        queries: dict[AggregateOp, str],
        *,
        use_vectorized: bool = False,
        max_sequences: int = 1 << 24,
        columnar: "vectorized.ColumnarTable | None" = None,
        backend: SQLiteBackend | None = None,
    ) -> None:
        self.table = table
        self.pmapping = pmapping
        self.use_vectorized = use_vectorized
        self.max_sequences = max_sequences
        self._queries = {op: parse_query(text) for op, text in queries.items()}
        self._columnar = columnar
        self._backend = backend
        self._owns_backend = backend is None

    def query(self, op: AggregateOp) -> AggregateQuery:
        """The parsed benchmark query for one operator."""
        try:
            return self._queries[op]
        except KeyError:
            raise EvaluationError(f"context has no query for {op.value}") from None

    @property
    def columnar(self) -> vectorized.ColumnarTable:
        """The (lazily built, cached) columnar view of the table."""
        if self._columnar is None:
            self._columnar = vectorized.ColumnarTable(self.table)
        return self._columnar

    @property
    def executor(self):
        """A SQLite-backed certain-query executor (lazily materialized)."""
        if self._backend is None:
            self._backend = SQLiteBackend()
            self._backend.materialize(self.table)
        return sqlite_executor(self._backend)

    def close(self) -> None:
        """Release the SQLite backend, if this context owns one."""
        if self._backend is not None and self._owns_backend:
            self._backend.close()
            self._backend = None


Runner = Callable[[BenchContext], AggregateAnswer]


def _ptime(op: AggregateOp, semantics: AggregateSemantics, scalar) -> Runner:
    def run(context: BenchContext) -> AggregateAnswer:
        query = context.query(op)
        if context.use_vectorized:
            return vectorized.run_grouped_vectorized(
                context.columnar, context.pmapping, query, semantics
            )
        return scalar(context.table, context.pmapping, query)

    return run


def _expval_sum(context: BenchContext) -> AggregateAnswer:
    # Theorem 4: identical to by-table, so it runs on the SQL backend —
    # the paper's explanation for its low running times in Figures 11-12.
    return by_tuple_expected_sum(
        context.table,
        context.pmapping,
        context.query(AggregateOp.SUM),
        executor=context.executor,
        method="by-table",
    )


def _naive(op: AggregateOp, semantics: AggregateSemantics) -> Runner:
    def run(context: BenchContext) -> AggregateAnswer:
        return naive_by_tuple_answer(
            context.table,
            context.pmapping,
            context.query(op),
            semantics,
            max_sequences=context.max_sequences,
        )

    return run


def _by_table(op: AggregateOp) -> Runner:
    def run(context: BenchContext) -> AggregateAnswer:
        return by_table_answer(
            context.query(op),
            context.pmapping,
            context.executor,
            AggregateSemantics.DISTRIBUTION,
        )

    return run


_REGISTRY: dict[str, Runner] = {
    # PTIME by-tuple (Section IV-B)
    "ByTupleRangeCOUNT": _ptime(
        AggregateOp.COUNT, AggregateSemantics.RANGE, by_tuple_range_count
    ),
    "ByTuplePDCOUNT": _ptime(
        AggregateOp.COUNT,
        AggregateSemantics.DISTRIBUTION,
        by_tuple_distribution_count,
    ),
    "ByTupleExpValCOUNT": _ptime(
        AggregateOp.COUNT,
        AggregateSemantics.EXPECTED_VALUE,
        by_tuple_expected_count,
    ),
    "ByTupleRangeSUM": _ptime(
        AggregateOp.SUM, AggregateSemantics.RANGE, by_tuple_range_sum
    ),
    "ByTupleExpValSUM": _expval_sum,
    "ByTupleRangeAVG": _ptime(
        AggregateOp.AVG, AggregateSemantics.RANGE, by_tuple_range_avg
    ),
    "ByTupleRangeMAX": _ptime(
        AggregateOp.MAX, AggregateSemantics.RANGE, by_tuple_range_max
    ),
    "ByTupleRangeMIN": _ptime(
        AggregateOp.MIN, AggregateSemantics.RANGE, by_tuple_range_min
    ),
    # No-PTIME cells: the naive exponential baseline
    "ByTuplePDSUM": _naive(AggregateOp.SUM, AggregateSemantics.DISTRIBUTION),
    "ByTuplePDAVG": _naive(AggregateOp.AVG, AggregateSemantics.DISTRIBUTION),
    "ByTupleExpValAVG": _naive(AggregateOp.AVG, AggregateSemantics.EXPECTED_VALUE),
    "ByTuplePDMAX": _naive(AggregateOp.MAX, AggregateSemantics.DISTRIBUTION),
    "ByTupleExpValMAX": _naive(AggregateOp.MAX, AggregateSemantics.EXPECTED_VALUE),
    # The by-table band the paper quotes alongside each figure
    "ByTableCOUNT": _by_table(AggregateOp.COUNT),
    "ByTableSUM": _by_table(AggregateOp.SUM),
    "ByTableAVG": _by_table(AggregateOp.AVG),
    "ByTableMAX": _by_table(AggregateOp.MAX),
    "ByTableMIN": _by_table(AggregateOp.MIN),
}

#: All registered algorithm names, in registry order.
ALGORITHM_NAMES: tuple[str, ...] = tuple(_REGISTRY)


def get_algorithm(name: str) -> Runner:
    """Look up a registered algorithm by its paper name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise EvaluationError(
            f"unknown algorithm {name!r}; known: {', '.join(_REGISTRY)}"
        ) from None
