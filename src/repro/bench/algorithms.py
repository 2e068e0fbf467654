"""Registry of benchmarkable algorithms under their paper names.

Every algorithm the paper's figures time is one Figure 6 cell, answered
by :class:`~repro.core.engine.AggregationEngine` like any other query:
the planner picks the cell's lane and the lane picks its body.

====================  ========================================================
name                  cell (lane)
====================  ========================================================
ByTupleRangeCOUNT     by-tuple/range COUNT, Figure 2 (scalar)
ByTuplePDCOUNT        by-tuple/distribution COUNT, Figure 3 DP (scalar)
ByTupleExpValCOUNT    expectation of the ByTuplePDCOUNT answer (scalar)
ByTupleRangeSUM       by-tuple/range SUM, Figure 4 (scalar)
ByTupleExpValSUM      Theorem 4: by-table/expected-value SUM on SQLite
                      (by-table)
ByTupleRangeAVG       by-tuple/range AVG, tight greedy, Section IV-B (scalar)
ByTupleRangeMAX/MIN   by-tuple/range MAX/MIN, Figure 5 (scalar)
ByTuplePDSUM          naive sequence enumeration (naive)
ByTuplePDAVG          naive
ByTupleExpValAVG      naive
ByTuplePDMAX          naive
ByTupleExpValMAX      naive
ByTableCOUNT/...      by-table/distribution, Figure 1 on SQLite (by-table)
====================  ========================================================

The scalar cells run the array kernel when the context is vectorized and
the Figure 2-5 row walk otherwise.  Each call plans without preparing, so
every timed call builds its problem; the context owns the engines, and
with them the columnar snapshot and the SQLite copy, so sweeps pay for
those once per size, not once per algorithm.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.core.answers import AggregateAnswer, project
from repro.core.engine import AggregationEngine
from repro.core.planner import ExecutionPlan
from repro.core.semantics import AggregateSemantics, MappingSemantics
from repro.exceptions import EvaluationError
from repro.schema.mapping import PMapping
from repro.sql.ast import AggregateOp, AggregateQuery
from repro.sql.parser import parse_query
from repro.storage.table import Table

_TUPLE = MappingSemantics.BY_TUPLE
_TABLE = MappingSemantics.BY_TABLE
_RANGE = AggregateSemantics.RANGE
_PD = AggregateSemantics.DISTRIBUTION
_EXPVAL = AggregateSemantics.EXPECTED_VALUE

#: Paper name -> (aggregate, mapping semantics, aggregate semantics).
_CELLS: dict[str, tuple[AggregateOp, MappingSemantics, AggregateSemantics]] = {
    # PTIME by-tuple (Section IV-B)
    "ByTupleRangeCOUNT": (AggregateOp.COUNT, _TUPLE, _RANGE),
    "ByTuplePDCOUNT": (AggregateOp.COUNT, _TUPLE, _PD),
    # The paper's route: the expectation of the Figure 3 distribution,
    # O(m * n^2) — why its Figure 9 shows ByTupleExpValCOUNT tracking
    # ByTuplePDCOUNT.  The engine's own expected-value cell is linear.
    "ByTupleExpValCOUNT": (AggregateOp.COUNT, _TUPLE, _PD),
    "ByTupleRangeSUM": (AggregateOp.SUM, _TUPLE, _RANGE),
    # Theorem 4: identical to by-table, so it runs on the SQL backend —
    # the paper's explanation for its low running times in Figures 11-12.
    "ByTupleExpValSUM": (AggregateOp.SUM, _TABLE, _EXPVAL),
    "ByTupleRangeAVG": (AggregateOp.AVG, _TUPLE, _RANGE),
    "ByTupleRangeMAX": (AggregateOp.MAX, _TUPLE, _RANGE),
    "ByTupleRangeMIN": (AggregateOp.MIN, _TUPLE, _RANGE),
    # No-PTIME cells: the naive exponential baseline
    "ByTuplePDSUM": (AggregateOp.SUM, _TUPLE, _PD),
    "ByTuplePDAVG": (AggregateOp.AVG, _TUPLE, _PD),
    "ByTupleExpValAVG": (AggregateOp.AVG, _TUPLE, _EXPVAL),
    "ByTuplePDMAX": (AggregateOp.MAX, _TUPLE, _PD),
    "ByTupleExpValMAX": (AggregateOp.MAX, _TUPLE, _EXPVAL),
    # The by-table band the paper quotes alongside each figure
    "ByTableCOUNT": (AggregateOp.COUNT, _TABLE, _PD),
    "ByTableSUM": (AggregateOp.SUM, _TABLE, _PD),
    "ByTableAVG": (AggregateOp.AVG, _TABLE, _PD),
    "ByTableMAX": (AggregateOp.MAX, _TABLE, _PD),
    "ByTableMIN": (AggregateOp.MIN, _TABLE, _PD),
}

#: Algorithms that report their cell's answer under another semantics.
_PROJECTED = {"ByTupleExpValCOUNT": _EXPVAL}

#: All registered algorithm names, in registry order.
ALGORITHM_NAMES: tuple[str, ...] = tuple(_CELLS)


def _cell(name: str) -> tuple[AggregateOp, MappingSemantics, AggregateSemantics]:
    try:
        return _CELLS[name]
    except KeyError:
        raise EvaluationError(
            f"unknown algorithm {name!r}; known: {', '.join(_CELLS)}"
        ) from None


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
        Build the engines with ``vectorize=True``, so the PTIME by-tuple
        cells run their array kernels.  The memory engine, with its
        columnar snapshot, is then built here, so no timed call pays for
        it.  Off by default: the row walk
        matches the paper's per-tuple implementation and is what the
        figure defaults time; the array kernels are this library's
        optimization, benchmarked by the ablation.
    max_sequences:
        Budget for the naive exponential algorithms.
    """

    def __init__(
        self,
        table: Table,
        pmapping: PMapping,
        queries: dict[AggregateOp, str],
        *,
        use_vectorized: bool = False,
        max_sequences: int = 1 << 24,
    ) -> None:
        self.table = table
        self.pmapping = pmapping
        self.use_vectorized = use_vectorized
        self.max_sequences = max_sequences
        self._queries = {op: parse_query(text) for op, text in queries.items()}
        self._engines: dict[str, AggregationEngine] = {}
        if use_vectorized:
            self.engine()

    def query(self, op: AggregateOp) -> AggregateQuery:
        """The parsed benchmark query for one operator."""
        try:
            return self._queries[op]
        except KeyError:
            raise EvaluationError(f"context has no query for {op.value}") from None

    def engine(self, backend: str = "memory") -> AggregationEngine:
        """The context's engine on ``backend``, built on first use.

        The by-table cells answer on the ``"sqlite"`` engine, every other
        cell on the ``"memory"`` one.  Both allow naive enumeration; a
        vectorized memory engine builds its columnar snapshot here.
        """
        engine = self._engines.get(backend)
        if engine is None:
            engine = AggregationEngine(
                self.table,
                self.pmapping,
                backend=backend,
                vectorize=self.use_vectorized,
                allow_exponential=True,
            )
            if backend == "memory" and self._queries:
                any_query = next(iter(self._queries.values()))
                engine.context.columnar_for(engine.compile(any_query))
            self._engines[backend] = engine
        return engine

    def plan(self, name: str) -> ExecutionPlan:
        """The engine's plan for one registered algorithm's cell.

        Not prepared: answering it builds the cell's problem each time,
        as a one-off query does.
        """
        op, mapping_semantics, aggregate_semantics = _cell(name)
        backend = "sqlite" if mapping_semantics is _TABLE else "memory"
        return self.engine(backend).plan(
            self.query(op), mapping_semantics, aggregate_semantics
        )

    def answer(self, name: str) -> AggregateAnswer:
        """Run one registered algorithm (naive ones within
        :attr:`max_sequences`)."""
        answer = self.plan(name).answer(max_sequences=self.max_sequences)
        semantics = _PROJECTED.get(name)
        return answer if semantics is None else project(answer, semantics)

    def close(self) -> None:
        """Close the context's engines (a later call builds new ones)."""
        for engine in self._engines.values():
            engine.close()
        self._engines.clear()


Runner = Callable[[BenchContext], AggregateAnswer]


def get_algorithm(name: str) -> Runner:
    """Look up a registered algorithm by its paper name."""
    _cell(name)
    return lambda context: context.answer(name)
