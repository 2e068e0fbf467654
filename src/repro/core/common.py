"""Shared machinery for the by-tuple algorithms.

Every by-tuple algorithm in Section IV-B of the paper visits each source
tuple and asks, for each candidate mapping ``m_j`` with probability
``P(m_j)``:

* does the tuple satisfy the (reformulated) selection condition under
  ``m_j``?
* if so, what value does it contribute to the aggregate?

:class:`PreparedTupleQuery` performs that reformulate-and-compile step once
per mapping, and then exposes per-tuple *contribution vectors*: entry ``j``
is the contributed value under mapping ``j``, or ``None`` when the tuple
does not participate under ``j`` (condition false, or NULL argument — SQL
aggregates skip NULLs).  For ``COUNT`` the contributed value is ``1``.

GROUP BY is handled here as well: the grouping attribute must be *certain*
(mapped to the same source attribute by every candidate mapping), in which
case rows are partitioned once and each algorithm runs per group.

A prepared query is *reusable*: the compiled predicates are built once, and
:meth:`PreparedTupleQuery.materialize` additionally pins the contribution
vectors (and the GROUP BY partition) so that re-executing an algorithm over
the same data skips per-row predicate evaluation entirely.  The prepared
plans of :mod:`repro.core.execute` rely on this for their execute-many
amortization; one-shot callers never pay the extra memory.

A flat query may instead be prepared over a one-shot row iterator (e.g.
:func:`repro.storage.csv_io.iter_csv_rows`): each kernel then folds the
rows as they arrive, in one pass and without materializing the relation
(:func:`repro.core.streaming.answer_stream`).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator

from repro.core import guard as guardmod
from repro.core.answers import AggregateAnswer, GroupedAnswer
from repro.exceptions import UnsupportedQueryError
from repro.obs import metrics
from repro.schema.mapping import PMapping
from repro.sql.ast import AggregateOp, AggregateQuery, SubquerySource
from repro.sql.conditions import compile_condition
from repro.sql.reformulate import reformulate_query
from repro.storage.table import Row, Table

#: One per-tuple contribution vector: ``vector[j]`` is the value the tuple
#: contributes under mapping ``j``, or ``None`` when it does not participate.
ContributionVector = tuple


class PreparedTupleQuery:
    """A by-tuple evaluation problem, compiled once per candidate mapping.

    Parameters
    ----------
    table:
        The source relation instance.
    pmapping:
        The probabilistic mapping between the source relation and the target
        relation the query mentions.
    query:
        A flat (non-nested) aggregate query on the target schema.  DISTINCT
        is rejected for SUM/AVG/COUNT under by-tuple semantics (the paper
        does not define it; MIN/MAX ignore DISTINCT since it cannot change
        their value).
    rows:
        Optionally restrict evaluation to these row tuples (used by the
        GROUP BY partitioner); defaults to all rows of ``table``, read in
        place (:meth:`~repro.storage.table.Table.row_tuples`), so a table
        mutated afterwards needs a freshly prepared query.  Any
        other iterable is a one-shot stream, walked once by the first
        kernel that folds the problem; GROUP BY rejects it.
    """

    def __init__(
        self,
        table: Table,
        pmapping: PMapping,
        query: AggregateQuery,
        rows: Iterable[tuple] | None = None,
    ) -> None:
        check_by_tuple_query(pmapping, query)
        self.table = table
        self.pmapping = pmapping
        self.query = query
        self.op = query.aggregate.op
        if rows is None:
            rows = table.row_tuples()
        elif not isinstance(rows, list) and query.group_by is not None:
            raise UnsupportedQueryError(
                "Grouped queries need their rows partitioned per group; "
                "a one-shot row stream answers flat queries only"
            )
        self.rows: Iterable[tuple] = rows

        relation = table.relation
        self.probabilities: list[float] = []
        self._predicates: list[Callable[[Row], bool]] = []
        self._argument_indexes: list[int | None] = []
        group_sources: set[str] = set()
        for mapping, probability in pmapping:
            reformulated = reformulate_query(query, mapping, unmapped="null")
            binding = reformulated.source.binding_name
            self.probabilities.append(probability)
            self._predicates.append(
                compile_condition(reformulated.where, relation, binding)
            )
            argument = reformulated.aggregate.argument
            self._argument_indexes.append(
                relation.index_of(argument.name) if argument is not None else None
            )
            if reformulated.group_by is not None:
                group_sources.add(reformulated.group_by.name)
        self._group_index = (
            relation.index_of(certain_group_source(group_sources))
            if group_sources
            else None
        )
        self._relation = relation
        self._vectors: list[ContributionVector] | None = None
        self._partitioned: dict[object, PreparedTupleQuery] | None = None

    @property
    def mapping_count(self) -> int:
        """Number of candidate mappings."""
        return len(self.probabilities)

    @property
    def has_group_by(self) -> bool:
        """True when the query groups rows by a (certain) attribute."""
        return self._group_index is not None

    # -- contribution vectors ---------------------------------------------

    def contribution_vectors(self) -> Iterator[ContributionVector]:
        """Per-tuple contribution vectors, one per row, in row order.

        Served from the pinned list after :meth:`materialize`; otherwise
        generated on the fly (one Row + ``m`` predicate calls per tuple).
        Every row served is charged to ``tuples.scanned`` and the row
        budget, the one place the row-walk kernels count their scan.
        """
        if self._vectors is not None:
            return _scanned(iter(self._vectors))
        return _scanned(self._generate_vectors())

    def _generate_vectors(self) -> Iterator[ContributionVector]:
        relation = self._relation
        predicates = self._predicates
        argument_indexes = self._argument_indexes
        is_count = self.op is AggregateOp.COUNT
        for values in self.rows:
            row = Row(relation, values)
            vector = []
            for predicate, argument_index in zip(predicates, argument_indexes):
                if not predicate(row):
                    vector.append(None)
                    continue
                if argument_index is None:
                    vector.append(1)
                    continue
                value = values[argument_index]
                if value is None:
                    vector.append(None)
                elif is_count:
                    vector.append(1)
                else:
                    vector.append(value)
            yield tuple(vector)

    def satisfaction_probability(self, vector: ContributionVector) -> float:
        """Probability that a tuple with this vector participates.

        Exactly 1.0 when the tuple participates under every mapping (the
        candidate probabilities form a distribution by Definition 2), so a
        sure tuple never leaks an ulp-sized impossible outcome into the
        count DP's support.
        """
        if all(contribution is not None for contribution in vector):
            return 1.0
        return math.fsum(
            p
            for p, contribution in zip(self.probabilities, vector)
            if contribution is not None
        )

    # -- reuse ---------------------------------------------------------------

    @property
    def is_materialized(self) -> bool:
        """True once the contribution vectors are pinned."""
        return self._vectors is not None

    def materialize(self) -> "PreparedTupleQuery":
        """Pin the contribution vectors (and partition) for re-execution.

        Costs one full evaluation pass and O(n * m) memory; afterwards every
        algorithm run over this prepared query folds the pinned vectors
        without re-evaluating any predicate.  Idempotent.  The pinned state
        reflects the table rows at call time — mutating the table afterwards
        requires a freshly prepared query.
        """
        if self._vectors is None:
            self._vectors = list(self._generate_vectors())
            # Any partition built before pinning lacks the vectors; the
            # next partition() call rebuilds the subs over the pinned list.
            self._partitioned = None
        if self._group_index is not None:
            self.partition()
        return self

    # -- grouping ------------------------------------------------------------

    def partition(self) -> dict[object, "PreparedTupleQuery"]:
        """Split the problem per group of the (certain) GROUP BY attribute.

        Group membership does not depend on the WHERE condition: a group
        exists as soon as some row carries its key, and by-tuple algorithms
        then decide per mapping which of its rows participate.  The split is
        computed once and cached, in order of each group's first row;
        sub-problems share the compiled predicates and, when materialized,
        the parent's pinned vectors.
        """
        if self._group_index is None:
            raise UnsupportedQueryError("query has no GROUP BY")
        if self._partitioned is not None:
            return self._partitioned
        buckets: dict[object, list[tuple]] = {}
        vector_buckets: dict[object, list[ContributionVector]] = {}
        vectors = self._vectors
        if vectors is None:
            for values in self.rows:
                buckets.setdefault(values[self._group_index], []).append(values)
        else:
            for values, vector in zip(self.rows, vectors):
                key = values[self._group_index]
                buckets.setdefault(key, []).append(values)
                vector_buckets.setdefault(key, []).append(vector)
        out: dict[object, PreparedTupleQuery] = {}
        for key, rows in buckets.items():
            sub = object.__new__(PreparedTupleQuery)
            sub.__dict__.update(self.__dict__)
            sub.rows = rows
            sub._vectors = vector_buckets.get(key)
            sub._partitioned = None
            out[key] = sub
        self._partitioned = out
        return out


def check_by_tuple_query(
    pmapping: PMapping,
    query: AggregateQuery,
    nested: type[Exception] = UnsupportedQueryError,
) -> None:
    """Raise unless ``query`` is a by-tuple query both bodies can answer.

    A flat query (``nested`` is the error raised otherwise) on the
    p-mapping's target, with DISTINCT only on MIN/MAX: the paper does not
    define it for SUM/AVG/COUNT, and it cannot change a MIN or MAX.
    """
    if isinstance(query.source, SubquerySource):
        raise nested(
            "by-tuple algorithms operate on flat queries; evaluate the "
            "nested levels separately (see repro.core.engine)"
        )
    if query.aggregate.distinct and query.aggregate.op not in (
        AggregateOp.MIN,
        AggregateOp.MAX,
    ):
        raise UnsupportedQueryError(
            f"DISTINCT is not supported for by-tuple {query.aggregate.op.value}"
        )
    if query.source.name != pmapping.target.name:
        raise UnsupportedQueryError(
            f"query reads from {query.source.name!r} but the p-mapping "
            f"targets {pmapping.target.name!r}"
        )


def certain_group_source(group_sources: set[str]) -> str:
    """The one source attribute all candidate mappings group by (raises
    :class:`~repro.exceptions.UnsupportedQueryError` when they differ)."""
    if len(group_sources) > 1:
        raise UnsupportedQueryError(
            "GROUP BY attribute maps to different source attributes "
            f"under different mappings ({sorted(group_sources)}); "
            "by-tuple grouping requires a certain grouping attribute"
        )
    (name,) = group_sources
    return name


def _scanned(
    vectors: Iterator[ContributionVector],
) -> Iterator[ContributionVector]:
    guard = guardmod.current_guard()
    scanned = 0
    try:
        for vector in vectors:
            if guard is not None:
                # Every row walk's scan funnels through here, so one
                # stride-throttled check covers all the scalar lanes.
                guard.add_rows(1)
            scanned += 1
            yield vector
    finally:
        metrics.inc("tuples.scanned", scanned)


def charge_rows(count: int) -> None:
    """Charge one array fold over ``count`` rows, as the row walk charges
    each row it serves: to ``tuples.scanned`` and to the row budget."""
    metrics.inc("tuples.scanned", count)
    guard = guardmod.current_guard()
    if guard is not None:
        guard.add_rows(count)


def run_prepared(
    prepared: PreparedTupleQuery,
    scalar_algorithm: Callable[[PreparedTupleQuery], AggregateAnswer],
) -> AggregateAnswer:
    """Run a scalar by-tuple algorithm over an already-prepared query.

    Either runs directly or fans out over the (cached) GROUP BY partition
    and wraps the results in a :class:`~repro.core.answers.GroupedAnswer`.
    This is the execute half of the prepare-once/execute-many split: the
    prepared query may be reused across calls (and across algorithms for
    different aggregate semantics of the same cell row).
    """
    if not prepared.has_group_by:
        return scalar_algorithm(prepared)
    return GroupedAnswer(
        {
            key: scalar_algorithm(sub)
            for key, sub in prepared.partition().items()
        }
    )


def run_possibly_grouped(
    table: Table,
    pmapping: PMapping,
    query: AggregateQuery,
    scalar_algorithm: Callable[[PreparedTupleQuery], AggregateAnswer],
) -> AggregateAnswer:
    """Prepare a by-tuple query and run a scalar algorithm over it.

    The one-shot driver for a kernel run outside the engine (the paper's
    traced Tables IV-VI, the ablations' alternative kernels): prepare
    once, then delegate to :func:`run_prepared`.
    """
    return run_prepared(
        PreparedTupleQuery(table, pmapping, query), scalar_algorithm
    )
