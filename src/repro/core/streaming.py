"""Single-pass, bounded-memory by-tuple aggregation over row streams.

Every PTIME by-tuple algorithm of the paper (Figures 2-5) folds the tuples
left to right — a property the related work it cites (Jayram et al.,
SODA'07) exploits for I/O-efficient aggregation.  :func:`answer_stream`
feeds the cell's row-walk kernel, the same ``spec.kernel`` the engine's
by-tuple PTIME lane runs, a :class:`~repro.core.common.PreparedTupleQuery`
whose rows are a one-shot iterator (e.g.
:func:`repro.storage.csv_io.iter_csv_rows`): each row is parsed,
classified under every candidate mapping, folded, and dropped, so a
streamed answer is the in-memory answer over the same rows::

    rows = iter_csv_rows(pmapping.source, "listings.csv")
    answer = answer_stream(rows, pmapping, query, AggregateSemantics.RANGE)

The kernels' extra state is O(1), except AVG range (the optional tuples'
candidate values, O(#optional)) and the COUNT distribution (its support,
O(#qualifying), inherent to the answer itself).
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.core.answers import AggregateAnswer
from repro.core.common import PreparedTupleQuery
from repro.core.planner import Planner, _check_numeric_argument
from repro.core.semantics import AggregateSemantics, MappingSemantics
from repro.exceptions import IntractableError, UnsupportedQueryError
from repro.obs import metrics, trace
from repro.schema.mapping import PMapping
from repro.sql.ast import AggregateQuery
from repro.storage.table import Table


def answer_stream(
    rows: Iterable[tuple],
    pmapping: PMapping,
    query: AggregateQuery,
    aggregate_semantics: AggregateSemantics,
) -> AggregateAnswer:
    """Answer a flat by-tuple query in one pass over ``rows``.

    ``rows`` are raw tuples of ``pmapping.source``, consumed once.

    Raises
    ------
    UnsupportedQueryError
        For GROUP BY, for a cell with no PTIME by-tuple kernel, and for
        SUM/AVG (or any expected value) over a non-numeric argument — all
        before the first row is read.

    Examples
    --------
    >>> answer_stream(iter_csv_rows(S1, "big.csv"), pm, q1,
    ...               AggregateSemantics.RANGE)          # doctest: +SKIP
    RangeAnswer([31204, 96018])
    """
    aggregate_semantics = AggregateSemantics(aggregate_semantics)
    op = query.aggregate.op
    with trace.span("execute.streaming", query=query.to_sql()):
        try:
            spec = Planner().algorithm_for(
                op, MappingSemantics.BY_TUPLE, aggregate_semantics
            )
        except IntractableError as error:
            raise UnsupportedQueryError(
                f"no single-pass by-tuple algorithm for {op.value} under "
                f"the {aggregate_semantics.value} semantics"
            ) from error
        streamed = 0

        def counted():
            nonlocal streamed
            for values in rows:
                streamed += 1
                yield values

        prepared = PreparedTupleQuery(
            Table.from_prepared_rows(pmapping.source, []),
            pmapping,
            query,
            rows=counted(),
        )
        _check_numeric_argument(prepared, aggregate_semantics)
        answer = spec.kernel(prepared)
        metrics.inc("streaming.rows", streamed)
        return answer
