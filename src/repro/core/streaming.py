"""Single-pass, bounded-memory by-tuple aggregation over tuple streams.

Every PTIME by-tuple algorithm of the paper folds the tuples left to right
— a property the related work it cites (Jayram et al., SODA'07) exploits
for I/O-efficient aggregation.  This module exposes that structure as
*accumulators*: feed source rows one at a time (e.g. from
:func:`repro.storage.csv_io.iter_csv_rows`) and read the answer at the
end, without ever materializing the relation.

======================================  =================  ===============
accumulator                             answer             extra memory
======================================  =================  ===============
:class:`RangeCountAccumulator`          by-tuple range     O(1)
:class:`RangeSumAccumulator`            by-tuple range     O(1)
:class:`RangeMinMaxAccumulator`         by-tuple range     O(1)
:class:`RangeAvgAccumulator`            by-tuple range     O(#optional)
:class:`ExpectedCountAccumulator`       expected value     O(1)
:class:`ExpectedSumAccumulator`         expected value     O(1)
:class:`DistributionCountAccumulator`   distribution       O(#qualifying)
======================================  =================  ===============

(``#optional`` counts tuples that qualify under only some mappings — the
tight AVG bounds need their candidate values; ``#qualifying`` is the COUNT
distribution's support, inherent to the answer itself.)

Use :func:`answer_stream` for the common case::

    rows = iter_csv_rows(S1_RELATION, "listings.csv")
    answer = answer_stream(rows, S1_RELATION, pmapping, query,
                           RangeCountAccumulator)

Float totals use :class:`~repro.core.exactsum.ExactSum`, the same exact
running sum the scalar kernels fold, so a streamed answer is bit-for-bit
the scalar kernel's answer over the same rows.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from repro.core.answers import (
    AggregateAnswer,
    DistributionAnswer,
    ExpectedValueAnswer,
    GroupedAnswer,
    RangeAnswer,
)
from repro.core import guard as guardmod
from repro.core.bytuple_avg import _greedy_extreme_mean_from
from repro.core.bytuple_count import count_distribution_dp
from repro.core.compile import CompiledQuery
from repro.core.exactsum import ExactSum
from repro.exceptions import UnsupportedQueryError
from repro.obs import metrics, trace
from repro.schema.mapping import PMapping
from repro.schema.model import Relation
from repro.sql.ast import AggregateQuery
from repro.storage.table import Table


class TupleStream:
    """Compiles a query/p-mapping pair into a per-row vectorizer.

    Built on the pipeline's :class:`~repro.core.compile.CompiledQuery`
    (over an empty table, since the rows arrive as a stream), so a stream
    shares the same per-mapping compiled predicates as a materialized run
    — and :meth:`from_compiled` reuses an engine's compiled query
    outright, paying no compilation at all.
    """

    def __init__(
        self,
        relation: Relation,
        pmapping: PMapping,
        query: AggregateQuery,
        *,
        compiled: CompiledQuery | None = None,
    ) -> None:
        if query.group_by is not None:
            raise UnsupportedQueryError(
                "wrap a grouped stream in GroupedAccumulator instead"
            )
        if compiled is None:
            compiled = CompiledQuery(
                query, Table.from_prepared_rows(relation, []), pmapping
            )
        self.compiled = compiled
        self._prepared = compiled.prepared()
        self.mapping_count = len(pmapping)

    @classmethod
    def from_compiled(cls, compiled: CompiledQuery) -> "TupleStream":
        """A stream reusing an already-compiled query (e.g. the engine's)."""
        return cls(
            compiled.table.relation,
            compiled.pmapping,
            compiled.query,
            compiled=compiled,
        )

    @property
    def probabilities(self) -> list[float]:
        """The candidate mappings' probabilities."""
        return self._prepared.probabilities

    def vector(self, values: tuple) -> tuple:
        """The contribution vector of one raw source row."""
        return tuple(
            self._prepared.contribution(values, j)
            for j in range(self.mapping_count)
        )


def _occurrence(probabilities: list[float], vector: tuple) -> float:
    """The probability that a tuple participates, given its vector.

    Mirrors :meth:`~repro.core.common.PreparedTupleQuery.\
satisfaction_probability` exactly — snapping to 1.0 when the tuple
    qualifies under every mapping and using ``math.fsum`` otherwise — so
    streaming and scalar-kernel folds see identical per-tuple floats.
    """
    if all(contribution is not None for contribution in vector):
        return 1.0
    return math.fsum(
        p
        for p, contribution in zip(probabilities, vector)
        if contribution is not None
    )


class Accumulator:
    """Base class: consume contribution vectors, produce an answer."""

    def __init__(self, stream: TupleStream | None) -> None:
        self.stream = stream

    def add(self, vector: tuple) -> None:
        raise NotImplementedError

    def add_row(self, values: tuple) -> None:
        """Convenience: vectorize one raw row and fold it in."""
        self.add(self.stream.vector(values))

    def result(self) -> AggregateAnswer:
        raise NotImplementedError


class RangeCountAccumulator(Accumulator):
    """Streaming ByTupleRangeCOUNT (Figure 2 is already one-pass)."""

    def __init__(self, stream: TupleStream | None = None) -> None:
        super().__init__(stream)
        self.low = 0
        self.up = 0

    def add(self, vector: tuple) -> None:
        participating = sum(1 for c in vector if c is not None)
        if participating == len(vector):
            self.low += 1
            self.up += 1
        elif participating > 0:
            self.up += 1

    def result(self) -> RangeAnswer:
        return RangeAnswer(self.low, self.up)


class RangeSumAccumulator(Accumulator):
    """Streaming tight ByTupleRangeSUM (Figure 4)."""

    def __init__(self, stream: TupleStream | None = None) -> None:
        super().__init__(stream)
        self.low = ExactSum()
        self.up = ExactSum()
        self.any_satisfiable = False
        self.low_world_nonempty = False
        self.up_world_nonempty = False
        self.best_single_min = math.inf
        self.best_single_max = -math.inf

    def add(self, vector: tuple) -> None:
        satisfying = [c for c in vector if c is not None]
        if not satisfying:
            return
        self.any_satisfiable = True
        vmin = min(satisfying)
        vmax = max(satisfying)
        self.best_single_min = min(self.best_single_min, vmin)
        self.best_single_max = max(self.best_single_max, vmax)
        if len(satisfying) == len(vector):
            self.low.add(vmin)
            self.up.add(vmax)
            self.low_world_nonempty = True
            self.up_world_nonempty = True
        else:
            low_contribution = min(0.0, vmin)
            up_contribution = max(0.0, vmax)
            self.low.add(low_contribution)
            self.up.add(up_contribution)
            if low_contribution < 0.0:
                self.low_world_nonempty = True
            if up_contribution > 0.0:
                self.up_world_nonempty = True

    def result(self) -> RangeAnswer:
        if not self.any_satisfiable:
            return RangeAnswer(None, None)
        low = (
            self.low.value() if self.low_world_nonempty else self.best_single_min
        )
        up = self.up.value() if self.up_world_nonempty else self.best_single_max
        return RangeAnswer(low, up)


class RangeMinMaxAccumulator(Accumulator):
    """Streaming tight ByTupleRangeMAX / ByTupleRangeMIN (Figure 5)."""

    def __init__(
        self, stream: TupleStream | None = None, *, maximize: bool = True
    ) -> None:
        super().__init__(stream)
        self.maximize = maximize
        # No float sentinels: the aggregated values may be DATE or TEXT.
        self.forced_inner = None
        self.any_inner = None
        self.outer = None

    def add(self, vector: tuple) -> None:
        satisfying = [c for c in vector if c is not None]
        if not satisfying:
            return
        vmin = min(satisfying)
        vmax = max(satisfying)
        outward, inward = (max, min) if self.maximize else (min, max)
        high, low = (vmax, vmin) if self.maximize else (vmin, vmax)
        if self.outer is None:
            self.outer, self.any_inner = high, low
        else:
            self.outer = outward(self.outer, high)
            self.any_inner = inward(self.any_inner, low)
        if len(satisfying) == len(vector):
            self.forced_inner = (
                low
                if self.forced_inner is None
                else outward(self.forced_inner, low)
            )

    def result(self) -> RangeAnswer:
        if self.outer is None:
            return RangeAnswer(None, None)
        inner = (
            self.any_inner if self.forced_inner is None else self.forced_inner
        )
        if self.maximize:
            return RangeAnswer(inner, self.outer)
        return RangeAnswer(self.outer, inner)


class RangeAvgAccumulator(Accumulator):
    """Streaming tight ByTupleRangeAVG.

    Forced tuples fold into running sums; optional tuples' extreme values
    must be retained for the final greedy (O(#optional) memory).
    """

    def __init__(self, stream: TupleStream | None = None) -> None:
        super().__init__(stream)
        self.forced_min_total = ExactSum()
        self.forced_max_total = ExactSum()
        self.forced_count = 0
        self.optional_min: list[float] = []
        self.optional_max: list[float] = []

    def add(self, vector: tuple) -> None:
        satisfying = [c for c in vector if c is not None]
        if not satisfying:
            return
        if len(satisfying) == len(vector):
            self.forced_min_total.add(min(satisfying))
            self.forced_max_total.add(max(satisfying))
            self.forced_count += 1
        else:
            self.optional_min.append(min(satisfying))
            self.optional_max.append(max(satisfying))

    def result(self) -> RangeAnswer:
        low = _greedy_extreme_mean_from(
            self.forced_min_total.value(),
            self.forced_count,
            self.optional_min,
            minimize=True,
        )
        high = _greedy_extreme_mean_from(
            self.forced_max_total.value(),
            self.forced_count,
            self.optional_max,
            minimize=False,
        )
        if low is None:
            return RangeAnswer(None, None)
        return RangeAnswer(low, high)


class ExpectedCountAccumulator(Accumulator):
    """Streaming expected COUNT (linearity of expectation, O(1) state)."""

    def __init__(self, stream: TupleStream | None = None) -> None:
        super().__init__(stream)
        self.total = ExactSum()

    def add(self, vector: tuple) -> None:
        self.total.add(_occurrence(self.stream.probabilities, vector))

    def result(self) -> ExpectedValueAnswer:
        return ExpectedValueAnswer(self.total.value())


class ExpectedSumAccumulator(Accumulator):
    """Streaming conditional-exact expected SUM (O(1) state)."""

    def __init__(self, stream: TupleStream | None = None) -> None:
        super().__init__(stream)
        self.total = ExactSum()
        self.log_empty = ExactSum()
        self.certain_empty_impossible = False
        self.any_satisfiable = False

    def add(self, vector: tuple) -> None:
        occurrence = 0.0
        for probability, contribution in zip(
            self.stream.probabilities, vector
        ):
            if contribution is not None:
                self.any_satisfiable = True
                occurrence += probability
                self.total.add(probability * contribution)
        if occurrence >= 1.0:
            self.certain_empty_impossible = True
        elif occurrence > 0.0:
            self.log_empty.add(math.log1p(-occurrence))

    def result(self) -> ExpectedValueAnswer:
        if not self.any_satisfiable:
            return ExpectedValueAnswer(None)
        empty = (
            0.0
            if self.certain_empty_impossible
            else math.exp(self.log_empty.value())
        )
        if empty >= 1.0:
            return ExpectedValueAnswer(None)
        return ExpectedValueAnswer(self.total.value() / (1.0 - empty))


class DistributionCountAccumulator(Accumulator):
    """Streaming ByTuplePDCOUNT (the Figure 3 DP folds left to right)."""

    def __init__(self, stream: TupleStream | None = None) -> None:
        super().__init__(stream)
        self.occurrences: list[float] = []

    def add(self, vector: tuple) -> None:
        occurrence = _occurrence(self.stream.probabilities, vector)
        if occurrence > 0.0:
            self.occurrences.append(occurrence)

    def result(self) -> DistributionAnswer:
        return DistributionAnswer(count_distribution_dp(self.occurrences))


class GroupedAccumulator:
    """Fan a stream out over GROUP BY groups, one accumulator per key.

    The grouping attribute must be certain; pass its index in the source
    relation (``relation.index_of(name)``).
    """

    def __init__(
        self,
        stream: TupleStream | None,
        group_index: int,
        factory,
    ) -> None:
        self.stream = stream
        self.group_index = group_index
        self.factory = factory
        self._groups: dict[object, Accumulator] = {}

    def add_row(self, values: tuple) -> None:
        key = values[self.group_index]
        accumulator = self._groups.get(key)
        if accumulator is None:
            accumulator = self.factory(self.stream)
            self._groups[key] = accumulator
        accumulator.add(self.stream.vector(values))

    def result(self) -> GroupedAnswer:
        return GroupedAnswer(
            {key: acc.result() for key, acc in self._groups.items()}
        )


def answer_stream(
    rows: Iterable[tuple],
    relation: Relation,
    pmapping: PMapping,
    query: AggregateQuery,
    accumulator_factory,
) -> AggregateAnswer:
    """Fold a row stream through one accumulator and return its answer.

    Examples
    --------
    >>> answer_stream(iter_csv_rows(S1, "big.csv"), S1, pm, q1,
    ...               RangeCountAccumulator)               # doctest: +SKIP
    RangeAnswer([31204, 96018])
    """
    with trace.span("execute.streaming", query=query.to_sql()):
        stream = TupleStream(relation, pmapping, query)
        accumulator = accumulator_factory(stream)
        guard = guardmod.current_guard()
        streamed = 0
        for values in rows:
            if guard is not None:
                guard.add_rows(1)
            accumulator.add_row(values)
            streamed += 1
        metrics.inc("streaming.rows", streamed)
        metrics.inc("tuples.scanned", streamed)
        return accumulator.result()
