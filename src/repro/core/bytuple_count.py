"""COUNT under the by-tuple semantics (paper Section IV-B, Figures 2-3).

* :func:`by_tuple_range_count` — the ByTupleRangeCOUNT algorithm
  (Figure 2): one pass over the tuples, O(n * m).
* :func:`by_tuple_distribution_count` — the ByTuplePDCOUNT dynamic program
  (Figure 3): the count is a Poisson-binomial random variable over the
  per-tuple participation probabilities; the DP updates the distribution
  one tuple at a time, O(m * n^2).
* :func:`by_tuple_expected_count` — the expected value, derived from the
  distribution (the paper's route), with an optional O(n * m) linear path
  exploiting linearity of expectation (our optimization; both agree).

All three handle GROUP BY over a certain grouping attribute.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from repro.core import guard as guardmod
from repro.core.answers import (
    AggregateAnswer,
    DistributionAnswer,
    ExpectedValueAnswer,
    GroupedAnswer,
    RangeAnswer,
)
from repro.core.common import PreparedTupleQuery, run_possibly_grouped
from repro.exceptions import EvaluationError
from repro.obs import metrics
from repro.prob.distribution import DiscreteDistribution
from repro.schema.mapping import PMapping
from repro.sql.ast import AggregateQuery
from repro.storage.table import Table


def range_count_kernel(
    prepared: PreparedTupleQuery, trace: list[dict] | None = None
) -> RangeAnswer:
    """The Figure 2 fold over one prepared (ungrouped) problem."""
    low = 0
    up = 0
    for index, vector in enumerate(prepared.contribution_vectors()):
        participating = sum(1 for c in vector if c is not None)
        if participating == len(vector):
            low += 1
            up += 1
        elif participating > 0:
            up += 1
        if trace is not None:
            trace.append({"tuple_index": index, "low": low, "up": up})
    return RangeAnswer(low, up)


def by_tuple_range_count(
    table: Table,
    pmapping: PMapping,
    query: AggregateQuery,
    trace: list[dict] | None = None,
) -> AggregateAnswer:
    """ByTupleRangeCOUNT (paper Figure 2).

    For each tuple: if it satisfies the condition under *all* mappings both
    bounds grow; if under *some* mapping only the upper bound grows; under
    none, neither.

    Parameters
    ----------
    trace:
        When given, one dict per processed tuple is appended, mirroring the
        paper's Table IV trace (``tuple_index``, ``low``, ``up``).
    """
    return run_possibly_grouped(
        table, pmapping, query, lambda prepared: range_count_kernel(prepared, trace)
    )


def count_distribution_dp(
    occurrence_probabilities: Iterable[float],
    trace: list[dict] | None = None,
) -> DiscreteDistribution:
    """The Figure 3 dynamic program over per-tuple participation probabilities.

    ``occurrence_probabilities`` yields, per tuple, the probability that
    it contributes 1 to the count (the sum of the probabilities of the
    mappings under which it satisfies the condition); it is consumed in
    one pass.  The result is the Poisson-binomial distribution of the
    count.  A tuple that can never qualify (occurrence exactly 0) leaves
    the distribution as it is, so the table widens only on tuples that
    can: its width is #qualifying + 1.
    """
    probabilities = [1.0]  # P(count = 0) before any tuple
    rows = 0
    dp_cells = 0
    guard = guardmod.current_guard()
    for index, occ in enumerate(occurrence_probabilities):
        rows += 1
        if guard is not None:
            # Each DP row is O(width) float work; a deadline must be able
            # to stop a wide DP mid-table.
            guard.check_deadline()
        if not -1e-12 <= occ <= 1.0 + 1e-12:
            raise EvaluationError(
                f"occurrence probability {occ} outside [0, 1]"
            )
        occ = min(1.0, max(0.0, occ))
        if occ > 0.0:
            if guard is not None:
                # The support budget bounds the table's width.
                guard.note_support(len(probabilities) + 1)
            not_occ = 1.0 - occ
            # P'(j) = P(j) * notOcc + P(j-1) * occ  (paper Figure 3, lines 6-9)
            previous = probabilities
            probabilities = [previous[0] * not_occ]
            for j in range(1, len(previous)):
                probabilities.append(
                    previous[j] * not_occ + previous[j - 1] * occ
                )
            probabilities.append(previous[-1] * occ)
            dp_cells += len(probabilities)
        if trace is not None:
            trace.append(
                {"tuple_index": index, "probabilities": list(probabilities)}
            )
    # The Figure 3 table: one row per tuple, widening by one column per
    # qualifying tuple — rows x cols is what the O(m * n^2) bound counts.
    metrics.inc("count_dp.rows", rows)
    metrics.inc("count_dp.cells", dp_cells)
    metrics.observe("count_dp.width", len(probabilities))
    return DiscreteDistribution(
        ((count, p) for count, p in enumerate(probabilities) if p > 0.0),
    )


def distribution_count_kernel(
    prepared: PreparedTupleQuery, trace: list[dict] | None = None
) -> DistributionAnswer:
    """The Figure 3 DP over one prepared (ungrouped) problem."""
    occurrence = (
        prepared.satisfaction_probability(vector)
        for vector in prepared.contribution_vectors()
    )
    return DistributionAnswer(count_distribution_dp(occurrence, trace))


def by_tuple_distribution_count(
    table: Table,
    pmapping: PMapping,
    query: AggregateQuery,
    trace: list[dict] | None = None,
) -> AggregateAnswer:
    """ByTuplePDCOUNT (paper Figure 3): the exact count distribution.

    Runs in O(m * n^2): each of the ``n`` tuples costs O(m) to classify and
    O(i) to fold into the distribution.
    """
    return run_possibly_grouped(
        table,
        pmapping,
        query,
        lambda prepared: distribution_count_kernel(prepared, trace),
    )


def by_tuple_expected_count(
    table: Table,
    pmapping: PMapping,
    query: AggregateQuery,
    *,
    method: str = "distribution",
) -> AggregateAnswer:
    """Expected COUNT under by-tuple semantics.

    ``method="distribution"`` follows the paper: build the full ByTuplePDCOUNT
    distribution and take its expectation — O(m * n^2), which is why the
    paper's Figure 9 shows ByTupleExpValCOUNT tracking ByTuplePDCOUNT.

    ``method="linear"`` is our optimization: by linearity of expectation the
    answer is simply the sum of per-tuple participation probabilities —
    O(m * n).  Both methods provably agree; the benchmark
    ``benchmarks/bench_ablation_expected_count.py`` quantifies the gap.
    """
    if method == "distribution":
        answer = by_tuple_distribution_count(table, pmapping, query)
        if isinstance(answer, GroupedAnswer):
            return GroupedAnswer(
                {k: v.to_expected_value() for k, v in answer}
            )
        assert isinstance(answer, DistributionAnswer)
        return answer.to_expected_value()
    if method == "linear":
        return run_possibly_grouped(table, pmapping, query, expected_count_kernel)
    raise EvaluationError(
        f"unknown method {method!r}; expected 'distribution' or 'linear'"
    )


def expected_count_kernel(prepared: PreparedTupleQuery) -> ExpectedValueAnswer:
    """Expected COUNT over one prepared problem, by linearity of expectation.

    The planner's kernel: it agrees with the paper's DP expectation, costs
    O(n * m) instead of O(m * n^2), and — because it is an ``fsum`` of the
    per-tuple participation probabilities — matches the array kernel
    bit for bit.  The paper-faithful DP remains available
    through :func:`by_tuple_expected_count` with
    ``method="distribution"``.
    """
    return ExpectedValueAnswer(
        math.fsum(
            prepared.satisfaction_probability(vector)
            for vector in prepared.contribution_vectors()
        )
    )
