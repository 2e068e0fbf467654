"""SUM under the by-tuple semantics (paper Section IV-B, Figure 4, Thm. 4).

* :func:`by_tuple_range_sum` — ByTupleRangeSUM (Figure 4), one pass,
  O(n * m).  The interval is the *tight* range over all mapping sequences:
  where Figure 4's pseudo-code implicitly assumes every tuple satisfies the
  condition under every mapping (true in all of the paper's traces), we
  additionally account for tuples that can be *excluded* by choosing a
  mapping under which they do not qualify — exclusion contributes 0, which
  matters for bounds when values can be positive and negative.
* :func:`by_tuple_expected_sum` — by Theorem 4, identical to the by-table
  expected value, so it delegates to the by-table algorithm (and can run on
  the SQLite backend, which is why the paper's Figures 11-12 show it far
  below the in-process by-tuple scans).

The by-tuple *distribution* of SUM has no known PTIME algorithm (its
support can be exponential in the table size — Section IV-B's opening
example); use :mod:`repro.core.naive` or :mod:`repro.core.sampling`.
"""

from __future__ import annotations

import math

from repro.core.answers import (
    AggregateAnswer,
    ExpectedValueAnswer,
    RangeAnswer,
)
from repro.core.bytable import CertainExecutor, by_table_answer, memory_executor
from repro.core.common import PreparedTupleQuery, run_possibly_grouped
from repro.core.exactsum import ExactSum
from repro.core.semantics import AggregateSemantics
from repro.exceptions import EvaluationError
from repro.schema.mapping import PMapping
from repro.sql.ast import AggregateQuery
from repro.storage.table import Table


def range_sum_kernel(
    prepared: PreparedTupleQuery, trace: list[dict] | None = None
) -> RangeAnswer:
    """The (tightened) Figure 4 fold over one prepared (ungrouped) problem.

    The bound totals accumulate through
    :class:`~repro.core.exactsum.ExactSum`, so they are correctly rounded
    and independent of association order — the property that lets the
    array kernels promise answers bit-for-bit equal to this kernel's.
    """
    low = ExactSum()
    up = ExactSum()
    any_satisfiable = False
    # True when the world realizing the low (resp. up) bound is known to
    # contain at least one qualifying tuple.
    low_world_nonempty = False
    up_world_nonempty = False
    best_single_min = math.inf
    best_single_max = -math.inf
    for index, vector in enumerate(prepared.contribution_vectors()):
        satisfying = [c for c in vector if c is not None]
        if not satisfying:
            continue
        any_satisfiable = True
        vmin = min(satisfying)
        vmax = max(satisfying)
        best_single_min = min(best_single_min, vmin)
        best_single_max = max(best_single_max, vmax)
        forced = len(satisfying) == len(vector)
        if forced:
            low_contribution: float = vmin
            up_contribution: float = vmax
            low_world_nonempty = True
            up_world_nonempty = True
        else:
            low_contribution = min(0.0, vmin)
            up_contribution = max(0.0, vmax)
            if low_contribution < 0.0:
                low_world_nonempty = True
            if up_contribution > 0.0:
                up_world_nonempty = True
        low.add(low_contribution)
        up.add(up_contribution)
        if trace is not None:
            trace.append(
                {
                    "tuple_index": index,
                    "vmin": vmin,
                    "vmax": vmax,
                    "low": low.value(),
                    "up": up.value(),
                }
            )
    if not any_satisfiable:
        return RangeAnswer(None, None)
    # If the bound-realizing world excluded every tuple, its SUM would
    # be undefined; the tight defined bound instead includes the single
    # cheapest (resp. most valuable) qualifying tuple.
    final_low = low.value() if low_world_nonempty else best_single_min
    final_up = up.value() if up_world_nonempty else best_single_max
    return RangeAnswer(final_low, final_up)


def by_tuple_range_sum(
    table: Table,
    pmapping: PMapping,
    query: AggregateQuery,
    trace: list[dict] | None = None,
) -> AggregateAnswer:
    """ByTupleRangeSUM (paper Figure 4), tightened for partial qualification.

    For each tuple the achievable contributions are the values under the
    mappings where it qualifies, plus 0 whenever some mapping disqualifies
    it.  The bounds accumulate the per-tuple minima and maxima of those
    contribution sets; a final adjustment keeps the bounds achievable by a
    *nonempty* world (SQL's SUM over zero qualifying tuples is NULL, not 0).

    Parameters
    ----------
    trace:
        When given, one dict per contributing tuple is appended mirroring
        the paper's Table VI (``tuple_index``, ``vmin``, ``vmax``, ``low``,
        ``up``).
    """
    return run_possibly_grouped(
        table, pmapping, query, lambda prepared: range_sum_kernel(prepared, trace)
    )


def by_tuple_expected_sum(
    table: Table,
    pmapping: PMapping,
    query: AggregateQuery,
    *,
    executor: CertainExecutor | None = None,
    method: str = "exact",
) -> AggregateAnswer:
    """Expected SUM under by-tuple semantics.

    ``method="exact"`` (default) returns the expectation of SUM conditioned
    on the SUM being defined (some tuple qualifies) — the library-wide
    convention for worlds where SQL's SUM would be NULL.  By linearity and
    tuple independence it is still O(n * m):
    ``E[SUM | defined] = (sum_ij P(m_j) * contribution_ij) /
    (1 - prod_i P(tuple i does not participate))``.

    ``method="by-table"`` applies Theorem 4 verbatim: the answer comes from
    the Figure 1 by-table algorithm — optionally on a DBMS via ``executor``
    (pass :func:`repro.core.bytable.sqlite_executor`).  Theorem 4's
    equality holds exactly when every possible world has a qualifying tuple
    (e.g. no WHERE clause, the paper's setting); with partial qualification
    the by-table route conditions per *mapping* rather than per *world* and
    can differ from the exact conditional value.

    ``method="linear"`` returns the unconditional form (empty worlds
    contribute 0): ``sum_i sum_j P(m_j) * contribution(t_i, m_j)``.

    All three coincide whenever no possible world is empty.
    """
    if method == "exact":
        return run_possibly_grouped(table, pmapping, query, expected_sum_kernel)
    if method == "by-table":
        chosen = executor if executor is not None else memory_executor(
            {pmapping.source.name: table}
        )
        return by_table_answer(
            query, pmapping, chosen, AggregateSemantics.EXPECTED_VALUE
        )
    if method == "linear":
        return run_possibly_grouped(table, pmapping, query, linear_expected_sum_kernel)
    raise EvaluationError(
        f"unknown method {method!r}; expected 'exact', 'by-table', or 'linear'"
    )


def expected_sum_kernel(prepared: PreparedTupleQuery) -> ExpectedValueAnswer:
    """Exact conditional expected SUM over one prepared problem.

    The empty-world probability accumulates as a sum of ``log1p`` terms
    rather than a running product, and the numerator through
    :class:`~repro.core.exactsum.ExactSum` — an order-independent
    formulation, so the array kernel reproduces this kernel's answer bit
    for bit (the log form is also the numerically stabler one for long
    streams of small occurrence probabilities).
    """
    total = ExactSum()
    log_empty = ExactSum()
    certain_empty_impossible = False
    any_satisfiable = False
    for vector in prepared.contribution_vectors():
        occurrence = 0.0
        for probability, contribution in zip(prepared.probabilities, vector):
            if contribution is not None:
                any_satisfiable = True
                occurrence += probability
                total.add(probability * contribution)
        if occurrence >= 1.0:
            certain_empty_impossible = True
        elif occurrence > 0.0:
            log_empty.add(math.log1p(-occurrence))
    if not any_satisfiable:
        return ExpectedValueAnswer(None)
    empty_world_probability = (
        0.0 if certain_empty_impossible else math.exp(log_empty.value())
    )
    if empty_world_probability >= 1.0:
        return ExpectedValueAnswer(None)
    return ExpectedValueAnswer(total.value() / (1.0 - empty_world_probability))


def linear_expected_sum_kernel(
    prepared: PreparedTupleQuery,
) -> ExpectedValueAnswer:
    """Unconditional expected SUM over one prepared problem."""
    total = 0.0
    any_satisfiable = False
    for vector in prepared.contribution_vectors():
        for probability, contribution in zip(prepared.probabilities, vector):
            if contribution is not None:
                any_satisfiable = True
                total += probability * contribution
    if not any_satisfiable:
        return ExpectedValueAnswer(None)
    return ExpectedValueAnswer(total)
