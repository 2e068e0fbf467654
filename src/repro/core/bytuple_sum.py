"""SUM under the by-tuple semantics (paper Section IV-B, Figure 4, Thm. 4).

* :func:`range_sum_kernel` — ByTupleRangeSUM (Figure 4), one pass,
  O(n * m).  The interval is the *tight* range over all mapping sequences:
  where Figure 4's pseudo-code implicitly assumes every tuple satisfies the
  condition under every mapping (true in all of the paper's traces), we
  additionally account for tuples that can be *excluded* by choosing a
  mapping under which they do not qualify — exclusion contributes 0, which
  matters for bounds when values can be positive and negative.
* :func:`expected_sum_kernel` — the expected SUM, conditioned on the SUM
  being defined, by linearity and tuple independence in O(n * m).  By
  Theorem 4 it equals the by-table expected value whenever every possible
  world has a qualifying tuple (e.g. no WHERE clause, the paper's
  setting); the paper runs it that way, on the DBMS, which is why its
  Figures 11-12 show it far below the in-process by-tuple scans.  The
  by-table route is the engine's by-table/expected-value cell.

The by-tuple *distribution* of SUM has no known PTIME algorithm (its
support can be exponential in the table size — Section IV-B's opening
example); use :mod:`repro.core.naive` or :mod:`repro.core.sampling`.
"""

from __future__ import annotations

import math

from repro.core.answers import ExpectedValueAnswer, RangeAnswer
from repro.core.common import PreparedTupleQuery
from repro.core.exactsum import ExactSum


def range_sum_kernel(
    prepared: PreparedTupleQuery, trace: list[dict] | None = None
) -> RangeAnswer:
    """The (tightened) Figure 4 fold over one prepared (ungrouped) problem.

    For each tuple the achievable contributions are the values under the
    mappings where it qualifies, plus 0 whenever some mapping disqualifies
    it.  The bounds accumulate the per-tuple minima and maxima of those
    contribution sets; a final adjustment keeps the bounds achievable by a
    *nonempty* world (SQL's SUM over zero qualifying tuples is NULL, not 0).
    ``trace``, when given, receives one dict per contributing tuple,
    mirroring the paper's Table VI (``tuple_index``, ``vmin``, ``vmax``,
    ``low``, ``up``).

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


def expected_sum_kernel(prepared: PreparedTupleQuery) -> ExpectedValueAnswer:
    """Exact conditional expected SUM over one prepared problem.

    The expectation of SUM conditioned on the SUM being defined (some
    tuple qualifies) — the library-wide convention for worlds where SQL's
    SUM would be NULL: ``E[SUM | defined] = (sum_ij P(m_j) *
    contribution_ij) / (1 - prod_i P(tuple i does not participate))``.

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
