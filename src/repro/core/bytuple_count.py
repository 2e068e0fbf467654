"""COUNT under the by-tuple semantics (paper Section IV-B, Figures 2-3).

Each kernel folds one prepared (ungrouped) problem; the engine's scalar
lane runs it per GROUP BY group through
:func:`~repro.core.common.run_prepared`.

* :func:`range_count_kernel` — the ByTupleRangeCOUNT algorithm
  (Figure 2): one pass over the tuples, O(n * m).
* :func:`distribution_count_kernel` — the ByTuplePDCOUNT dynamic program
  (Figure 3): the count is a Poisson-binomial random variable over the
  per-tuple participation probabilities; the DP updates the distribution
  one tuple at a time, O(m * n^2).
* :func:`expected_count_kernel` — the expected value by linearity of
  expectation, O(n * m).  The paper derives it from the Figure 3
  distribution instead (:func:`dp_expected_count_kernel`, kept for the
  ablation); both agree.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from repro.core import guard as guardmod
from repro.core.answers import (
    DistributionAnswer,
    ExpectedValueAnswer,
    RangeAnswer,
    project,
)
from repro.core.common import PreparedTupleQuery
from repro.core.semantics import AggregateSemantics
from repro.exceptions import EvaluationError
from repro.obs import metrics
from repro.prob.distribution import DiscreteDistribution


def range_count_kernel(
    prepared: PreparedTupleQuery, trace: list[dict] | None = None
) -> RangeAnswer:
    """The Figure 2 fold over one prepared (ungrouped) problem.

    For each tuple: if it satisfies the condition under *all* mappings both
    bounds grow; if under *some* mapping only the upper bound grows; under
    none, neither.  ``trace``, when given, receives one dict per processed
    tuple, mirroring the paper's Table IV (``tuple_index``, ``low``,
    ``up``).
    """
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
    # probabilities[i] is P(count = lo + i).  Every count outside that
    # live window has probability exactly 0 and stays so under the step
    # below, so only the window is folded; each step trims it past the
    # zeros that q == 1 rows and underflow leave at its ends.  The table
    # itself (trace rows, support, accounting) keeps its full width.
    probabilities = [1.0]  # P(count = 0) before any tuple
    lo = 0
    width = 1
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
                guard.note_support(width + 1)
            not_occ = 1.0 - occ
            # P'(j) = P(j) * notOcc + P(j-1) * occ  (paper Figure 3, lines 6-9)
            previous = probabilities
            probabilities = [previous[0] * not_occ]
            for j in range(1, len(previous)):
                probabilities.append(
                    previous[j] * not_occ + previous[j - 1] * occ
                )
            probabilities.append(previous[-1] * occ)
            width += 1
            dp_cells += width
            if not (probabilities[0] and probabilities[-1]):
                probabilities, lo = _live_window(probabilities, lo)
        if trace is not None:
            high = width - lo - len(probabilities)
            trace.append(
                {
                    "tuple_index": index,
                    "probabilities": [0.0] * lo + probabilities + [0.0] * high,
                }
            )
    # The Figure 3 table: one row per tuple, widening by one column per
    # qualifying tuple — rows x cols is what the O(m * n^2) bound counts.
    metrics.inc("count_dp.rows", rows)
    metrics.inc("count_dp.cells", dp_cells)
    metrics.observe("count_dp.width", width)
    return DiscreteDistribution(
        ((count, p) for count, p in enumerate(probabilities, lo) if p > 0.0),
    )


def _live_window(cells: list[float], lo: int) -> tuple[list[float], int]:
    """``cells`` (``cells[i]`` the probability of count ``lo + i``) without
    its zero ends, and the count its first kept cell is for.  The DP's
    probabilities sum to about 1, so a nonzero cell always remains."""
    start = 0
    while not cells[start]:
        start += 1
    stop = len(cells)
    while not cells[stop - 1]:
        stop -= 1
    return cells[start:stop], lo + start


def distribution_count_kernel(
    prepared: PreparedTupleQuery, trace: list[dict] | None = None
) -> DistributionAnswer:
    """The Figure 3 DP over one prepared (ungrouped) problem: O(m * n^2),
    each of the ``n`` tuples costing O(m) to classify and O(i) to fold
    (``trace`` as in :func:`count_distribution_dp`, the paper's Table V)."""
    occurrence = (
        prepared.satisfaction_probability(vector)
        for vector in prepared.contribution_vectors()
    )
    return DistributionAnswer(count_distribution_dp(occurrence, trace))


def expected_count_kernel(prepared: PreparedTupleQuery) -> ExpectedValueAnswer:
    """Expected COUNT over one prepared problem, by linearity of expectation.

    The planner's kernel: it agrees with the paper's DP expectation, costs
    O(n * m) instead of O(m * n^2), and — because it is an ``fsum`` of the
    per-tuple participation probabilities — matches the array kernel
    bit for bit.  The paper's route is :func:`dp_expected_count_kernel`.
    """
    return ExpectedValueAnswer(
        math.fsum(
            prepared.satisfaction_probability(vector)
            for vector in prepared.contribution_vectors()
        )
    )


def dp_expected_count_kernel(prepared: PreparedTupleQuery) -> ExpectedValueAnswer:
    """Expected COUNT the paper's way: the expectation of the full Figure 3
    distribution, O(m * n^2) (paper Section IV-B).

    Kept for the ablation against :func:`expected_count_kernel`, whose
    linear form the planner runs; the two agree.
    """
    return project(
        distribution_count_kernel(prepared), AggregateSemantics.EXPECTED_VALUE
    )
