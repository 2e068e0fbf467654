"""AVG under the by-tuple/range semantics (paper Section IV-B).

The paper sketches ByTupleRangeAVG as "very similar to [ByTupleRangeSUM],
keeping a counter of the number of participating tuples for both the lower
bound and the upper bound", dividing each SUM bound by its counter.  That
sketch is tight when every tuple qualifies under every mapping (true in all
the paper's experiments, whose conditions never touch uncertain
attributes), but not in general: excluding a high-valued *optional* tuple
can lower the average below ``low_sum / low_count``.

:func:`range_avg_kernel` therefore computes the *tight* bounds with a
classic greedy for optimizing a mean over optional elements:

* every *forced* tuple (qualifies under all mappings) participates with its
  minimal (resp. maximal) value;
* optional tuples are sorted by their minimal (maximal) value and included
  while they pull the running mean down (up).

The greedy is optimal because adding an element below the current mean
always lowers it and the optimal optional set is a prefix of the sorted
order; it coincides with the paper's counter method
(:func:`range_avg_counter_kernel`, kept for the ablation) whenever no tuple
is optional.  Complexity O(n * m + k log k) time and O(k) state for ``k``
optional tuples.

The by-tuple distribution and expected value of AVG have no known PTIME
algorithm (AVG is non-monotonic, defeating the Theorem 4 argument — see
the remark after Example 5); use :mod:`repro.core.naive` or
:mod:`repro.core.sampling`.
"""

from __future__ import annotations

from repro.core.answers import RangeAnswer
from repro.core.common import PreparedTupleQuery
from repro.core.exactsum import ExactSum


def _greedy_extreme_mean(
    forced_total: float,
    forced_count: int,
    optional: list[float],
    *,
    minimize: bool,
) -> float | None:
    """The extreme achievable mean of the forced tuples plus a subset of
    ``optional``.

    The forced tuples enter already reduced to their correctly rounded
    sum ``forced_total`` and their count, so the kernel keeps O(1) state
    for them.  ``None`` when no element can participate at all.
    """
    if not forced_count and not optional:
        return None
    candidates = sorted(optional, reverse=not minimize)
    if forced_count:
        total = forced_total
        count = forced_count
    else:
        # At least one tuple must participate for AVG to be defined; start
        # with the single most favourable optional tuple.
        total = candidates[0]
        count = 1
        candidates = candidates[1:]
    mean = total / count
    for value in candidates:
        improves = value < mean if minimize else value > mean
        if not improves:
            break
        total += value
        count += 1
        mean = total / count
    return mean


def range_avg_kernel(prepared: PreparedTupleQuery) -> RangeAnswer:
    """The tight AVG range (greedy over optional tuples) for one problem.

    Forced tuples fold into exact running sums and a count; only the
    optional tuples' extreme values are kept for the greedy, so the
    state is O(#optional).
    """
    forced_min = ExactSum()
    forced_max = ExactSum()
    forced_count = 0
    optional_min: list[float] = []
    optional_max: list[float] = []
    for vector in prepared.contribution_vectors():
        satisfying = [c for c in vector if c is not None]
        if not satisfying:
            continue
        if len(satisfying) == len(vector):
            forced_min.add(min(satisfying))
            forced_max.add(max(satisfying))
            forced_count += 1
        else:
            optional_min.append(min(satisfying))
            optional_max.append(max(satisfying))
    low = _greedy_extreme_mean(
        forced_min.value(), forced_count, optional_min, minimize=True
    )
    high = _greedy_extreme_mean(
        forced_max.value(), forced_count, optional_max, minimize=False
    )
    if low is None:
        return RangeAnswer(None, None)
    return RangeAnswer(low, high)


def range_avg_counter_kernel(prepared: PreparedTupleQuery) -> RangeAnswer:
    """The paper's literal counter-based sketch of ByTupleRangeAVG.

    Kept for faithfulness and for the ablation benchmark: divides the
    Figure 4 SUM bounds by per-bound participation counters.  Tight exactly
    when every contributing tuple qualifies under all mappings; see the
    module docstring for why it can otherwise miss achievable averages.
    """
    low_sum = 0.0
    up_sum = 0.0
    low_count = 0
    up_count = 0
    for vector in prepared.contribution_vectors():
        satisfying = [c for c in vector if c is not None]
        if not satisfying:
            continue
        low_sum += min(satisfying)
        low_count += 1
        up_sum += max(satisfying)
        up_count += 1
    if low_count == 0:
        return RangeAnswer(None, None)
    return RangeAnswer(low_sum / low_count, up_sum / up_count)
