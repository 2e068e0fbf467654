"""MIN and MAX under the by-tuple/range semantics (paper Figure 5).

Figure 5 computes the MAX range as ``[max_i v_i^min, max_i v_i^max]`` —
the tightest interval when every tuple qualifies under every mapping (as in
the paper's Q2, which has no WHERE clause).  When a tuple qualifies under
only *some* mappings, a sequence may exclude it entirely, so the lower
bound of MAX must distinguish:

* *forced* tuples (qualify under all mappings) can never be excluded — the
  minimal achievable MAX is ``max`` over forced tuples of their minimal
  values;
* if **no** tuple is forced, the world can shrink to a single tuple, and
  the minimal achievable (defined) MAX is ``min_i v_i^min``.

MIN is symmetric.  Complexity O(n * m), one pass.

DISTINCT is a no-op for MIN/MAX and is accepted.

The by-tuple distribution / expected value of MIN and MAX are not covered
by a PTIME algorithm in the paper; :mod:`repro.core.extensions` contains an
exact polynomial method (beyond the paper) and :mod:`repro.core.naive` /
:mod:`repro.core.sampling` the baseline routes.
"""

from __future__ import annotations

from repro.core.answers import AggregateAnswer, RangeAnswer
from repro.core.common import PreparedTupleQuery, run_possibly_grouped
from repro.schema.mapping import PMapping
from repro.sql.ast import AggregateQuery
from repro.storage.table import Table


def _minmax_range(
    prepared: PreparedTupleQuery, *, maximize: bool
) -> RangeAnswer:
    # No float sentinels: the aggregated values may be DATE or TEXT.
    outward, inward = (max, min) if maximize else (min, max)
    forced_inner = any_inner = outer = None
    for vector in prepared.contribution_vectors():
        satisfying = [c for c in vector if c is not None]
        if not satisfying:
            continue
        vmin = min(satisfying)
        vmax = max(satisfying)
        high, low = (vmax, vmin) if maximize else (vmin, vmax)
        if outer is None:
            outer, any_inner = high, low
        else:
            outer = outward(outer, high)
            any_inner = inward(any_inner, low)
        if len(satisfying) == len(vector):
            forced_inner = (
                low if forced_inner is None else outward(forced_inner, low)
            )
    if outer is None:
        return RangeAnswer(None, None)
    inner = any_inner if forced_inner is None else forced_inner
    if maximize:
        return RangeAnswer(inner, outer)
    return RangeAnswer(outer, inner)


def range_max_kernel(prepared: PreparedTupleQuery) -> RangeAnswer:
    """The Figure 5 MAX fold over one prepared (ungrouped) problem."""
    return _minmax_range(prepared, maximize=True)


def range_min_kernel(prepared: PreparedTupleQuery) -> RangeAnswer:
    """The MIN counterpart of :func:`range_max_kernel`."""
    return _minmax_range(prepared, maximize=False)


def by_tuple_range_max(
    table: Table,
    pmapping: PMapping,
    query: AggregateQuery,
) -> AggregateAnswer:
    """ByTupleRangeMAX (paper Figure 5), tightened for partial qualification.

    Examples
    --------
    For the paper's auction 38 (Table II) the per-tuple value ranges are
    (300, 330.01), (335.01, 429.95), (336.3, 439.95), (340.5, 438.05), all
    forced; the answer is ``[max of minima, max of maxima] =
    [340.5, 439.95]`` (the paper prints 340.05 for the first bound — a typo
    for 340.5, the bid of transaction 3804).
    """
    return run_possibly_grouped(table, pmapping, query, range_max_kernel)


def by_tuple_range_min(
    table: Table,
    pmapping: PMapping,
    query: AggregateQuery,
) -> AggregateAnswer:
    """ByTupleRangeMIN: the MIN counterpart of Figure 5 (paper Section IV-B,
    "the techniques presented here for MAX can be easily adapted")."""
    return run_possibly_grouped(table, pmapping, query, range_min_kernel)
