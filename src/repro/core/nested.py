"""Nested by-tuple aggregates via probabilistic composition — beyond the paper.

The paper's future work proposes supporting nested aggregate queries "by
interpreting the results on inner queries in terms of probabilistic
databases".  This module does exactly that for the by-tuple distribution
(and hence expected value) of the paper's Q2 shape::

    SELECT Outer(x) FROM (SELECT Inner(A) FROM T GROUP BY G) ...

Groups partition the tuples and mapping choices are independent across
tuples, so the per-group inner aggregates are *independent random
variables*.  When each group's inner distribution is exactly computable in
polynomial time — inner COUNT via the Figure 3 dynamic program, inner
MIN/MAX via the order-statistics extension — the outer aggregate's
distribution follows by classical composition:

* outer SUM — convolution of the group distributions;
* outer AVG — convolution scaled by 1/#groups;
* outer MIN/MAX — order statistics over the group distributions, by the
  extension's :func:`~repro.core.extensions.order_statistic`;
* outer COUNT — a point mass at #groups.

The convolution support can grow as the product of group support sizes, so
:func:`compose_independent` takes a ``max_support`` budget and raises
rather than silently exploding.  Groups whose inner aggregate can be
undefined in some world (positive undefined mass) are rejected — the outer
aggregate would range over a world-dependent set of groups; use the naive
enumeration or sampling for those queries.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence

from repro.core import guard as guardmod
from repro.core.extensions import order_statistic
from repro.exceptions import EvaluationError, UnsupportedQueryError
from repro.prob.distribution import DiscreteDistribution
from repro.sql.ast import AggregateOp

#: Default cap on the composed distribution's support size.
DEFAULT_MAX_SUPPORT = 200_000


def _convolve_all(
    distributions: Sequence[DiscreteDistribution], max_support: int
) -> DiscreteDistribution:
    guard = guardmod.current_guard()

    def convolve(a: DiscreteDistribution, b: DiscreteDistribution):
        if guard is not None:
            guard.note_support(len(a) * len(b))
            guard.check_deadline()
        if len(a) * len(b) > max_support:
            raise EvaluationError(
                "composed distribution support would exceed "
                f"{max_support} outcomes; use sampling "
                "(repro.core.sampling) or naive enumeration"
            )
        return a.convolve(b)

    return functools.reduce(convolve, distributions)


def compose_independent(
    outer_op: AggregateOp,
    distributions: Sequence[DiscreteDistribution],
    *,
    max_support: int = DEFAULT_MAX_SUPPORT,
) -> DiscreteDistribution:
    """Distribution of ``outer_op`` over independent random variables.

    Examples
    --------
    >>> from repro.prob.distribution import DiscreteDistribution as D
    >>> compose_independent(AggregateOp.SUM,
    ...                     [D({0: 0.5, 1: 0.5}), D({0: 0.5, 1: 0.5})])
    DiscreteDistribution({0: 0.25, 1: 0.5, 2: 0.25})
    """
    if not distributions:
        raise EvaluationError("need at least one group distribution")
    if outer_op is AggregateOp.COUNT:
        return DiscreteDistribution.point(len(distributions))
    if outer_op is AggregateOp.SUM:
        return _convolve_all(distributions, max_support)
    if outer_op is AggregateOp.AVG:
        total = _convolve_all(distributions, max_support)
        count = len(distributions)
        # Divide rather than multiply by a reciprocal so the support values
        # match a direct sum/count computation bit-for-bit.
        return total.map(lambda value: value / count)
    if outer_op in (AggregateOp.MAX, AggregateOp.MIN):
        return order_statistic(
            ((d.as_dict(), 0.0) for d in distributions),
            maximize=outer_op is AggregateOp.MAX,
        ).distribution
    raise UnsupportedQueryError(f"unknown outer aggregate {outer_op!r}")
