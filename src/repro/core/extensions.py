"""Exact PTIME by-tuple MIN/MAX distributions — beyond the paper.

The paper leaves the by-tuple distribution (and hence expected value) of
MIN and MAX without a polynomial algorithm (Figure 6 marks the cells "?").
Independence of the per-tuple mapping choices in fact admits one, by the
standard order-statistics argument:

    P(MAX <= v)  =  prod_i F_i(v)

where ``F_i(v)`` is the probability that tuple ``i`` either does not
participate (its exclusion mass) or contributes a value ``<= v``.  The
probability that the MAX is undefined (no tuple participates) is
``prod_i e_i``; differencing the product over the sorted global support
yields the exact pmf in O(n * |V| * log k) after an O(n * m) preparation —
``|V| <= n * m`` distinct values, so O(n^2 * m log m) worst case.

MIN is symmetric via survival functions.  :func:`order_statistic` is the
one product-of-CDFs routine: the nested MIN/MAX composition of
:mod:`repro.core.nested` passes it the independent group distributions.
These algorithms slot into the planner as *extensions* (disabled when
strict paper-faithful complexity is requested) and are validated against
naive enumeration in the tests.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Iterable, Iterator

from repro.core.answers import DistributionAnswer
from repro.core.common import PreparedTupleQuery
from repro.prob.distribution import DiscreteDistribution


class _TupleCDF:
    """Per-tuple participation distribution in CDF form.

    ``values``/``cumulative`` are sorted; ``cdf(v)`` is the probability the
    tuple is excluded or contributes at most ``v``; ``survival(v)`` the
    probability it is excluded or contributes at least ``v``.
    """

    __slots__ = ("values", "cumulative_low", "cumulative_high", "exclusion")

    def __init__(self, weighted_values: dict[float, float], exclusion: float) -> None:
        self.values = sorted(weighted_values)
        self.exclusion = exclusion
        running = 0.0
        cumulative_low = []
        for value in self.values:
            running += weighted_values[value]
            cumulative_low.append(running)
        self.cumulative_low = cumulative_low  # P(contributes and value <= v)
        total = running
        self.cumulative_high = [
            total - (cumulative_low[i - 1] if i else 0.0)
            for i in range(len(self.values))
        ]  # P(contributes and value >= v)

    def cdf(self, value: float) -> float:
        index = bisect.bisect_right(self.values, value)
        mass = self.cumulative_low[index - 1] if index else 0.0
        return self.exclusion + mass

    def survival(self, value: float) -> float:
        index = bisect.bisect_left(self.values, value)
        mass = self.cumulative_high[index] if index < len(self.values) else 0.0
        return self.exclusion + mass


def _prepare_factors(
    prepared: PreparedTupleQuery,
) -> Iterator[tuple[dict[float, float], float]]:
    for vector in prepared.contribution_vectors():
        weighted: dict[float, float] = {}
        exclusion = 0.0
        for probability, contribution in zip(prepared.probabilities, vector):
            if contribution is None:
                exclusion += probability
            else:
                weighted[contribution] = weighted.get(contribution, 0.0) + probability
        yield weighted, exclusion


def order_statistic(
    factors: Iterable[tuple[dict[float, float], float]], *, maximize: bool
) -> DistributionAnswer:
    """MAX (or MIN) of independent variables, by the product of their CDFs.

    Each factor is one variable: its ``{value: probability}`` weights and
    its exclusion mass, the probability it contributes nothing.  The
    answer is undefined in the worlds where every factor is excluded.
    Tuples of one by-tuple problem and the independent group aggregates of
    a nested query (exclusion 0) both fold here.
    """
    cdfs: list[_TupleCDF] = []
    support: set[float] = set()
    for weighted, exclusion in factors:
        # A factor that never contributes multiplies every product by 1
        # and can be dropped entirely.
        if weighted:
            support.update(weighted)
            cdfs.append(_TupleCDF(weighted, exclusion))
    if not cdfs:
        return DistributionAnswer(None, undefined_probability=1.0)
    undefined = math.prod(cdf.exclusion for cdf in cdfs)
    outcomes: dict[float, float] = {}
    previous = undefined
    values = sorted(support)
    if not maximize:
        values.reverse()
    for value in values:
        if maximize:
            at_most = math.prod(cdf.cdf(value) for cdf in cdfs)
        else:
            at_most = math.prod(cdf.survival(value) for cdf in cdfs)
        mass = at_most - previous
        if mass > 0.0:
            outcomes[value] = mass
        previous = at_most
    defined_mass = 1.0 - undefined
    if defined_mass <= 0.0 or not outcomes:
        return DistributionAnswer(None, undefined_probability=1.0)
    distribution = DiscreteDistribution(outcomes, normalize=True)
    return DistributionAnswer(distribution, undefined_probability=undefined)


def max_distribution_kernel(prepared: PreparedTupleQuery) -> DistributionAnswer:
    """Exact by-tuple MAX distribution over one prepared problem."""
    return order_statistic(_prepare_factors(prepared), maximize=True)


def min_distribution_kernel(prepared: PreparedTupleQuery) -> DistributionAnswer:
    """Exact by-tuple MIN distribution over one prepared problem."""
    return order_statistic(_prepare_factors(prepared), maximize=False)
