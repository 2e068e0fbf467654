"""Exact floating-point summation.

The by-tuple SUM and AVG row walks (:mod:`repro.core.bytuple_sum`,
:mod:`repro.core.bytuple_avg`) fold their float totals through
:class:`ExactSum`.  Plain ``+=`` float addition is order dependent, so
lanes adding in different orders would differ by ULPs; an exact total
makes every lane's answer the same correctly-rounded value regardless of
the order the addends arrive in.  The array kernels reach that value
without Python lists: :func:`repro.core.vectorized.segment_sums` splits
each addend into two halves of at most 27 significant bits, adds the
halves of one binade exactly with ``numpy.bincount``, and rounds the few
exact bucket totals once with :func:`math.fsum`.  Exact sums of the same
multiset round to the same float, so the result is ``==`` to
:meth:`ExactSum.value`.

This module stays pure Python: it is the exact sum of the row walks,
the reference the array kernels are checked against, so it shares no
code with the numpy side it checks.

:class:`ExactSum` keeps the running total as a list of non-overlapping
partial sums (Shewchuk's error-free transformation, the same technique
behind :func:`math.fsum`): ``add`` folds a value in exactly and ``value``
rounds the exact total once.

References: Shewchuk, "Adaptive Precision Floating-Point Arithmetic and
Fast Robust Geometric Predicates" (1997); Hettinger's recipe used by
CPython's ``math.fsum``.
"""

from __future__ import annotations

import math

__all__ = ["ExactSum"]


class ExactSum:
    """A float sum that is exact, and therefore order-invariant.

    Examples
    --------
    >>> total = ExactSum()
    >>> for x in [1e16, 1.0, -1e16, 1.0]:
    ...     total.add(x)
    >>> total.value()
    2.0
    """

    __slots__ = ("_partials",)

    def __init__(self) -> None:
        self._partials: list[float] = []

    def add(self, value: float) -> None:
        """Fold ``value`` into the exact total (error-free transformation)."""
        x = float(value)
        partials = self._partials
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            high = x + y
            low = y - (high - x)
            if low:
                partials[i] = low
                i += 1
            x = high
        partials[i:] = [x]

    def value(self) -> float:
        """The correctly-rounded sum of everything added so far."""
        return math.fsum(self._partials)

    def __repr__(self) -> str:
        return f"ExactSum({self.value()!r})"
