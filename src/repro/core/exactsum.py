"""Exact floating-point summation.

The by-tuple SUM and AVG row walks (:mod:`repro.core.bytuple_sum`,
:mod:`repro.core.bytuple_avg`) fold their float totals through
:class:`ExactSum`, and the vectorized kernels reduce the same addends with
:func:`math.fsum`.  Plain ``+=`` float addition is order dependent, so the
lanes would differ by ULPs; an exact total makes every lane's answer the
same correctly-rounded value regardless of the order the addends arrive in.

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
from collections.abc import Iterable

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

    def __init__(self, values: Iterable[float] = ()) -> None:
        self._partials: list[float] = []
        for value in values:
            self.add(value)

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

    def is_zero(self) -> bool:
        """True when nothing (or only zeros) has been added."""
        return not any(self._partials)

    def copy(self) -> "ExactSum":
        """An independent accumulator with the same exact total."""
        duplicate = ExactSum()
        duplicate._partials = list(self._partials)
        return duplicate

    def __repr__(self) -> str:
        return f"ExactSum({self.value()!r})"
