"""The exact running sum behind the by-tuple SUM folds.

:class:`~repro.core.exactsum.ExactSum` keeps the exact real-number total,
so the scalar kernels, the streaming accumulators and the vectorized
``fsum`` reductions round the same addends to the same float.
"""

from __future__ import annotations

from repro.core.exactsum import ExactSum


class TestExactSum:
    def test_catastrophic_cancellation_is_exact(self):
        total = ExactSum()
        for value in (1e16, 1.0, -1e16, 1.0):
            total.add(value)
        assert total.value() == 2.0
