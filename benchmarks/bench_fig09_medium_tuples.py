"""Figure 9: the PTIME algorithms on medium instances (2k x 20 mappings).

The headline contrast: the O(m n^2) ByTuplePDCOUNT / ByTupleExpValCOUNT
pair versus the O(m n) range algorithms and the DBMS-backed by-table band.
Run as a script for the full #tuples sweep (quadratic separation).
"""

from __future__ import annotations

import pytest

from repro.bench.algorithms import get_algorithm
from repro.bench.experiments import _FIG9_ALGORITHMS

QUADRATIC = ("ByTuplePDCOUNT", "ByTupleExpValCOUNT")
LINEAR = tuple(n for n in _FIG9_ALGORITHMS if n not in QUADRATIC)


@pytest.mark.parametrize("name", QUADRATIC)
def bench_quadratic_count(benchmark, medium_context, name):
    answer = benchmark.pedantic(
        get_algorithm(name), args=(medium_context,), rounds=2, iterations=1
    )
    assert answer is not None


@pytest.mark.parametrize("name", LINEAR)
def bench_linear(benchmark, medium_context, name):
    answer = benchmark(get_algorithm(name), medium_context)
    assert answer is not None


if __name__ == "__main__":
    from repro.bench.experiments import figure9

    raise SystemExit(0 if figure9() else 1)
