"""Figure 8: all algorithms with many mappings on a tiny synthetic table.

The benchmark fixes 6 tuples / 6 mappings (6^6 = 46,656 sequences): the
exponential algorithms pay the m^n blow-up in the number of *mappings*
while the PTIME algorithms remain proportional to n * m.  Run as a script
for the full #mappings sweep.
"""

from __future__ import annotations

import pytest

from repro.bench.algorithms import get_algorithm
from repro.bench.experiments import EXPONENTIAL_ALGORITHMS, PTIME_ALGORITHMS


@pytest.mark.parametrize("name", EXPONENTIAL_ALGORITHMS)
def bench_exponential(benchmark, small_mappings_context, name):
    answer = benchmark.pedantic(
        get_algorithm(name), args=(small_mappings_context,),
        rounds=2, iterations=1,
    )
    assert answer is not None


@pytest.mark.parametrize("name", PTIME_ALGORITHMS)
def bench_ptime(benchmark, small_mappings_context, name):
    answer = benchmark(get_algorithm(name), small_mappings_context)
    assert answer is not None


if __name__ == "__main__":
    from repro.bench.experiments import figure8

    raise SystemExit(0 if figure8() else 1)
