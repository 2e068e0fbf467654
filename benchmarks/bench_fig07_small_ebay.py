"""Figure 7: all algorithms on a small (simulated) eBay instance.

The benchmark fixes 12 tuples / 2 mappings (4096 mapping sequences) so the
exponential algorithms are measurable but bounded; the contrast with the
PTIME algorithms — several orders of magnitude — is the paper's point.
Run as a script for the full #tuples sweep with shape checks.
"""

from __future__ import annotations

import pytest

from repro.bench.algorithms import get_algorithm
from repro.bench.experiments import EXPONENTIAL_ALGORITHMS, PTIME_ALGORITHMS


@pytest.mark.parametrize("name", EXPONENTIAL_ALGORITHMS)
def bench_exponential(benchmark, small_ebay_context, name):
    answer = benchmark(get_algorithm(name), small_ebay_context)
    assert answer is not None


@pytest.mark.parametrize("name", PTIME_ALGORITHMS)
def bench_ptime(benchmark, small_ebay_context, name):
    answer = benchmark(get_algorithm(name), small_ebay_context)
    assert answer is not None


if __name__ == "__main__":
    from repro.bench.experiments import figure7

    raise SystemExit(0 if figure7() else 1)
