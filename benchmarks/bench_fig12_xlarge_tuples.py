"""Figure 12: very large tuple counts (1M x 5 mappings, vectorized).

At this scale the benchmark uses the numpy fast path (the library's
optimization; the scalar loops stay the default for the figure sweeps so
the paper's substrate-cost regime is preserved — see EXPERIMENTS.md).
``repro-bench fig12 --full`` reaches the paper's 15-30M tuples.
"""

from __future__ import annotations

import pytest

from repro.bench.algorithms import get_algorithm
from repro.bench.experiments import _FIG11_ALGORITHMS


@pytest.mark.parametrize("name", _FIG11_ALGORITHMS)
def bench_xlarge(benchmark, xlarge_context, name):
    answer = benchmark.pedantic(
        get_algorithm(name), args=(xlarge_context,), rounds=2, iterations=1
    )
    assert answer is not None


if __name__ == "__main__":
    from repro.bench.experiments import figure12

    raise SystemExit(0 if figure12() else 1)
