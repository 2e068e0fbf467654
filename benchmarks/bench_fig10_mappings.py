"""Figure 10: many mappings over a wide table (5k x 110 attrs x 100 maps).

ByTupleExpValSUM is a by-table algorithm and must issue one SQL query per
mapping — 100 here — while the by-tuple range loops handle all 100
mappings in a single pass; the benchmark exposes that asymmetry at a fixed
size, and the script sweep shows ExpValSUM's linear growth in #mappings.
"""

from __future__ import annotations

import pytest

from repro.bench.algorithms import get_algorithm
from repro.bench.experiments import _FIG10_ALGORITHMS


@pytest.mark.parametrize("name", _FIG10_ALGORITHMS)
def bench_wide(benchmark, wide_context, name):
    answer = benchmark.pedantic(
        get_algorithm(name), args=(wide_context,), rounds=2, iterations=1
    )
    assert answer is not None


if __name__ == "__main__":
    from repro.bench.experiments import figure10

    raise SystemExit(0 if figure10() else 1)
