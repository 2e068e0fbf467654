"""Figure 11: the scalable by-tuple algorithms at 50k x 20 mappings.

The scalar per-tuple loops (≈ the paper's per-tuple Java costs) scan
50k x 20 = 1M (tuple, mapping) pairs; ByTupleExpValSUM — equivalent to
by-table by Theorem 4 — runs on the SQLite backend and sits far below
them.  Run as a script for the #tuples sweep (linear scaling; use
``repro-bench fig11 --full`` for the paper's millions-of-tuples axis).
"""

from __future__ import annotations

import pytest

from repro.bench.algorithms import get_algorithm
from repro.bench.experiments import _FIG11_ALGORITHMS


@pytest.mark.parametrize("name", _FIG11_ALGORITHMS)
def bench_large(benchmark, large_context, name):
    answer = benchmark.pedantic(
        get_algorithm(name), args=(large_context,), rounds=2, iterations=1
    )
    assert answer is not None


if __name__ == "__main__":
    from repro.bench.experiments import figure11

    raise SystemExit(0 if figure11() else 1)
