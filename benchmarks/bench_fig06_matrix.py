"""Figure 6: the complexity matrix and Table III (the six semantics of Q1).

``pytest benchmarks/bench_fig06_matrix.py --benchmark-only`` measures the
engine's per-cell answering cost on the paper's Table I instance — the
"header row" of the evaluation.  Run as a script for the printed matrix.
"""

from __future__ import annotations

import pytest

from repro.core.engine import AggregationEngine
from repro.core.planner import complexity_matrix, format_complexity_matrix
from repro.core.semantics import AggregateSemantics, MappingSemantics
from repro.data import realestate


@pytest.fixture(scope="module")
def engine():
    return AggregationEngine(
        [realestate.paper_instance()],
        realestate.paper_pmapping(),
        allow_exponential=True,
    )


def bench_complexity_matrix(benchmark):
    matrix = benchmark(complexity_matrix)
    assert len(matrix) == 30


def bench_format_matrix(benchmark):
    text = benchmark(format_complexity_matrix)
    assert "PTIME" in text


@pytest.mark.parametrize("mapping_sem", list(MappingSemantics))
@pytest.mark.parametrize("aggregate_sem", list(AggregateSemantics))
def bench_q1_cell(benchmark, engine, mapping_sem, aggregate_sem):
    answer = benchmark(
        engine.answer, realestate.Q1, mapping_sem, aggregate_sem
    )
    assert answer is not None


if __name__ == "__main__":
    from repro.bench.experiments import figure6, table3

    table3()
    raise SystemExit(0 if figure6() else 1)
