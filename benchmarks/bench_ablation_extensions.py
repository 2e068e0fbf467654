"""Ablation: exact PTIME MIN/MAX distributions versus their alternatives.

The paper leaves by-tuple MIN/MAX distributions open and proposes sampling
(Section VII).  This benchmark compares, on a 10-tuple instance where the
naive baseline is still feasible and on a 2000-tuple instance where it is
not: naive enumeration, Monte-Carlo sampling, and the exact
order-statistics extension (:mod:`repro.core.extensions`), which an
engine built with ``use_extensions=True`` runs.
"""

from __future__ import annotations

import pytest

from repro.bench.contexts import make_synthetic_context
from repro.core.engine import AggregationEngine
from repro.core.naive import naive_by_tuple_answer
from repro.core.sampling import sample_by_tuple
from repro.core.semantics import AggregateSemantics
from repro.sql.ast import AggregateOp


@pytest.fixture(scope="module")
def tiny_context():
    ctx = make_synthetic_context(10, 6, 3)
    yield ctx
    ctx.close()


@pytest.fixture(scope="module")
def big_context():
    ctx = make_synthetic_context(2000, 6, 3)
    yield ctx
    ctx.close()


def bench_naive_max_distribution(benchmark, tiny_context):
    answer = benchmark.pedantic(
        naive_by_tuple_answer,
        args=(
            tiny_context.table,
            tiny_context.pmapping,
            tiny_context.query(AggregateOp.MAX),
            AggregateSemantics.DISTRIBUTION,
        ),
        rounds=2,
        iterations=1,
    )
    assert answer is not None


def bench_sampling_max_distribution(benchmark, big_context):
    answer = benchmark(
        sample_by_tuple,
        big_context.table,
        big_context.pmapping,
        big_context.query(AggregateOp.MAX),
        AggregateSemantics.DISTRIBUTION,
        samples=1000,
        seed=0,
    )
    assert answer is not None


def _exact_max_distribution(context):
    """The exact MAX distribution, answered by the extension lane."""
    engine = AggregationEngine(context.table, context.pmapping, use_extensions=True)
    return lambda: engine.answer(
        context.query(AggregateOp.MAX), "by-tuple", "distribution"
    )


def bench_exact_extension_max_distribution(benchmark, big_context):
    answer = benchmark(_exact_max_distribution(big_context))
    assert answer is not None


def bench_exact_matches_naive(tiny_context):
    exact = _exact_max_distribution(tiny_context)()
    naive = naive_by_tuple_answer(
        tiny_context.table,
        tiny_context.pmapping,
        tiny_context.query(AggregateOp.MAX),
        AggregateSemantics.DISTRIBUTION,
    )
    assert exact.approx_equal(naive, 1e-9)


if __name__ == "__main__":
    from repro.bench.experiments import ablation_avg_counter_method

    raise SystemExit(0 if ablation_avg_counter_method() else 1)
