"""Ablation: expected COUNT via the Figure 3 DP versus linearity.

The paper derives ByTupleExpValCOUNT from the full distribution (O(m n^2),
the reason it tracks ByTuplePDCOUNT in Figure 9); linearity of expectation
gives the same value in O(m n).  Both are benchmarked at 3k x 10.
"""

from __future__ import annotations

import pytest

from repro.bench.contexts import make_synthetic_context
from repro.core.bytuple_count import dp_expected_count_kernel, expected_count_kernel
from repro.core.common import run_possibly_grouped
from repro.sql.ast import AggregateOp


@pytest.fixture(scope="module")
def context():
    ctx = make_synthetic_context(3000, 20, 10)
    yield ctx
    ctx.close()


def bench_expected_count_via_distribution(benchmark, context):
    answer = benchmark.pedantic(
        run_possibly_grouped,
        args=(
            context.table,
            context.pmapping,
            context.query(AggregateOp.COUNT),
            dp_expected_count_kernel,
        ),
        rounds=2,
        iterations=1,
    )
    assert answer.is_defined


def bench_expected_count_linear(benchmark, context):
    answer = benchmark(
        run_possibly_grouped,
        context.table,
        context.pmapping,
        context.query(AggregateOp.COUNT),
        expected_count_kernel,
    )
    assert answer.is_defined


def bench_methods_agree(context):
    dp = run_possibly_grouped(
        context.table, context.pmapping, context.query(AggregateOp.COUNT),
        dp_expected_count_kernel,
    )
    linear = run_possibly_grouped(
        context.table, context.pmapping, context.query(AggregateOp.COUNT),
        expected_count_kernel,
    )
    assert dp.value == pytest.approx(linear.value)


if __name__ == "__main__":
    from repro.bench.experiments import ablation_expected_count

    raise SystemExit(0 if ablation_expected_count() else 1)
