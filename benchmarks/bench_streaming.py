"""Single-pass streaming versus batch algorithms versus vectorized.

Same workload, three execution styles: the engine's row walk (what the
scalar figure sweeps time), the same row-walk kernels folded over a
one-shot row iterator (``answer_stream``, bounded memory), and the
engine's array kernel.  Streaming should track batch closely — it runs
the same kernel row by row — while vectorized wins outright.
"""

from __future__ import annotations

import pytest

from repro.bench.algorithms import get_algorithm
from repro.bench.contexts import make_synthetic_context
from repro.core.common import PreparedTupleQuery
from repro.core.semantics import AggregateSemantics
from repro.core.streaming import answer_stream
from repro.sql.ast import AggregateOp
from repro.storage.table import Table

RANGE_SUM = get_algorithm("ByTupleRangeSUM")


@pytest.fixture(scope="module")
def context():
    ctx = make_synthetic_context(20000, 10, 5)
    yield ctx
    ctx.close()


@pytest.fixture(scope="module")
def vector_context():
    ctx = make_synthetic_context(20000, 10, 5, use_vectorized=True)
    yield ctx
    ctx.close()


def bench_batch_range_sum(benchmark, context):
    answer = benchmark(RANGE_SUM, context)
    assert answer.is_defined


def bench_streaming_range_sum(benchmark, context):
    def run():
        return answer_stream(
            iter(context.table.rows),
            context.pmapping,
            context.query(AggregateOp.SUM),
            AggregateSemantics.RANGE,
        )

    answer = benchmark(run)
    assert answer.is_defined


def bench_streaming_range_count(benchmark, context):
    def run():
        return answer_stream(
            iter(context.table.rows),
            context.pmapping,
            context.query(AggregateOp.COUNT),
            AggregateSemantics.RANGE,
        )

    answer = benchmark(run)
    assert answer is not None


def bench_vectorized_range_sum(benchmark, vector_context):
    answer = benchmark(RANGE_SUM, vector_context)
    assert answer.is_defined


def bench_all_styles_agree(context, vector_context):
    batch = RANGE_SUM(context)
    streamed = answer_stream(
        iter(context.table.rows),
        context.pmapping,
        context.query(AggregateOp.SUM),
        AggregateSemantics.RANGE,
    )
    vectorized = RANGE_SUM(vector_context)
    assert streamed == batch
    assert vectorized.low == pytest.approx(batch.low)
    assert vectorized.high == pytest.approx(batch.high)


def bench_stream_compilation_overhead(benchmark, context):
    # Preparing a query over a row stream compiles predicates once per
    # mapping — the fixed cost a caller pays before the first row.
    prepared = benchmark(
        lambda: PreparedTupleQuery(
            Table.from_prepared_rows(context.pmapping.source, []),
            context.pmapping,
            context.query(AggregateOp.SUM),
            rows=iter(()),
        )
    )
    assert prepared.mapping_count == 5
