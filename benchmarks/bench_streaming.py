"""Streaming accumulators versus batch algorithms versus vectorized.

Same workload, three execution styles: the batch scalar algorithms (what
the figure sweeps time), the single-pass streaming accumulators (bounded
memory), and the numpy fast path.  Streaming should track batch closely —
it does the same work row by row — while vectorized wins outright.
"""

from __future__ import annotations

import pytest

from repro.bench.contexts import make_synthetic_context
from repro.core.bytuple_sum import by_tuple_range_sum
from repro.core.semantics import AggregateSemantics
from repro.core.streaming import (
    RangeCountAccumulator,
    RangeSumAccumulator,
    TupleStream,
    answer_stream,
)
from repro.core.vectorized import run_grouped_vectorized
from repro.sql.ast import AggregateOp


@pytest.fixture(scope="module")
def context():
    ctx = make_synthetic_context(20000, 10, 5, prebuild_columnar=True)
    yield ctx
    ctx.close()


def bench_batch_range_sum(benchmark, context):
    answer = benchmark(
        by_tuple_range_sum,
        context.table,
        context.pmapping,
        context.query(AggregateOp.SUM),
    )
    assert answer.is_defined


def bench_streaming_range_sum(benchmark, context):
    def run():
        return answer_stream(
            iter(context.table.rows),
            context.table.relation,
            context.pmapping,
            context.query(AggregateOp.SUM),
            RangeSumAccumulator,
        )

    answer = benchmark(run)
    assert answer.is_defined


def bench_streaming_range_count(benchmark, context):
    def run():
        return answer_stream(
            iter(context.table.rows),
            context.table.relation,
            context.pmapping,
            context.query(AggregateOp.COUNT),
            RangeCountAccumulator,
        )

    answer = benchmark(run)
    assert answer is not None


def bench_vectorized_range_sum(benchmark, context):
    answer = benchmark(
        run_grouped_vectorized,
        context.columnar,
        context.pmapping,
        context.query(AggregateOp.SUM),
        AggregateSemantics.RANGE,
    )
    assert answer.is_defined


def bench_all_styles_agree(context):
    batch = by_tuple_range_sum(
        context.table, context.pmapping, context.query(AggregateOp.SUM)
    )
    streamed = answer_stream(
        iter(context.table.rows),
        context.table.relation,
        context.pmapping,
        context.query(AggregateOp.SUM),
        RangeSumAccumulator,
    )
    vectorized = run_grouped_vectorized(
        context.columnar,
        context.pmapping,
        context.query(AggregateOp.SUM),
        AggregateSemantics.RANGE,
    )
    assert streamed.low == pytest.approx(batch.low)
    assert streamed.high == pytest.approx(batch.high)
    assert vectorized.low == pytest.approx(batch.low)
    assert vectorized.high == pytest.approx(batch.high)


def bench_stream_compilation_overhead(benchmark, context):
    # Building a TupleStream compiles predicates once per mapping — the
    # fixed cost a caller pays before the first row.
    stream = benchmark(
        TupleStream,
        context.table.relation,
        context.pmapping,
        context.query(AggregateOp.SUM),
    )
    assert stream.mapping_count == 5


#: Harness suite carrying this script's cases (``--harness`` runs it).
HARNESS_SUITE = "streaming"

if __name__ == "__main__":
    import sys

    from repro.bench.harness import main as harness_main

    raise SystemExit(harness_main(
        ["--suite", HARNESS_SUITE]
        + [a for a in sys.argv[1:] if a != "--harness"]
    ))
