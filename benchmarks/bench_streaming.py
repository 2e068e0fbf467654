"""Single-pass streaming versus batch algorithms versus vectorized.

Same workload, three execution styles: the batch scalar algorithms (what
the figure sweeps time), the same row-walk kernels folded over a one-shot
row iterator (``answer_stream``, bounded memory), and the numpy fast
path.  Streaming should track batch closely — it runs the same kernel row
by row — while vectorized wins outright.
"""

from __future__ import annotations

import pytest

from repro.bench.contexts import make_synthetic_context
from repro.core.bytuple_sum import by_tuple_range_sum
from repro.core.semantics import AggregateSemantics
from repro.core.common import PreparedTupleQuery
from repro.core.streaming import answer_stream
from repro.storage.table import Table
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
        context.pmapping,
        context.query(AggregateOp.SUM),
        AggregateSemantics.RANGE,
    )
    vectorized = run_grouped_vectorized(
        context.columnar,
        context.pmapping,
        context.query(AggregateOp.SUM),
        AggregateSemantics.RANGE,
    )
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


#: Harness suite carrying this script's cases (``--harness`` runs it).
HARNESS_SUITE = "streaming"

if __name__ == "__main__":
    import sys

    from repro.bench.harness import main as harness_main

    raise SystemExit(harness_main(
        ["--suite", HARNESS_SUITE]
        + [a for a in sys.argv[1:] if a != "--harness"]
    ))
