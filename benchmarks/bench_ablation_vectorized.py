"""Ablation: scalar versus vectorized PTIME range algorithms.

The paper's future work names "optimizing some of our algorithms,
including the by-tuple/range semantics of COUNT and SUM"; the numpy fast
path is this library's take.  The benchmark times both implementations on
the same 50k x 10 workload; expect two to three orders of magnitude.

The grouped cases time one prepared GROUP BY query (by-tuple SUM range and
COUNT distribution) on shuffled eBay auctions of about 9, 47 and 193 bids
each: the array kernels answer all groups in one call, and the answers
(key order included) must equal the row walk's.
"""

from __future__ import annotations

import random
import statistics
import time

import pytest

from repro import AggregationEngine
from repro.bench.algorithms import get_algorithm
from repro.bench.contexts import make_synthetic_context
from repro.data import ebay
from repro.storage.table import Table

RANGE_ALGORITHMS = (
    "ByTupleRangeCOUNT",
    "ByTupleRangeSUM",
    "ByTupleRangeAVG",
    "ByTupleRangeMAX",
    "ByTupleRangeMIN",
)


@pytest.fixture(scope="module")
def scalar_context():
    context = make_synthetic_context(50000, 20, 10)
    yield context
    context.close()


@pytest.fixture(scope="module")
def vector_context():
    context = make_synthetic_context(50000, 20, 10, use_vectorized=True)
    yield context
    context.close()


@pytest.mark.parametrize("name", RANGE_ALGORITHMS)
def bench_scalar(benchmark, scalar_context, name):
    answer = benchmark.pedantic(
        get_algorithm(name), args=(scalar_context,), rounds=2, iterations=1
    )
    assert answer is not None


@pytest.mark.parametrize("name", RANGE_ALGORITHMS)
def bench_vectorized(benchmark, vector_context, name):
    answer = benchmark(get_algorithm(name), vector_context)
    assert answer is not None


def bench_answers_agree(scalar_context, vector_context):
    for name in RANGE_ALGORITHMS:
        scalar = get_algorithm(name)(scalar_context)
        vector = get_algorithm(name)(vector_context)
        assert scalar.low == pytest.approx(vector.low)
        assert scalar.high == pytest.approx(vector.high)


#: ``(auctions, mean bids)``: about 9, 47 and 193 rows per group.
GROUPED_SHAPES = [(2000, 9), (500, 47), (100, 193)]
GROUPED_CELLS = [("SUM(price)", "range"), ("COUNT(*)", "distribution")]
GROUPED_QUERY = "SELECT {} FROM T2 WHERE price > 100 GROUP BY auctionID"


def grouped_table(auctions: int, bids: int) -> Table:
    """Simulated auctions with their bids in shuffled row order."""
    table = ebay.generate_auctions(auctions, mean_bids=bids, seed=3, min_bids=1)
    rows = list(table.rows)
    random.Random(0).shuffle(rows)
    return Table(table.relation, rows)


@pytest.fixture(
    scope="module", params=GROUPED_SHAPES, ids=lambda shape: f"{shape[1]}-bids"
)
def grouped(request):
    return grouped_table(*request.param), ebay.paper_pmapping()


@pytest.mark.parametrize(("aggregate", "semantics"), GROUPED_CELLS)
def bench_grouped_vectorized(benchmark, grouped, aggregate, semantics):
    table, pmapping = grouped
    with AggregationEngine([table], pmapping) as engine:
        handle = engine.prepare(GROUPED_QUERY.format(aggregate))
        answer = benchmark(handle.answer, "by-tuple", semantics)
        assert engine.metrics_snapshot()["vectorized.hit"] >= 1
    assert len(answer) > 1


def bench_grouped_answers_agree(grouped):
    table, pmapping = grouped
    for aggregate, semantics in GROUPED_CELLS:
        text = GROUPED_QUERY.format(aggregate)
        array = AggregationEngine([table], pmapping).prepare(text).answer(
            "by-tuple", semantics
        )
        walk = AggregationEngine([table], pmapping, vectorize=False).answer(
            text, "by-tuple", semantics
        )
        assert array == walk
        assert list(array.groups) == list(walk.groups)


def grouped_timings(repeats: int = 7) -> bool:
    """Print prepared row-walk vs array medians (ms) per grouped shape."""
    agree = True
    for shape in GROUPED_SHAPES:
        table = grouped_table(*shape)
        cells = []
        for aggregate, semantics in GROUPED_CELLS:
            text = GROUPED_QUERY.format(aggregate)
            medians, answers = [], []
            for vectorize in (False, True):
                engine = AggregationEngine(
                    [table], ebay.paper_pmapping(), vectorize=vectorize
                )
                handle = engine.prepare(text)
                answers.append(handle.answer("by-tuple", semantics))
                times = []
                for _ in range(repeats):
                    start = time.perf_counter()
                    handle.answer("by-tuple", semantics)
                    times.append(time.perf_counter() - start)
                medians.append(statistics.median(times) * 1e3)
            agree &= answers[0] == answers[1]
            agree &= list(answers[0].groups) == list(answers[1].groups)
            cells.append(
                f"{aggregate} {semantics} {medians[0]:.1f} -> {medians[1]:.1f}"
            )
        print(
            f"grouped {len(table)} rows / {shape[0]} groups "
            f"(row walk -> array, ms): " + "; ".join(cells)
        )
    print("grouped answers agree:", agree)
    return agree


if __name__ == "__main__":
    from repro.bench.experiments import ablation_vectorized

    ok = ablation_vectorized()
    raise SystemExit(0 if grouped_timings() and ok else 1)
