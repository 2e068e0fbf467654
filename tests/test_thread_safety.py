"""Regression: the context's LRU caches survive concurrent engine use.

The prepare/plan/compile caches are ``OrderedDict``-based LRUs; before the
context grew its lock, concurrent ``prepare``/``answer`` calls could
corrupt them (``move_to_end`` on an evicted key, double ``popitem``) or
crash outright.  These tests hammer one engine from many threads with a
query working set larger than the cache capacity, so evictions race with
hits, and assert that every thread saw correct answers throughout.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

from repro.core.engine import AggregationEngine
from repro.core.semantics import AggregateSemantics, MappingSemantics
from repro.data import synthetic

THREADS = 8
ROUNDS = 30


def _small_engine(cache_size: int | None = None, **kwargs) -> AggregationEngine:
    relation = synthetic.source_relation(3)
    table = synthetic.generate_source_table(48, 3, seed=13, relation=relation)
    pmapping = synthetic.generate_pmapping(relation, 3, seed=13)
    engine = AggregationEngine(table, pmapping, **kwargs)
    if cache_size is not None:
        engine.context.cache_size = cache_size
    return engine


def test_concurrent_prepare_and_answer_under_eviction():
    # 24 query texts against a 4-entry cache: most lookups race an eviction.
    queries = [
        f"SELECT SUM(value) FROM MED WHERE value < {cutoff}"
        for cutoff in range(100, 1060, 40)
    ]
    with _small_engine(cache_size=4) as engine:
        expected = {
            query: engine.answer(
                query, MappingSemantics.BY_TUPLE, AggregateSemantics.RANGE
            )
            for query in queries
        }
        engine.context.invalidate()

        def hammer(worker: int) -> bool:
            ok = True
            for round_index in range(ROUNDS):
                query = queries[(worker + round_index) % len(queries)]
                answer = engine.prepare(query).answer(
                    MappingSemantics.BY_TUPLE, AggregateSemantics.RANGE
                )
                ok = ok and answer == expected[query]
            return ok

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            results = list(pool.map(hammer, range(THREADS)))
    assert all(results)


def test_concurrent_answers_with_vectorized_lane():
    """Threaded callers sharing one engine and its columnar cache."""
    with _small_engine(vectorize=True) as engine:
        query = "SELECT COUNT(*) FROM MED WHERE value < 500"
        expected = engine.answer(
            query, MappingSemantics.BY_TUPLE, AggregateSemantics.RANGE
        )

        def hammer(_: int) -> bool:
            return all(
                engine.answer(
                    query, MappingSemantics.BY_TUPLE, AggregateSemantics.RANGE
                )
                == expected
                for _ in range(ROUNDS)
            )

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            results = list(pool.map(hammer, range(THREADS)))
    assert all(results)


def test_concurrent_invalidate_does_not_corrupt_caches():
    queries = [
        f"SELECT AVG(value) FROM MED WHERE value < {cutoff}"
        for cutoff in range(200, 680, 60)
    ]
    with _small_engine(cache_size=4) as engine:

        def churn(worker: int) -> None:
            for round_index in range(ROUNDS):
                if worker == 0 and round_index % 5 == 0:
                    engine.context.invalidate()
                else:
                    query = queries[(worker + round_index) % len(queries)]
                    engine.prepare(query).answer(
                        MappingSemantics.BY_TUPLE, AggregateSemantics.RANGE
                    )

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            list(pool.map(churn, range(THREADS)))
        # The caches are intact and still serve correct answers.
        answer = engine.answer(
            queries[0], MappingSemantics.BY_TUPLE, AggregateSemantics.RANGE
        )
        assert answer == engine.answer(
            queries[0], MappingSemantics.BY_TUPLE, AggregateSemantics.RANGE
        )
        assert len(engine.context._prepared) <= engine.context.cache_size


def test_context_lock_is_reentrant():
    """prepare() calls compile() under the same lock — must not deadlock."""
    with _small_engine() as engine:
        prepared = engine.prepare("SELECT COUNT(*) FROM MED")
        assert prepared is engine.prepare("SELECT COUNT(*) FROM MED")
