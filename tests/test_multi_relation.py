"""Integration: one engine serving several uncertain relations at once.

A mediated schema typically fronts many sources; the engine routes each
query to the p-mapping of the relation it reads, across backends and
semantics, without interference.
"""

from __future__ import annotations

import pytest

from repro.core.engine import AggregationEngine
from repro.data import ebay, realestate
from repro.schema.mapping import SchemaPMapping


@pytest.fixture
def engine(ds1, ds2, pm1, pm2):
    return AggregationEngine(
        [ds1, ds2],
        SchemaPMapping([pm1, pm2]),
        allow_exponential=True,
    )


class TestRouting:
    def test_t1_query_uses_realestate_mapping(self, engine):
        answer = engine.answer(realestate.Q1, "by-tuple", "range")
        assert answer.as_tuple() == (1, 3)

    def test_t2_query_uses_ebay_mapping(self, engine):
        answer = engine.answer(ebay.Q2_PRIME, "by-tuple", "expected-value")
        assert answer.value == pytest.approx(975.437)

    def test_nested_query_routes_by_innermost_from(self, engine):
        answer = engine.answer(ebay.Q2, "by-tuple", "range")
        assert answer.low == pytest.approx((336.94 + 340.5) / 2)

    def test_interleaved_queries_do_not_interfere(self, engine):
        first = engine.answer(realestate.Q1, "by-table", "distribution")
        second = engine.answer(
            "SELECT MAX(price) FROM T2", "by-table", "distribution"
        )
        third = engine.answer(realestate.Q1, "by-table", "distribution")
        assert first.approx_equal(third)
        assert second.distribution.max() == pytest.approx(439.95)


class TestMultiRelationBackends:
    def test_sqlite_backend_materializes_all_sources(self, ds1, ds2, pm1, pm2):
        with AggregationEngine(
            [ds1, ds2], SchemaPMapping([pm1, pm2]), backend="sqlite"
        ) as engine:
            a = engine.answer(realestate.Q1, "by-table", "expected-value")
            b = engine.answer(ebay.Q2_PRIME, "by-table", "expected-value")
        assert a.value == pytest.approx(2.2)
        assert b.value == pytest.approx(975.437)

    def test_vectorized_caches_per_relation(self, ds1, ds2, pm1, pm2):
        engine = AggregationEngine(
            [ds1, ds2], SchemaPMapping([pm1, pm2]), vectorize=True
        )
        engine.answer("SELECT MAX(price) FROM T2", "by-tuple", "range")
        engine.answer(
            "SELECT MAX(listPrice) FROM T1", "by-tuple", "range"
        )
        assert set(engine.context.columnar_cache) == {"S1", "S2"}

    def test_answer_six_per_relation(self, engine):
        six_t1 = engine.answer_six(realestate.Q1)
        six_t2 = engine.answer_six(ebay.Q2_PRIME)
        assert len(six_t1) == len(six_t2) == 6
