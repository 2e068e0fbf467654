"""The compile/plan/execute pipeline: prepared plans, caches, lanes.

Covers the pipeline's user-visible contract:

* ``engine.prepare(q).answer(cell)`` returns exactly what
  ``engine.answer(q, *cell)`` returns, for every tractable cell, on both
  paper datasets — re-execution included;
* seeded sampling is deterministic through a prepared plan;
* the compile/plan/prepared caches hit (same objects back) and the plan
  cache key separates semantics cells;
* ``ExecutionPlan.lane`` exposes the lane selection, which lives only in
  :meth:`repro.core.planner.Planner.plan` (the engine's old dispatch dict
  is gone);
* a closed SQLite engine refuses work with a clear error;
* ``answer_six`` parses a text query exactly once.
"""

from __future__ import annotations

import pytest

from repro.core import compile as compile_mod
from repro.core.answers import DistributionAnswer, RangeAnswer
from repro.core.engine import AggregationEngine
from repro.core.planner import Lane
from repro.core.semantics import AggregateSemantics, MappingSemantics
from repro.data import ebay, realestate
from repro.exceptions import (
    EngineClosedError,
    EvaluationError,
    IntractableError,
    StorageError,
)
from repro.sql.parser import parse_query

ALL_CELLS = [
    (msem, asem) for msem in MappingSemantics for asem in AggregateSemantics
]

QUERIES = [
    realestate.Q1,
    "SELECT SUM(listPrice) FROM T1",
    "SELECT AVG(listPrice) FROM T1 WHERE date < '2008-2-1'",
    "SELECT MAX(listPrice) FROM T1",
    "SELECT MIN(listPrice) FROM T1 WHERE date > '2008-1-10'",
]

EBAY_QUERIES = [
    ebay.Q2_PRIME,
    ebay.Q2,
    "SELECT COUNT(*) FROM T2 WHERE price > 100",
    "SELECT COUNT(*) FROM T2 WHERE price > 330 GROUP BY auctionID",
]


def _answers(engine, query, cell, **options):
    try:
        return ("ok", engine.answer(query, *cell, **options))
    except IntractableError as error:
        return ("intractable", str(error))


def _prepared_answers(engine, query, cell, **options):
    try:
        return ("ok", engine.prepare(query).answer(*cell, **options))
    except IntractableError as error:
        return ("intractable", str(error))


class TestPreparedMatchesAnswer:
    @pytest.mark.parametrize("query", QUERIES)
    @pytest.mark.parametrize("cell", ALL_CELLS)
    def test_realestate_all_cells(self, ds1, pm1, query, cell):
        oneshot = AggregationEngine([ds1], pm1, allow_exponential=True)
        prepared = AggregationEngine([ds1], pm1, allow_exponential=True)
        assert _prepared_answers(prepared, query, cell) == _answers(
            oneshot, query, cell
        )

    @pytest.mark.parametrize("query", EBAY_QUERIES)
    @pytest.mark.parametrize("cell", ALL_CELLS)
    def test_ebay_all_cells(self, ds2, pm2, query, cell):
        oneshot = AggregationEngine([ds2], pm2, allow_exponential=True)
        prepared = AggregationEngine([ds2], pm2, allow_exponential=True)
        assert _prepared_answers(prepared, query, cell) == _answers(
            oneshot, query, cell
        )

    @pytest.mark.parametrize("cell", ALL_CELLS)
    def test_reexecution_is_stable(self, ds1, pm1, cell):
        engine = AggregationEngine([ds1], pm1, allow_exponential=True)
        handle = engine.prepare(realestate.Q1)
        first = handle.answer(*cell)
        for _ in range(3):
            assert handle.answer(*cell) == first

    def test_generated_workload_consistency(self):
        table = realestate.generate_listings(60, seed=7)
        pmapping = realestate.paper_pmapping()
        oneshot = AggregationEngine([table], pmapping)
        prepared = AggregationEngine([table], pmapping)
        for query in QUERIES:
            for cell in [
                (MappingSemantics.BY_TUPLE, AggregateSemantics.RANGE),
                (MappingSemantics.BY_TABLE, AggregateSemantics.DISTRIBUTION),
            ]:
                assert _prepared_answers(prepared, query, cell) == _answers(
                    oneshot, query, cell
                )

    def test_answer_many_matches_individual(self, ds1, pm1):
        engine = AggregationEngine([ds1], pm1)
        batch = engine.answer_many(
            [realestate.Q1, "SELECT SUM(listPrice) FROM T1", realestate.Q1],
            "by-tuple",
            "range",
        )
        single = AggregationEngine([ds1], pm1)
        assert batch == [
            single.answer(realestate.Q1, "by-tuple", "range"),
            single.answer("SELECT SUM(listPrice) FROM T1", "by-tuple", "range"),
            single.answer(realestate.Q1, "by-tuple", "range"),
        ]


class TestSamplingDeterminism:
    def test_seeded_prepared_sampling_is_deterministic(self, ds2, pm2):
        engine = AggregationEngine([ds2], pm2, allow_sampling=True)
        handle = engine.prepare("SELECT AVG(price) FROM T2")
        cell = ("by-tuple", "distribution")
        first = handle.answer(*cell, samples=300, seed=42)
        assert handle.answer(*cell, samples=300, seed=42) == first

    def test_prepared_matches_oneshot_sampling(self, ds2, pm2):
        oneshot = AggregationEngine([ds2], pm2, allow_sampling=True)
        prepared = AggregationEngine([ds2], pm2, allow_sampling=True)
        query = "SELECT AVG(price) FROM T2"
        want = oneshot.answer(
            query, "by-tuple", "distribution", samples=300, seed=9
        )
        got = prepared.prepare(query).answer(
            "by-tuple", "distribution", samples=300, seed=9
        )
        assert isinstance(got, DistributionAnswer)
        assert got == want


class TestCaches:
    def test_second_prepare_returns_cached_handle(self, ds1, pm1):
        engine = AggregationEngine([ds1], pm1)
        assert engine.prepare(realestate.Q1) is engine.prepare(realestate.Q1)

    def test_plan_cache_hit_returns_same_plan(self, ds1, pm1):
        engine = AggregationEngine([ds1], pm1)
        first = engine.plan(realestate.Q1, "by-tuple", "range")
        assert engine.plan(realestate.Q1, "by-tuple", "range") is first

    def test_plan_cache_key_separates_cells(self, ds1, pm1):
        engine = AggregationEngine([ds1], pm1)
        range_plan = engine.plan(realestate.Q1, "by-tuple", "range")
        dist_plan = engine.plan(realestate.Q1, "by-tuple", "distribution")
        assert range_plan is not dist_plan
        assert range_plan.lane == dist_plan.lane == Lane.SCALAR

    def test_parsed_query_shares_cache_with_text(self, ds1, pm1):
        engine = AggregationEngine([ds1], pm1)
        parsed = parse_query(realestate.Q1)
        compiled = engine.compile(parsed)
        # The parsed query keys by its canonical SQL, so the same text (in
        # canonical form) hits the same compiled entry.
        assert engine.compile(parsed) is compiled

    def test_invalidate_drops_cached_state(self, ds1, pm1):
        engine = AggregationEngine([ds1], pm1)
        handle = engine.prepare(realestate.Q1)
        engine.context.invalidate()
        assert engine.prepare(realestate.Q1) is not handle

    def test_lru_evicts_oldest(self, ds1, pm1):
        engine = AggregationEngine([ds1], pm1)
        engine.context.cache_size = 2
        first = engine.compile(realestate.Q1)
        engine.compile("SELECT SUM(listPrice) FROM T1")
        engine.compile("SELECT MAX(listPrice) FROM T1")
        assert engine.compile(realestate.Q1) is not first

    def test_prepared_pins_vectors_after_answer(self, ds1, pm1):
        # With a columnar snapshot the arrays answer instead of a row walk.
        engine = AggregationEngine([ds1], pm1, vectorize=False)
        handle = engine.prepare(realestate.Q1)
        assert not handle.compiled.prepared().is_materialized
        handle.answer("by-tuple", "range")
        assert handle.compiled.prepared().is_materialized


class TestLanes:
    def test_by_table_lane(self, ds1, pm1):
        engine = AggregationEngine([ds1], pm1)
        assert engine.plan(realestate.Q1, "by-table", "range").lane == Lane.BY_TABLE

    def test_scalar_lane(self, ds1, pm1):
        engine = AggregationEngine([ds1], pm1)
        plan = engine.plan(realestate.Q1, "by-tuple", "range")
        assert plan.lane == Lane.SCALAR
        assert plan.fallback_chain == [Lane.SCALAR]

    def test_one_ptime_lane_with_or_without_columnar(self, ds1, pm1):
        for vectorize in (False, True):
            engine = AggregationEngine([ds1], pm1, vectorize=vectorize)
            plan = engine.plan(realestate.Q1, "by-tuple", "range")
            assert plan.lane == Lane.SCALAR
            assert plan.fallback_chain == [Lane.SCALAR]
            assert plan.answer() == RangeAnswer(1, 3)

    def test_sampling_lane_for_open_cell(self, ds1, pm1):
        engine = AggregationEngine([ds1], pm1, allow_sampling=True)
        plan = engine.plan("SELECT AVG(listPrice) FROM T1", "by-tuple", "distribution")
        assert plan.lane == Lane.SAMPLING

    def test_naive_lane_for_open_cell(self, ds1, pm1):
        engine = AggregationEngine([ds1], pm1, allow_exponential=True)
        plan = engine.plan("SELECT AVG(listPrice) FROM T1", "by-tuple", "distribution")
        assert plan.lane == Lane.NAIVE

    def test_extension_lane(self, ds1, pm1):
        engine = AggregationEngine([ds1], pm1, use_extensions=True)
        plan = engine.plan("SELECT MAX(listPrice) FROM T1", "by-tuple", "distribution")
        assert plan.lane == Lane.EXTENSION

    def test_nested_range_lane(self, ds2, pm2):
        engine = AggregationEngine([ds2], pm2)
        plan = engine.plan(ebay.Q2, "by-tuple", "range")
        assert plan.lane == Lane.NESTED_RANGE
        assert plan.inner_plan is not None
        assert plan.inner_plan.lane == Lane.SCALAR

    def test_nested_compose_lane_with_fallback(self, ds2, pm2):
        engine = AggregationEngine(
            [ds2], pm2, use_extensions=True, allow_sampling=True
        )
        plan = engine.plan(ebay.Q2, "by-tuple", "distribution")
        assert plan.lane == Lane.NESTED_COMPOSE
        assert plan.fallback_chain == [Lane.NESTED_COMPOSE, Lane.SAMPLING]

    def test_intractable_cell_raises_at_plan_time(self, ds1, pm1):
        engine = AggregationEngine([ds1], pm1)
        with pytest.raises(IntractableError):
            engine.plan("SELECT AVG(listPrice) FROM T1", "by-tuple", "distribution")

    def test_engine_dispatch_dict_is_gone(self):
        # Lane selection lives only in Planner.plan now.
        assert not hasattr(AggregationEngine, "_answer_nested_by_tuple")


class TestClosedEngine:
    def test_sqlite_answer_after_close(self, ds1, pm1):
        engine = AggregationEngine([ds1], pm1, backend="sqlite")
        engine.close()
        with pytest.raises(EvaluationError, match="engine is closed"):
            engine.answer(realestate.Q1, "by-table", "range")

    def test_sqlite_prepare_after_close(self, ds1, pm1):
        engine = AggregationEngine([ds1], pm1, backend="sqlite")
        engine.close()
        with pytest.raises(EvaluationError, match="engine is closed"):
            engine.prepare(realestate.Q1)

    def test_prepared_handle_refuses_after_close(self, ds1, pm1):
        engine = AggregationEngine([ds1], pm1, backend="sqlite")
        handle = engine.prepare(realestate.Q1)
        engine.close()
        with pytest.raises(EvaluationError, match="engine is closed"):
            handle.answer("by-table", "range")

    def test_closed_error_is_also_a_storage_error(self, ds1, pm1):
        engine = AggregationEngine([ds1], pm1, backend="sqlite")
        engine.close()
        with pytest.raises(StorageError):
            engine.answer(realestate.Q1, "by-table", "range")
        with pytest.raises(EngineClosedError):
            engine.answer(realestate.Q1, "by-table", "range")

    def test_memory_engine_keeps_answering_after_close(self, ds1, pm1):
        engine = AggregationEngine([ds1], pm1, backend="memory")
        engine.close()
        assert engine.answer(realestate.Q1, "by-tuple", "range") == RangeAnswer(1, 3)


class TestParseOnce:
    def test_answer_six_parses_exactly_once(self, ds1, pm1, monkeypatch):
        calls = []
        real_parse = compile_mod.parse_query

        def counting_parse(text):
            calls.append(text)
            return real_parse(text)

        monkeypatch.setattr(compile_mod, "parse_query", counting_parse)
        engine = AggregationEngine([ds1], pm1)
        results = engine.answer_six(realestate.Q1)
        assert len(results) == 6
        assert calls == [realestate.Q1]

    def test_repeated_answer_parses_once(self, ds1, pm1, monkeypatch):
        calls = []
        real_parse = compile_mod.parse_query

        def counting_parse(text):
            calls.append(text)
            return real_parse(text)

        monkeypatch.setattr(compile_mod, "parse_query", counting_parse)
        engine = AggregationEngine([ds1], pm1)
        for _ in range(5):
            engine.answer(realestate.Q1, "by-tuple", "range")
        assert calls == [realestate.Q1]

    def test_answer_six_matches_cell_by_cell(self, ds1, pm1):
        six = AggregationEngine([ds1], pm1, allow_exponential=True).answer_six(
            realestate.Q1
        )
        oneshot = AggregationEngine([ds1], pm1, allow_exponential=True)
        for cell in ALL_CELLS:
            assert six[cell] == oneshot.answer(realestate.Q1, *cell)
