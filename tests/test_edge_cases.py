"""Edge cases and failure injection across subsystems."""

from __future__ import annotations

import pytest

from repro.core.engine import AggregationEngine
from repro.core.naive import iter_sequence_results, sequence_count
from repro.data import ebay, realestate
from repro.exceptions import EvaluationError, StorageError
from repro.schema.mapping import PMapping
from repro.storage.table import Table


class TestEmptyTables:
    @pytest.fixture
    def empty_engine(self, pm1):
        empty = Table(realestate.S1_RELATION)
        return AggregationEngine([empty], pm1, allow_exponential=True)

    def test_count_over_empty_table(self, empty_engine):
        for mapping_sem in ("by-table", "by-tuple"):
            answer = empty_engine.answer(realestate.Q1, mapping_sem, "range")
            assert answer.as_tuple() == (0, 0)

    def test_count_distribution_over_empty_table(self, empty_engine):
        answer = empty_engine.answer(
            realestate.Q1, "by-tuple", "distribution"
        )
        assert answer.distribution.support == (0,)

    def test_value_aggregates_undefined_over_empty_table(self, empty_engine):
        for aggregate in ("SUM", "AVG", "MIN", "MAX"):
            answer = empty_engine.answer(
                f"SELECT {aggregate}(listPrice) FROM T1", "by-tuple", "range"
            )
            assert not answer.is_defined

    def test_by_table_over_empty_table(self, empty_engine):
        answer = empty_engine.answer(
            "SELECT MAX(listPrice) FROM T1", "by-table", "distribution"
        )
        assert not answer.is_defined

    def test_grouped_over_empty_table(self, empty_engine):
        answer = empty_engine.answer(
            "SELECT MAX(listPrice) FROM T1 GROUP BY propertyID",
            "by-table",
            "range",
        )
        # No rows, no groups.
        assert len(getattr(answer, "groups", {})) == 0


class TestSingleMapping:
    def test_degenerate_pmapping_behaves_certainly(self, ds1):
        pm = PMapping(
            realestate.S1_RELATION,
            realestate.T1_RELATION,
            [(realestate.mapping_m11(), 1.0)],
        )
        engine = AggregationEngine([ds1], pm, allow_exponential=True)
        six = engine.answer_six(realestate.Q1)
        values = set()
        for answer in six.values():
            if hasattr(answer, "as_tuple"):
                assert answer.as_tuple() == (3, 3)
            elif hasattr(answer, "distribution"):
                assert answer.distribution.support == (3,)
            else:
                values.add(answer.value)
        assert values == {3}


class TestSequenceBudgetBoundary:
    def test_exactly_at_limit_allowed(self, ds1, pm1, q1):
        exact = sequence_count(ds1, pm1)
        results = list(
            iter_sequence_results(ds1, pm1, q1, max_sequences=exact)
        )
        assert len(results) == exact

    def test_one_below_limit_rejected(self, ds1, pm1, q1):
        exact = sequence_count(ds1, pm1)
        with pytest.raises(EvaluationError):
            list(iter_sequence_results(ds1, pm1, q1, max_sequences=exact - 1))


class TestBackendFailureInjection:
    def test_sqlite_engine_after_close_raises_storage_error(self, ds1, pm1):
        engine = AggregationEngine([ds1], pm1, backend="sqlite")
        engine.close()
        with pytest.raises(StorageError):
            engine.answer(realestate.Q1, "by-table", "range")

    def test_memory_engine_unaffected_by_close(self, ds1, pm1):
        engine = AggregationEngine([ds1], pm1, backend="memory")
        engine.close()
        answer = engine.answer(realestate.Q1, "by-table", "range")
        assert answer.as_tuple() == (1, 3)


class TestExtremeProbabilities:
    def test_near_zero_probability_mapping(self, ds2):
        pm = ebay.paper_pmapping(p_bid=1e-9, p_current=1.0 - 1e-9)
        engine = AggregationEngine([ds2], pm)
        answer = engine.answer(ebay.Q2_PRIME, "by-tuple", "expected-value")
        assert answer.value == pytest.approx(931.94, abs=0.01)

    def test_range_ignores_probabilities(self, ds2):
        # Ranges cover every possible world regardless of its likelihood.
        skewed = ebay.paper_pmapping(p_bid=1e-9, p_current=1.0 - 1e-9)
        balanced = ebay.paper_pmapping(p_bid=0.5, p_current=0.5)
        a = AggregationEngine([ds2], skewed).answer(
            ebay.Q2_PRIME, "by-tuple", "range"
        )
        b = AggregationEngine([ds2], balanced).answer(
            ebay.Q2_PRIME, "by-tuple", "range"
        )
        assert a == b
