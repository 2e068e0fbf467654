"""Tests for the planner and the Figure 6 matrix (:mod:`repro.core.planner`)."""

from __future__ import annotations

import pytest

from repro import AggregationEngine
from repro.core.answers import DistributionAnswer, RangeAnswer
from repro.core.planner import (
    Complexity,
    Lane,
    Planner,
    complexity_matrix,
    format_complexity_matrix,
)
from repro.core.semantics import AggregateSemantics, MappingSemantics
from repro.data import realestate
from repro.exceptions import IntractableError
from repro.sql.ast import AggregateOp


class TestComplexityMatrix:
    def test_thirty_cells(self):
        assert len(complexity_matrix()) == 5 * 2 * 3

    def test_returns_a_copy(self):
        cell = (AggregateOp.SUM, MappingSemantics.BY_TUPLE,
                AggregateSemantics.DISTRIBUTION)
        matrix = complexity_matrix()
        matrix[cell] = "tampered"
        assert complexity_matrix()[cell] == Complexity.OPEN
        assert Planner().complexity_of(*cell) == Complexity.OPEN

    def test_by_table_always_ptime(self):
        matrix = complexity_matrix()
        for op in AggregateOp:
            for sem in AggregateSemantics:
                assert matrix[(op, MappingSemantics.BY_TABLE, sem)] == (
                    Complexity.PTIME
                )

    def test_figure6_by_tuple_row(self):
        matrix = complexity_matrix()
        bt = MappingSemantics.BY_TUPLE
        R, D, E = AggregateSemantics.RANGE, AggregateSemantics.DISTRIBUTION, \
            AggregateSemantics.EXPECTED_VALUE
        assert matrix[(AggregateOp.COUNT, bt, R)] == Complexity.PTIME
        assert matrix[(AggregateOp.COUNT, bt, D)] == Complexity.PTIME
        assert matrix[(AggregateOp.COUNT, bt, E)] == Complexity.PTIME
        assert matrix[(AggregateOp.SUM, bt, R)] == Complexity.PTIME
        assert matrix[(AggregateOp.SUM, bt, D)] == Complexity.OPEN
        assert matrix[(AggregateOp.SUM, bt, E)] == Complexity.PTIME
        for op in (AggregateOp.AVG, AggregateOp.MIN, AggregateOp.MAX):
            assert matrix[(op, bt, R)] == Complexity.PTIME
            assert matrix[(op, bt, D)] == Complexity.OPEN
            assert matrix[(op, bt, E)] == Complexity.OPEN

    def test_format_contains_all_operators(self):
        text = format_complexity_matrix()
        for op in AggregateOp:
            assert op.value in text


class TestPlannerPolicy:
    def test_ptime_cells_always_served(self):
        planner = Planner()
        spec = planner.algorithm_for(
            AggregateOp.COUNT, MappingSemantics.BY_TUPLE,
            AggregateSemantics.DISTRIBUTION,
        )
        assert spec.name == "ByTuplePDCOUNT"
        assert spec.complexity == Complexity.PTIME

    def test_by_table_always_served(self):
        planner = Planner()
        spec = planner.algorithm_for(
            AggregateOp.AVG, MappingSemantics.BY_TABLE,
            AggregateSemantics.DISTRIBUTION,
        )
        assert spec.name == "ByTableAggregateQuery"

    def test_theorem4_cell(self):
        spec = Planner().algorithm_for(
            AggregateOp.SUM, MappingSemantics.BY_TUPLE,
            AggregateSemantics.EXPECTED_VALUE,
        )
        assert spec.name == "ByTupleExpValSUM"
        assert "Theorem 4" in spec.paper_reference

    def test_open_cell_rejected_by_default(self):
        with pytest.raises(IntractableError, match="Figure 6"):
            Planner().algorithm_for(
                AggregateOp.AVG, MappingSemantics.BY_TUPLE,
                AggregateSemantics.DISTRIBUTION,
            )

    def test_open_cell_with_exponential(self):
        planner = Planner(allow_exponential=True)
        spec = planner.algorithm_for(
            AggregateOp.AVG, MappingSemantics.BY_TUPLE,
            AggregateSemantics.DISTRIBUTION,
        )
        assert spec.name == "NaiveSequenceEnumeration"
        assert spec.exact

    def test_open_cell_with_sampling(self):
        planner = Planner(allow_sampling=True)
        spec = planner.algorithm_for(
            AggregateOp.AVG, MappingSemantics.BY_TUPLE,
            AggregateSemantics.EXPECTED_VALUE,
        )
        assert spec.name == "MonteCarloSampling"
        assert not spec.exact

    def test_exponential_preferred_over_sampling(self):
        planner = Planner(allow_exponential=True, allow_sampling=True)
        spec = planner.algorithm_for(
            AggregateOp.MAX, MappingSemantics.BY_TUPLE,
            AggregateSemantics.DISTRIBUTION,
        )
        assert spec.name == "NaiveSequenceEnumeration"

    def test_extensions_cover_minmax_only(self):
        planner = Planner(use_extensions=True)
        spec = planner.algorithm_for(
            AggregateOp.MAX, MappingSemantics.BY_TUPLE,
            AggregateSemantics.DISTRIBUTION,
        )
        assert "Exact" in spec.name
        with pytest.raises(IntractableError):
            planner.algorithm_for(
                AggregateOp.AVG, MappingSemantics.BY_TUPLE,
                AggregateSemantics.DISTRIBUTION,
            )

    def test_complexity_of(self):
        planner = Planner()
        assert planner.complexity_of(
            AggregateOp.SUM, MappingSemantics.BY_TUPLE,
            AggregateSemantics.DISTRIBUTION,
        ) == Complexity.OPEN


class TestEngineAnswersOpenCells:
    """The planner's policy flags reach answers through the engine."""

    def test_all_q1_count_cells_answer_with_exponential(self):
        # Paper Table III (by-table range as in Table I; see EXPERIMENTS.md).
        expected = {
            ("by-table", "range"): RangeAnswer(1, 3),
            ("by-table", "distribution"): {1: 0.4, 3: 0.6},
            ("by-table", "expected-value"): 2.2,
            ("by-tuple", "range"): RangeAnswer(1, 3),
            ("by-tuple", "distribution"): {1: 0.16, 2: 0.48, 3: 0.36},
            ("by-tuple", "expected-value"): 2.2,
        }
        engine = AggregationEngine(
            [realestate.paper_instance()],
            realestate.paper_pmapping(),
            allow_exponential=True,
        )
        for mapping_sem in MappingSemantics:
            for aggregate_sem in AggregateSemantics:
                answer = engine.answer(realestate.Q1, mapping_sem, aggregate_sem)
                want = expected[(mapping_sem.value, aggregate_sem.value)]
                if aggregate_sem is AggregateSemantics.RANGE:
                    assert answer == want
                elif aggregate_sem is AggregateSemantics.DISTRIBUTION:
                    assert answer.distribution.as_dict() == pytest.approx(want)
                else:
                    assert answer.value == pytest.approx(want)

    def test_max_distribution_answers_with_sampling(self):
        query = "SELECT MAX(listPrice) FROM T1"
        engine = AggregationEngine(
            [realestate.paper_instance()],
            realestate.paper_pmapping(),
            allow_sampling=True,
            samples=200,
            seed=0,
        )
        plan = engine.plan(query, "by-tuple", "distribution")
        assert plan.lane == Lane.SAMPLING
        answer = plan.answer()
        assert isinstance(answer, DistributionAnswer)
        assert sum(p for _, p in answer.distribution.items()) == pytest.approx(1.0)
        exact = RangeAnswer(*engine.answer(query, "by-tuple", "range").as_tuple())
        assert exact.contains(answer.distribution.min())
        assert exact.contains(answer.distribution.max())
        assert engine.answer(query, "by-tuple", "distribution") == answer
