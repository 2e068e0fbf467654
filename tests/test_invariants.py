"""Cross-cutting semantic invariants (DESIGN.md Section 4), property-based.

These tie the whole system together: for random small problems and every
aggregate operator, the six semantics must relate to each other exactly as
the paper's definitions dictate.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.core.answers import DistributionAnswer, RangeAnswer
from repro.core.engine import AggregationEngine
from repro.core.naive import naive_by_tuple_answer
from repro.core.semantics import AggregateSemantics, MappingSemantics
from repro.sql.ast import AggregateOp
from tests.conftest import small_problems

TEMPLATES = {
    AggregateOp.COUNT: "SELECT COUNT(*) FROM {t} WHERE value < {c}",
    AggregateOp.SUM: "SELECT SUM(value) FROM {t} WHERE value < {c}",
    AggregateOp.AVG: "SELECT AVG(value) FROM {t} WHERE value < {c}",
    AggregateOp.MIN: "SELECT MIN(value) FROM {t} WHERE value < {c}",
    AggregateOp.MAX: "SELECT MAX(value) FROM {t} WHERE value < {c}",
}


def _by_table(problem, op, semantics):
    engine = AggregationEngine([problem.table], problem.pmapping, vectorize=False)
    return engine.answer(
        problem.query(TEMPLATES[op]), MappingSemantics.BY_TABLE, semantics
    )


def _by_tuple_exact(problem, op, semantics):
    return naive_by_tuple_answer(
        problem.table, problem.pmapping, problem.query(TEMPLATES[op]), semantics
    )


class TestDistributionProjections:
    """Range and expected value are projections of the distribution."""

    @settings(max_examples=40, deadline=None)
    @given(small_problems())
    def test_by_table_projections(self, problem):
        for op in AggregateOp:
            distribution = _by_table(problem, op, AggregateSemantics.DISTRIBUTION)
            range_answer = _by_table(problem, op, AggregateSemantics.RANGE)
            expected = _by_table(problem, op, AggregateSemantics.EXPECTED_VALUE)
            assert distribution.to_range() == range_answer
            projected = distribution.to_expected_value()
            if expected.is_defined:
                assert projected.value == pytest.approx(expected.value)
            else:
                assert not projected.is_defined

    @settings(max_examples=25, deadline=None)
    @given(small_problems(max_tuples=5))
    def test_by_tuple_projections(self, problem):
        for op in AggregateOp:
            distribution = _by_tuple_exact(
                problem, op, AggregateSemantics.DISTRIBUTION
            )
            range_answer = _by_tuple_exact(problem, op, AggregateSemantics.RANGE)
            assert distribution.to_range() == range_answer


class TestByTableWithinByTuple:
    """Section IV-B: the by-table range is always inside the by-tuple range."""

    @settings(max_examples=40, deadline=None)
    @given(small_problems(max_tuples=5))
    def test_range_containment(self, problem):
        for op in AggregateOp:
            by_table = _by_table(problem, op, AggregateSemantics.RANGE)
            by_tuple = _by_tuple_exact(problem, op, AggregateSemantics.RANGE)
            assert isinstance(by_table, RangeAnswer)
            assert by_tuple.covers(by_table)

    @settings(max_examples=40, deadline=None)
    @given(small_problems(max_tuples=5))
    def test_by_table_support_within_by_tuple_support(self, problem):
        for op in AggregateOp:
            by_table = _by_table(problem, op, AggregateSemantics.DISTRIBUTION)
            by_tuple = _by_tuple_exact(
                problem, op, AggregateSemantics.DISTRIBUTION
            )
            if not by_table.is_defined:
                continue
            assert by_tuple.is_defined
            by_tuple_support = set(by_tuple.distribution.support)
            for value in by_table.distribution.support:
                assert any(
                    value == pytest.approx(v) for v in by_tuple_support
                )


class TestDistributionsAreProbabilities:
    @settings(max_examples=40, deadline=None)
    @given(small_problems(max_tuples=5))
    def test_masses_sum_to_one(self, problem):
        for op in AggregateOp:
            for compute in (_by_table, _by_tuple_exact):
                answer = compute(problem, op, AggregateSemantics.DISTRIBUTION)
                assert isinstance(answer, DistributionAnswer)
                if answer.is_defined:
                    total = sum(p for _, p in answer.distribution.items())
                    assert total == pytest.approx(1.0)
                assert 0.0 <= answer.undefined_probability <= 1.0

    @settings(max_examples=40, deadline=None)
    @given(small_problems(max_tuples=5))
    def test_expected_within_range(self, problem):
        for op in AggregateOp:
            distribution = _by_tuple_exact(
                problem, op, AggregateSemantics.DISTRIBUTION
            )
            if not distribution.is_defined:
                continue
            range_answer = distribution.to_range()
            expected = distribution.to_expected_value()
            assert range_answer.low - 1e-9 <= expected.value
            assert expected.value <= range_answer.high + 1e-9


class TestEngineMatchesReference:
    """The engine's dispatch returns the reference (naive) answers."""

    @settings(max_examples=20, deadline=None)
    @given(small_problems(max_tuples=5))
    def test_all_thirty_cells(self, problem):
        engine = AggregationEngine(
            [problem.table], problem.pmapping, allow_exponential=True
        )
        for op in AggregateOp:
            query = problem.query(TEMPLATES[op])
            for mapping_sem in MappingSemantics:
                for aggregate_sem in AggregateSemantics:
                    answer = engine.answer(query, mapping_sem, aggregate_sem)
                    if mapping_sem is MappingSemantics.BY_TABLE:
                        reference = _by_table(problem, op, aggregate_sem)
                    else:
                        reference = _by_tuple_exact(problem, op, aggregate_sem)
                    _assert_answers_match(answer, reference)


def _assert_answers_match(answer, reference):
    if isinstance(reference, RangeAnswer):
        if reference.is_defined:
            assert answer.low == pytest.approx(reference.low)
            assert answer.high == pytest.approx(reference.high)
        else:
            assert not answer.is_defined
    elif isinstance(reference, DistributionAnswer):
        assert answer.approx_equal(reference, 1e-9)
    else:
        if reference.is_defined:
            assert answer.value == pytest.approx(reference.value)
        else:
            assert not answer.is_defined
