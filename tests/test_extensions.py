"""Tests for the exact by-tuple MIN/MAX distributions (beyond the paper)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.core.answers import DistributionAnswer, project
from repro.core.common import run_possibly_grouped
from repro.core.extensions import max_distribution_kernel, min_distribution_kernel
from repro.core.naive import naive_by_tuple_answer
from repro.core.semantics import AggregateSemantics
from repro.sql.parser import parse_query
from tests.conftest import small_problems
from tests.test_bytuple_sum import _two_column_problem

MAX_WHERE = "SELECT MAX(value) FROM {t} WHERE value < {c}"
MIN_WHERE = "SELECT MIN(value) FROM {t} WHERE value < {c}"


class TestSmallCases:
    def test_single_tuple_two_values(self):
        table, pm = _two_column_problem([(5.0, 9.0)], p1=0.3)
        q = parse_query("SELECT MAX(value) FROM MED")
        answer = run_possibly_grouped(table, pm, q, max_distribution_kernel)
        assert answer.distribution.probability_of(5.0) == pytest.approx(0.3)
        assert answer.distribution.probability_of(9.0) == pytest.approx(0.7)

    def test_two_tuples_independent(self):
        table, pm = _two_column_problem([(1.0, 3.0), (2.0, 4.0)], p1=0.5)
        q = parse_query("SELECT MAX(value) FROM MED")
        answer = run_possibly_grouped(table, pm, q, max_distribution_kernel)
        # MAX=2 only for (1, 2): prob 0.25; MAX=3 for (3, 2): 0.25;
        # MAX=4 whenever t2 -> 4: 0.5.
        assert answer.distribution.probability_of(2.0) == pytest.approx(0.25)
        assert answer.distribution.probability_of(3.0) == pytest.approx(0.25)
        assert answer.distribution.probability_of(4.0) == pytest.approx(0.5)

    def test_undefined_mass(self):
        table, pm = _two_column_problem([(5.0, 50.0)], p1=0.4)
        q = parse_query("SELECT MAX(value) FROM MED WHERE value < 10")
        answer = run_possibly_grouped(table, pm, q, max_distribution_kernel)
        assert answer.undefined_probability == pytest.approx(0.6)
        assert answer.distribution.probability_of(5.0) == pytest.approx(1.0)

    def test_fully_undefined(self):
        table, pm = _two_column_problem([(50.0, 60.0)])
        q = parse_query("SELECT MAX(value) FROM MED WHERE value < 10")
        answer = run_possibly_grouped(table, pm, q, max_distribution_kernel)
        assert not answer.is_defined

    def test_min_mirror(self):
        table, pm = _two_column_problem([(1.0, 3.0), (2.0, 4.0)], p1=0.5)
        q = parse_query("SELECT MIN(value) FROM MED")
        answer = run_possibly_grouped(table, pm, q, min_distribution_kernel)
        # MIN=1 whenever t1 -> 1: 0.5; MIN=2 for (3, 2): 0.25; MIN=3 for
        # (3, 4): 0.25.
        assert answer.distribution.probability_of(1.0) == pytest.approx(0.5)
        assert answer.distribution.probability_of(2.0) == pytest.approx(0.25)
        assert answer.distribution.probability_of(3.0) == pytest.approx(0.25)


class TestAgainstNaive:
    @settings(max_examples=60, deadline=None)
    @given(small_problems())
    def test_max_distribution_matches_naive(self, problem):
        query = problem.query(MAX_WHERE)
        exact = run_possibly_grouped(
            problem.table, problem.pmapping, query, max_distribution_kernel
        )
        naive = naive_by_tuple_answer(
            problem.table, problem.pmapping, query,
            AggregateSemantics.DISTRIBUTION,
        )
        assert isinstance(exact, DistributionAnswer)
        assert exact.approx_equal(naive, 1e-9)

    @settings(max_examples=60, deadline=None)
    @given(small_problems())
    def test_min_distribution_matches_naive(self, problem):
        query = problem.query(MIN_WHERE)
        exact = run_possibly_grouped(
            problem.table, problem.pmapping, query, min_distribution_kernel
        )
        naive = naive_by_tuple_answer(
            problem.table, problem.pmapping, query,
            AggregateSemantics.DISTRIBUTION,
        )
        assert exact.approx_equal(naive, 1e-9)

    @settings(max_examples=40, deadline=None)
    @given(small_problems())
    def test_expected_max_matches_naive(self, problem):
        query = problem.query(MAX_WHERE)
        exact = project(
            run_possibly_grouped(
                problem.table, problem.pmapping, query, max_distribution_kernel
            ),
            AggregateSemantics.EXPECTED_VALUE,
        )
        naive = naive_by_tuple_answer(
            problem.table, problem.pmapping, query,
            AggregateSemantics.EXPECTED_VALUE,
        )
        if naive.is_defined:
            assert exact.value == pytest.approx(naive.value, abs=1e-9)
        else:
            assert not exact.is_defined


class TestProjection:
    def test_range_projection_matches_range_algorithm(self, ds2, pm2):
        from repro.core.bytuple_minmax import range_max_kernel

        q = parse_query("SELECT MAX(price) FROM T2 WHERE auctionID = 38")
        via_extension = project(
            run_possibly_grouped(ds2, pm2, q, max_distribution_kernel),
            AggregateSemantics.RANGE,
        )
        via_figure5 = run_possibly_grouped(ds2, pm2, q, range_max_kernel)
        assert via_extension == via_figure5

    def test_grouped(self, ds2, pm2):
        q = parse_query("SELECT MAX(price) FROM T2 GROUP BY auctionID")
        answer = project(
            run_possibly_grouped(ds2, pm2, q, max_distribution_kernel),
            AggregateSemantics.DISTRIBUTION,
        )
        assert answer[34].distribution.probability_of(349.99) == pytest.approx(0.3)
