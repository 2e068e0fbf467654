"""Tests for by-tuple AVG range (tight greedy vs the paper's sketch)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings

from repro.core.bytuple_avg import (
    _greedy_extreme_mean,
    by_tuple_range_avg,
    by_tuple_range_avg_counter_method,
)
from repro.core.naive import naive_by_tuple_answer
from repro.core.semantics import AggregateSemantics
from repro.sql.parser import parse_query
from tests.conftest import small_problems
from tests.test_bytuple_sum import _two_column_problem

AVG_WHERE = "SELECT AVG(value) FROM {t} WHERE value < {c}"


def _greedy(forced, optional, *, minimize):
    """The greedy over a forced list, reduced as the kernel reduces it."""
    return _greedy_extreme_mean(
        math.fsum(forced), len(forced), optional, minimize=minimize
    )


class TestGreedyExtremeMean:
    def test_forced_only(self):
        assert _greedy([2.0, 4.0], [], minimize=True) == 3.0

    def test_optional_below_mean_included(self):
        # forced mean 10; optional 4 pulls it to 7; optional 8 pulls to 7.33
        # so it is excluded when minimizing.
        assert _greedy([10.0], [4.0, 8.0], minimize=True) == 7.0

    def test_optional_chain(self):
        # 10, then 1 -> 5.5, then 2 < 5.5 -> (13/3) = 4.33...
        value = _greedy([10.0], [1.0, 2.0], minimize=True)
        assert value == pytest.approx(13.0 / 3.0)

    def test_no_forced_min_is_smallest_single(self):
        assert _greedy([], [3.0, 9.0], minimize=True) == 3.0

    def test_no_forced_max_is_largest_single(self):
        assert _greedy([], [3.0, 9.0], minimize=False) == 9.0

    def test_maximize_mirror(self):
        assert _greedy([2.0], [8.0, 5.0], minimize=False) == 5.0

    def test_nothing_available(self):
        assert _greedy([], [], minimize=True) is None


class TestRangeAvg:
    def test_all_forced(self):
        table, pm = _two_column_problem([(1.0, 3.0), (5.0, 7.0)])
        q = parse_query("SELECT AVG(value) FROM MED")
        answer = by_tuple_range_avg(table, pm, q)
        assert answer.as_tuple() == (3.0, 5.0)

    def test_counter_method_can_miss_achievable_average(self):
        # t1 forced with value 1; t2 optional with value 100.
        table, pm = _two_column_problem([(1.0, 1.0), (100.0, 200.0)])
        q = parse_query("SELECT AVG(value) FROM MED WHERE value < 150")
        tight = by_tuple_range_avg(table, pm, q)
        counter = by_tuple_range_avg_counter_method(table, pm, q)
        # Excluding t2 yields AVG = 1, which the tight bound must include.
        assert tight.low == pytest.approx(1.0)
        # The paper's counter sketch averages the two minima instead.
        assert counter.low == pytest.approx(50.5)
        assert tight.covers(counter) or counter.low > tight.low

    def test_counter_method_matches_when_all_forced(self):
        table, pm = _two_column_problem([(1.0, 3.0), (5.0, 7.0)])
        q = parse_query("SELECT AVG(value) FROM MED")
        assert by_tuple_range_avg(table, pm, q) == (
            by_tuple_range_avg_counter_method(table, pm, q)
        )

    def test_undefined_when_never_satisfiable(self):
        table, pm = _two_column_problem([(50.0, 60.0)])
        q = parse_query("SELECT AVG(value) FROM MED WHERE value < 10")
        assert not by_tuple_range_avg(table, pm, q).is_defined

    def test_grouped(self, ds2, pm2):
        q = parse_query("SELECT AVG(price) FROM T2 GROUP BY auctionID")
        answer = by_tuple_range_avg(ds2, pm2, q)
        assert answer[34].low == pytest.approx(931.94 / 4)
        assert answer[34].high == pytest.approx(1076.93 / 4)


class TestAgainstNaive:
    @settings(max_examples=60, deadline=None)
    @given(small_problems())
    def test_range_matches_naive(self, problem):
        query = problem.query(AVG_WHERE)
        fast = by_tuple_range_avg(problem.table, problem.pmapping, query)
        naive = naive_by_tuple_answer(
            problem.table, problem.pmapping, query, AggregateSemantics.RANGE
        )
        if naive.is_defined:
            assert fast.low == pytest.approx(naive.low)
            assert fast.high == pytest.approx(naive.high)
        else:
            assert not fast.is_defined

    @settings(max_examples=40, deadline=None)
    @given(small_problems())
    def test_counter_method_never_wider_than_tight(self, problem):
        query = problem.query(AVG_WHERE)
        tight = by_tuple_range_avg(problem.table, problem.pmapping, query)
        counter = by_tuple_range_avg_counter_method(
            problem.table, problem.pmapping, query
        )
        if tight.is_defined and counter.is_defined:
            assert tight.low <= counter.low + 1e-9
            assert counter.high <= tight.high + 1e-9
