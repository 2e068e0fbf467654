"""Tests for by-tuple MIN/MAX range (Figure 5, tightened)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.core.bytuple_minmax import range_max_kernel, range_min_kernel
from repro.core.common import run_possibly_grouped
from repro.core.naive import naive_by_tuple_answer
from repro.core.semantics import AggregateSemantics
from repro.sql.parser import parse_query
from tests.conftest import small_problems
from tests.test_bytuple_sum import _two_column_problem

MAX_WHERE = "SELECT MAX(value) FROM {t} WHERE value < {c}"
MIN_WHERE = "SELECT MIN(value) FROM {t} WHERE value < {c}"


class TestRangeMaxEdgeCases:
    def test_all_forced_matches_figure5(self):
        # Figure 5: [max of per-tuple minima, max of per-tuple maxima].
        table, pm = _two_column_problem([(5.0, 3.0), (10.0, 2.0)])
        q = parse_query("SELECT MAX(value) FROM MED")
        answer = run_possibly_grouped(table, pm, q, range_max_kernel)
        assert answer.as_tuple() == (3.0, 10.0)

    def test_optional_tuple_can_be_excluded(self):
        # t1 forced {5}; t2 optional {10 or excluded}: min achievable MAX
        # is 5 (exclude t2), which plain Figure 5 would miss.
        table, pm = _two_column_problem([(5.0, 5.0), (10.0, 200.0)])
        q = parse_query("SELECT MAX(value) FROM MED WHERE value < 100")
        answer = run_possibly_grouped(table, pm, q, range_max_kernel)
        assert answer.as_tuple() == (5.0, 10.0)

    def test_no_forced_tuples(self):
        # Both optional: the world can shrink to either single tuple.
        table, pm = _two_column_problem([(5.0, 200.0), (10.0, 200.0)])
        q = parse_query("SELECT MAX(value) FROM MED WHERE value < 100")
        answer = run_possibly_grouped(table, pm, q, range_max_kernel)
        assert answer.as_tuple() == (5.0, 10.0)

    def test_undefined(self):
        table, pm = _two_column_problem([(200.0, 300.0)])
        q = parse_query("SELECT MAX(value) FROM MED WHERE value < 100")
        assert not run_possibly_grouped(table, pm, q, range_max_kernel).is_defined

    def test_distinct_is_noop_for_max(self, ds2, pm2):
        plain = run_possibly_grouped(
            ds2, pm2, parse_query("SELECT MAX(price) FROM T2"), range_max_kernel
        )
        distinct = run_possibly_grouped(
            ds2,
            pm2,
            parse_query("SELECT MAX(DISTINCT price) FROM T2"),
            range_max_kernel,
        )
        assert plain == distinct


class TestRangeMinMirror:
    def test_all_forced(self):
        table, pm = _two_column_problem([(5.0, 3.0), (10.0, 2.0)])
        q = parse_query("SELECT MIN(value) FROM MED")
        answer = run_possibly_grouped(table, pm, q, range_min_kernel)
        assert answer.as_tuple() == (2.0, 5.0)

    def test_optional_exclusion_raises_min_upper_bound(self):
        # t1 forced {5}; t2 optional {1}: max achievable MIN is 5.
        table, pm = _two_column_problem([(5.0, 5.0), (1.0, 200.0)])
        q = parse_query("SELECT MIN(value) FROM MED WHERE value < 100")
        answer = run_possibly_grouped(table, pm, q, range_min_kernel)
        assert answer.as_tuple() == (1.0, 5.0)


class TestPaperAuctionWalkthrough:
    def test_auction_38(self, ds2, pm2):
        q = parse_query(
            "SELECT MAX(DISTINCT price) FROM T2 WHERE auctionID = 38"
        )
        answer = run_possibly_grouped(ds2, pm2, q, range_max_kernel)
        assert answer.low == pytest.approx(340.5)
        assert answer.high == pytest.approx(439.95)


class TestAgainstNaive:
    @settings(max_examples=60, deadline=None)
    @given(small_problems())
    def test_max_matches_naive(self, problem):
        query = problem.query(MAX_WHERE)
        fast = run_possibly_grouped(
            problem.table, problem.pmapping, query, range_max_kernel
        )
        naive = naive_by_tuple_answer(
            problem.table, problem.pmapping, query, AggregateSemantics.RANGE
        )
        if naive.is_defined:
            assert fast.low == pytest.approx(naive.low)
            assert fast.high == pytest.approx(naive.high)
        else:
            assert not fast.is_defined

    @settings(max_examples=60, deadline=None)
    @given(small_problems())
    def test_min_matches_naive(self, problem):
        query = problem.query(MIN_WHERE)
        fast = run_possibly_grouped(
            problem.table, problem.pmapping, query, range_min_kernel
        )
        naive = naive_by_tuple_answer(
            problem.table, problem.pmapping, query, AggregateSemantics.RANGE
        )
        if naive.is_defined:
            assert fast.low == pytest.approx(naive.low)
            assert fast.high == pytest.approx(naive.high)
        else:
            assert not fast.is_defined
