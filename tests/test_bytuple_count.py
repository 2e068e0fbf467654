"""Tests for by-tuple COUNT (Figures 2-3) including naive cross-checks."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro import Budget, BudgetExceededError
from repro.core import guard as guardmod
from repro.core.answers import GroupedAnswer
from repro.core.bytuple_count import (
    count_distribution_dp,
    distribution_count_kernel,
    dp_expected_count_kernel,
    expected_count_kernel,
    range_count_kernel,
)
from repro.core.common import run_possibly_grouped
from repro.core.naive import naive_by_tuple_answer
from repro.core.semantics import AggregateSemantics
from repro.exceptions import EvaluationError
from repro.obs import metrics
from repro.prob.distribution import DiscreteDistribution
from repro.sql.parser import parse_query
from tests.conftest import small_problems

COUNT_QUERY = "SELECT COUNT(*) FROM {t} WHERE value < {c}"


class TestCountDistributionDP:
    def test_poisson_binomial_two_tuples(self):
        d = count_distribution_dp([0.5, 0.5])
        assert d.probability_of(0) == pytest.approx(0.25)
        assert d.probability_of(1) == pytest.approx(0.5)
        assert d.probability_of(2) == pytest.approx(0.25)

    def test_certain_tuples_shift(self):
        d = count_distribution_dp([1.0, 1.0, 0.0])
        assert d.support == (2,)

    def test_empty_input(self):
        d = count_distribution_dp([])
        assert d.support == (0,)

    def test_rejects_bad_probability(self):
        with pytest.raises(EvaluationError):
            count_distribution_dp([1.5])

    def test_expected_value_is_sum_of_probabilities(self):
        occurrences = [0.1, 0.7, 0.3, 0.9]
        d = count_distribution_dp(occurrences)
        assert d.expected_value() == pytest.approx(sum(occurrences))

    def test_live_window_fold_is_bit_identical(self):
        # Certain rows zero the low end of the table and the 0.01/0.99
        # rows underflow both tails, so the fold trims its live window
        # many times; the untrimmed Figure 3 DP must agree exactly.
        occurrences = [1.0] * 40 + [0.01, 0.99, 0.0, 0.5] * 150

        untrimmed = [1.0]
        for occ in occurrences:
            if occ > 0.0:
                previous = untrimmed
                untrimmed = [previous[0] * (1.0 - occ)]
                for j in range(1, len(previous)):
                    untrimmed.append(
                        previous[j] * (1.0 - occ) + previous[j - 1] * occ
                    )
                untrimmed.append(previous[-1] * occ)

        trace: list[dict] = []
        d = count_distribution_dp(occurrences, trace=trace)
        assert untrimmed[0] == untrimmed[-1] == 0.0
        assert d == DiscreteDistribution(
            (count, p) for count, p in enumerate(untrimmed) if p > 0.0
        )
        assert trace[-1]["probabilities"] == untrimmed

    def test_live_window_keeps_full_width_accounting(self):
        # The trimmed fold still accounts for the whole Figure 3 table:
        # one row per tuple, widening by one column per qualifying tuple.
        occurrences = [1.0] * 40 + [0.01, 0.99, 0.0, 0.5] * 150
        qualifying = sum(1 for occ in occurrences if occ > 0.0)
        registry = metrics.MetricsRegistry()
        with metrics.use_registry(registry):
            count_distribution_dp(occurrences)
        snapshot = registry.snapshot()
        assert snapshot["count_dp.rows"] == len(occurrences)
        assert snapshot["count_dp.cells"] == sum(range(2, qualifying + 2))
        assert snapshot["count_dp.width"]["max"] == qualifying + 1

    def test_live_window_support_budget_counts_full_width(self):
        # After 40 certain rows the live window is one cell wide, but the
        # support budget bounds the table's full width.
        with guardmod.guarded(Budget(max_support=40)):
            with pytest.raises(BudgetExceededError) as info:
                count_distribution_dp([1.0] * 50)
        assert info.value.resource == "support"
        assert info.value.limit == 40
        assert info.value.used == 41

    def test_trace_records_every_step(self):
        trace: list[dict] = []
        count_distribution_dp([0.5, 0.25], trace=trace)
        assert len(trace) == 2
        assert sum(trace[-1]["probabilities"]) == pytest.approx(1.0)


class TestGroupedCount:
    def test_grouped_range(self, ds2, pm2):
        q = parse_query(
            "SELECT COUNT(*) FROM T2 WHERE price > 330 GROUP BY auctionID"
        )
        answer = run_possibly_grouped(ds2, pm2, q, range_count_kernel)
        assert isinstance(answer, GroupedAnswer)
        # auction 34: bids>330: t3,t4; currentPrice>330: t4 only.
        assert answer[34].as_tuple() == (1, 2)
        # auction 38: bids>330: all 4; currentPrice>330: 3 of 4.
        assert answer[38].as_tuple() == (3, 4)

    def test_grouped_distribution_sums_to_one(self, ds2, pm2):
        q = parse_query(
            "SELECT COUNT(*) FROM T2 WHERE price > 330 GROUP BY auctionID"
        )
        answer = run_possibly_grouped(ds2, pm2, q, distribution_count_kernel)
        for _, group_answer in answer:
            total = sum(p for _, p in group_answer.distribution.items())
            assert total == pytest.approx(1.0)

    def test_grouped_expected(self, ds2, pm2):
        q = parse_query(
            "SELECT COUNT(*) FROM T2 WHERE price > 330 GROUP BY auctionID"
        )
        answer = run_possibly_grouped(ds2, pm2, q, dp_expected_count_kernel)
        assert answer[34].value == pytest.approx(0.3 * 2 + 0.7 * 1)


class TestAgainstNaive:
    @settings(max_examples=60, deadline=None)
    @given(small_problems())
    def test_range_matches_naive(self, problem):
        query = problem.query(COUNT_QUERY)
        fast = run_possibly_grouped(
            problem.table, problem.pmapping, query, range_count_kernel
        )
        naive = naive_by_tuple_answer(
            problem.table, problem.pmapping, query, AggregateSemantics.RANGE
        )
        assert fast == naive

    @settings(max_examples=60, deadline=None)
    @given(small_problems())
    def test_distribution_matches_naive(self, problem):
        query = problem.query(COUNT_QUERY)
        fast = run_possibly_grouped(
            problem.table, problem.pmapping, query, distribution_count_kernel
        )
        naive = naive_by_tuple_answer(
            problem.table, problem.pmapping, query,
            AggregateSemantics.DISTRIBUTION,
        )
        assert fast.approx_equal(naive, 1e-9)

    @settings(max_examples=40, deadline=None)
    @given(small_problems())
    def test_expected_methods_agree(self, problem):
        query = problem.query(COUNT_QUERY)
        via_dp = run_possibly_grouped(
            problem.table, problem.pmapping, query, dp_expected_count_kernel
        )
        via_linear = run_possibly_grouped(
            problem.table, problem.pmapping, query, expected_count_kernel
        )
        assert via_dp.value == pytest.approx(via_linear.value, abs=1e-9)


class TestCountOfColumn:
    def test_count_argument_skips_nulls(self, pm1, ds1):
        # COUNT(date): under m11 counts non-null postedDate, etc.
        from repro.storage.table import Table

        table = Table(ds1.relation, list(ds1.rows))
        table.append((5, 1.0, "000", None, None))
        q = parse_query("SELECT COUNT(date) FROM T1")
        answer = run_possibly_grouped(table, pm1, q, range_count_kernel)
        # The new tuple has NULL under both mappings: it never counts.
        assert answer.as_tuple() == (4, 4)
