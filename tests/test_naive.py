"""Tests for the naive sequence enumeration (:mod:`repro.core.naive`)."""

from __future__ import annotations

import pytest

from repro.core.answers import DistributionAnswer, GroupedAnswer
from repro.core.naive import (
    iter_sequence_results,
    naive_by_tuple_answer,
    naive_by_tuple_distribution,
    sequence_count,
)
from repro.core.semantics import AggregateSemantics
from repro.exceptions import EvaluationError, UnsupportedQueryError
from repro.sql.parser import parse_query
from tests.test_bytuple_sum import _two_column_problem


class TestSequenceEnumeration:
    def test_sequence_count(self, ds1, pm1):
        assert sequence_count(ds1, pm1) == 2 ** 4

    def test_probabilities_sum_to_one(self, ds1, q1, pm1):
        total = sum(p for _, _, p in iter_sequence_results(ds1, pm1, q1))
        assert total == pytest.approx(1.0)

    def test_budget_guard(self, ds2, q2_prime, pm2):
        with pytest.raises(EvaluationError, match="sequences"):
            list(
                iter_sequence_results(ds2, pm2, q2_prime, max_sequences=10)
            )

    def test_wrong_relation_rejected(self, ds2, pm2):
        q = parse_query("SELECT COUNT(*) FROM Other")
        with pytest.raises(UnsupportedQueryError, match="targets"):
            list(iter_sequence_results(ds2, pm2, q))

    def test_unmapped_target_attributes_are_null(self, ds1, pm1):
        # `comments` has no correspondence: COUNT(comments) is 0 in every
        # possible world.
        q = parse_query("SELECT COUNT(comments) FROM T1")
        answer = naive_by_tuple_distribution(ds1, pm1, q)
        assert answer.distribution.support == (0,)


class TestDistribution:
    def test_scalar_undefined_mass(self):
        # One tuple, qualifies under m1 only: half the worlds have no
        # qualifying tuple, so MAX is undefined there.
        table, pm = _two_column_problem([(5.0, 50.0)], p1=0.5)
        q = parse_query("SELECT MAX(value) FROM MED WHERE value < 10")
        answer = naive_by_tuple_distribution(table, pm, q)
        assert isinstance(answer, DistributionAnswer)
        assert answer.undefined_probability == pytest.approx(0.5)
        assert answer.distribution.probability_of(5.0) == pytest.approx(1.0)

    def test_count_never_undefined(self, ds1, q1, pm1):
        answer = naive_by_tuple_distribution(ds1, pm1, q1)
        assert answer.undefined_probability == 0.0

    def test_grouped_distribution(self, ds2, pm2):
        q = parse_query("SELECT MAX(price) FROM T2 GROUP BY auctionID")
        answer = naive_by_tuple_distribution(
            ds2, pm2, q, max_sequences=1 << 10
        )
        assert isinstance(answer, GroupedAnswer)
        assert set(answer.groups) == {34, 38}
        # Auction 34's max: 349.99 iff t4 -> bid (prob 0.3), else 336.94.
        dist_34 = answer[34]
        assert dist_34.distribution.probability_of(349.99) == pytest.approx(0.3)
        assert dist_34.distribution.probability_of(336.94) == pytest.approx(0.7)

    def test_nested_query_supported(self, ds2, q2, pm2):
        answer = naive_by_tuple_answer(
            ds2, pm2, q2, AggregateSemantics.EXPECTED_VALUE
        )
        # Auctions are independent and AVG is linear, so E[AVG of the two
        # group maxima] = (E[max34] + E[max38]) / 2; the per-group expected
        # maxima come from the exact order-statistics extension.
        from repro.core.answers import project
        from repro.core.common import run_possibly_grouped
        from repro.core.extensions import max_distribution_kernel

        q_max = parse_query("SELECT MAX(price) FROM T2 GROUP BY auctionID")
        grouped = project(
            run_possibly_grouped(ds2, pm2, q_max, max_distribution_kernel),
            AggregateSemantics.EXPECTED_VALUE,
        )
        expected = (grouped[34].value + grouped[38].value) / 2
        assert answer.value == pytest.approx(expected)

    def test_semantics_projection(self, ds1, q1, pm1):
        distribution = naive_by_tuple_answer(
            ds1, pm1, q1, AggregateSemantics.DISTRIBUTION
        )
        range_answer = naive_by_tuple_answer(
            ds1, pm1, q1, AggregateSemantics.RANGE
        )
        expected = naive_by_tuple_answer(
            ds1, pm1, q1, AggregateSemantics.EXPECTED_VALUE
        )
        assert range_answer == distribution.to_range()
        assert expected.value == pytest.approx(
            distribution.to_expected_value().value
        )


class TestPaperTableVII:
    def test_value_collision_reduces_outcomes(self, ds2, q2_prime, pm2):
        # Tuple 3401 has bid == currentPrice == 195, so (as the paper
        # notes) there are 128 distinct sums, not 256.
        answer = naive_by_tuple_distribution(ds2, pm2, q2_prime)
        assert len(answer.distribution) == 8  # distinct sums of 3 free tuples
        # All outcome probabilities are multiples of 0.3^k * 0.7^(3-k).
        assert answer.distribution.probability_of(931.94) == pytest.approx(
            0.7 ** 3
        )
