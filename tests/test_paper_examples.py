"""End-to-end reproduction of the paper's worked examples and tables.

Covers Table I/II (instances), Example 3 (Q1 under both semantics),
Example 4 (Q2 by-table), Table III (six semantics of Q1), Table IV
(ByTupleRangeCOUNT trace), Table V (ByTuplePDCOUNT trace), Table VI
(ByTupleRangeSUM trace), Table VII / Example 5 / Theorem 4 (expected SUM of
Q2'), and the Section IV MAX example for auction 38.

Where the paper's printed numbers contradict its own instances, the tests
assert the values consistent with the instances; EXPERIMENTS.md records
each discrepancy.
"""

from __future__ import annotations

import datetime
from functools import partial

import pytest

from repro.core.bytuple_count import (
    distribution_count_kernel,
    dp_expected_count_kernel,
    expected_count_kernel,
    range_count_kernel,
)
from repro.core.bytuple_minmax import range_max_kernel
from repro.core.bytuple_sum import expected_sum_kernel, range_sum_kernel
from repro.core.common import run_possibly_grouped
from repro.core.engine import AggregationEngine
from repro.core.naive import iter_sequence_results, naive_by_tuple_answer
from repro.core.semantics import AggregateSemantics, MappingSemantics
from repro.data import realestate
from repro.sql.parser import parse_query


def _by_table(table, pmapping, query, semantics):
    """The by-table answer (paper Figure 1) over the in-memory executor."""
    engine = AggregationEngine([table], pmapping, vectorize=False)
    return engine.answer(query, MappingSemantics.BY_TABLE, semantics)


class TestTableI:
    def test_instance_shape(self, ds1):
        assert len(ds1) == 4
        assert ds1.relation.attribute_names == (
            "ID", "price", "agentPhone", "postedDate", "reducedDate",
        )

    def test_row_values(self, ds1):
        assert ds1.row(0)["price"] == 100_000.0
        assert ds1.row(2)["reducedDate"] == datetime.date(2008, 1, 10)

    def test_pmapping_probabilities(self, pm1):
        assert pm1.probabilities == (0.6, 0.4)
        assert pm1.most_probable().name == "m11"


class TestTableII:
    def test_instance_shape(self, ds2):
        assert len(ds2) == 8
        assert ds2.distinct("auction") == (34, 38)

    def test_second_price_flavor(self, ds2):
        # Within each auction the listed currentPrice trails the max bid.
        for auction in (34, 38):
            rows = [r for r in ds2 if r["auction"] == auction]
            assert max(r["currentPrice"] for r in rows) <= max(
                r["bid"] for r in rows
            ) + 2.5 + 1e-9


class TestExample3:
    """Q1 under both mapping semantics (paper Example 3)."""

    def test_by_table_reformulations(self, ds1, q1, pm1):
        results = [
            (value, probability)
            for value, probability in (
                (3, 0.6),  # Q11 via postedDate
                (1, 0.4),  # Q12 via reducedDate (paper prints 2; its own
                           # Table I instance yields 1 — see EXPERIMENTS.md)
            )
        ]
        answer = _by_table(ds1, pm1, q1, AggregateSemantics.DISTRIBUTION)
        for value, probability in results:
            assert answer.distribution.probability_of(value) == pytest.approx(
                probability
            )

    def test_by_tuple_distribution_matches_paper(self, ds1, q1, pm1):
        # The paper: 1 with 0.16, 2 with 0.48, 3 with 0.36.
        answer = run_possibly_grouped(ds1, pm1, q1, distribution_count_kernel)
        assert answer.distribution.probability_of(1) == pytest.approx(0.16)
        assert answer.distribution.probability_of(2) == pytest.approx(0.48)
        assert answer.distribution.probability_of(3) == pytest.approx(0.36)

    def test_sequence_probability_example(self, ds1, pm1, q1):
        # P(<m11, m12, m12, m11>) = 0.6 * 0.4 * 0.4 * 0.6 = 0.0576
        for sequence, _, probability in iter_sequence_results(ds1, pm1, q1):
            if sequence == (0, 1, 1, 0):
                assert probability == pytest.approx(0.0576)
                break
        else:
            pytest.fail("sequence (m11, m12, m12, m11) not enumerated")

    def test_naive_agrees_with_dp(self, ds1, q1, pm1):
        naive = naive_by_tuple_answer(
            ds1, pm1, q1, AggregateSemantics.DISTRIBUTION
        )
        dp = run_possibly_grouped(ds1, pm1, q1, distribution_count_kernel)
        assert naive.distribution.approx_equal(dp.distribution, 1e-9)


class TestTableIII:
    """The six semantics of Q1 (paper Table III)."""

    @pytest.fixture
    def six(self, ds1, pm1):
        engine = AggregationEngine([ds1], pm1, allow_exponential=True)
        return engine.answer_six(realestate.Q1)

    def test_by_tuple_range(self, six):
        answer = six[(MappingSemantics.BY_TUPLE, AggregateSemantics.RANGE)]
        assert answer.as_tuple() == (1, 3)  # paper: [1, 3]

    def test_by_tuple_expected_value(self, six):
        answer = six[
            (MappingSemantics.BY_TUPLE, AggregateSemantics.EXPECTED_VALUE)
        ]
        assert answer.value == pytest.approx(2.2)  # paper: 2.2

    def test_by_table_range(self, six):
        answer = six[(MappingSemantics.BY_TABLE, AggregateSemantics.RANGE)]
        # Consistent with Table I (paper prints [2, 3]; see EXPERIMENTS.md).
        assert answer.as_tuple() == (1, 3)

    def test_by_table_expected_value(self, six):
        answer = six[
            (MappingSemantics.BY_TABLE, AggregateSemantics.EXPECTED_VALUE)
        ]
        assert answer.value == pytest.approx(2.2)

    def test_by_table_range_subset_of_by_tuple_range(self, six):
        by_table = six[(MappingSemantics.BY_TABLE, AggregateSemantics.RANGE)]
        by_tuple = six[(MappingSemantics.BY_TUPLE, AggregateSemantics.RANGE)]
        assert by_tuple.covers(by_table)


class TestTableIV:
    """Trace of ByTupleRangeCOUNT on Q1 (paper Table IV)."""

    def test_trace_and_final_answer(self, ds1, q1, pm1):
        trace: list[dict] = []
        answer = run_possibly_grouped(
            ds1, pm1, q1, partial(range_count_kernel, trace=trace)
        )
        assert answer.as_tuple() == (1, 3)
        # Tuple-by-tuple bounds on the Table I instance: t1 sat under m11
        # only; t2 under none; t3 under both; t4 under m11 only.
        assert [(t["low"], t["up"]) for t in trace] == [
            (0, 1), (0, 1), (1, 2), (1, 3),
        ]


class TestTableV:
    """Trace of ByTuplePDCOUNT on Q1 (paper Table V)."""

    def test_trace_rows_are_distributions(self, ds1, q1, pm1):
        trace: list[dict] = []
        run_possibly_grouped(
            ds1, pm1, q1, partial(distribution_count_kernel, trace=trace)
        )
        assert len(trace) == 4
        for step in trace:
            assert sum(step["probabilities"]) == pytest.approx(1.0)

    def test_first_tuple_probabilities(self, ds1, q1, pm1):
        # After tuple 1 (satisfies under m11 only): P(0)=0.4, P(1)=0.6.
        trace: list[dict] = []
        run_possibly_grouped(
            ds1, pm1, q1, partial(distribution_count_kernel, trace=trace)
        )
        assert trace[0]["probabilities"][0] == pytest.approx(0.4)
        assert trace[0]["probabilities"][1] == pytest.approx(0.6)

    def test_final_distribution(self, ds1, q1, pm1):
        trace: list[dict] = []
        run_possibly_grouped(
            ds1, pm1, q1, partial(distribution_count_kernel, trace=trace)
        )
        final = trace[-1]["probabilities"]
        # paper Table V final row: 0, 0.16, 0.48, 0.36, 0
        assert final[0] == pytest.approx(0.0)
        assert final[1] == pytest.approx(0.16)
        assert final[2] == pytest.approx(0.48)
        assert final[3] == pytest.approx(0.36)


class TestTableVI:
    """Trace of ByTupleRangeSUM on Q2' (paper Table VI).

    The paper's printed rows 3-4 carry values from auction 38 although Q2'
    selects auction 34 (see EXPERIMENTS.md); the trace below follows the
    algorithm on the paper's own Table II instance.
    """

    def test_trace(self, ds2, q2_prime, pm2):
        trace: list[dict] = []
        answer = run_possibly_grouped(
            ds2, pm2, q2_prime, partial(range_sum_kernel, trace=trace)
        )
        assert [t["tuple_index"] for t in trace] == [0, 1, 2, 3]
        assert trace[0] == {
            "tuple_index": 0, "vmin": 195.0, "vmax": 195.0,
            "low": 195.0, "up": 195.0,
        }
        assert trace[1]["vmin"] == 197.5 and trace[1]["vmax"] == 200.0
        assert trace[1]["low"] == pytest.approx(392.5)  # matches the paper
        assert trace[1]["up"] == pytest.approx(395.0)   # matches the paper
        assert answer.low == pytest.approx(931.94)
        assert answer.high == pytest.approx(1076.93)


class TestTableVII:
    """The 16 sequences of Q2' and Theorem 4 (paper Table VII, Example 5)."""

    def test_sixteen_sequences_with_probabilities(self, ds2, q2_prime, pm2):
        results = list(iter_sequence_results(ds2, pm2, q2_prime))
        assert len(results) == 2 ** 8  # 8 tuples, 2 mappings
        total = sum(p for _, _, p in results)
        assert total == pytest.approx(1.0)
        # Only the four auction-34 tuples matter; marginalizing over the
        # other four, the all-bids world has the paper's probability 0.0081.
        all_bids = sum(
            p for s, _, p in results if s[0] == s[1] == s[2] == s[3] == 0
        )
        assert all_bids == pytest.approx(0.3 ** 4)

    def test_all_bids_sequence_value(self, ds2, q2_prime, pm2):
        for sequence, value, _ in iter_sequence_results(ds2, pm2, q2_prime):
            if sequence[:4] == (0, 0, 0, 0):
                assert value == pytest.approx(1076.93)  # paper Table VII
                break

    def test_all_current_price_sequence_value(self, ds2, q2_prime, pm2):
        for sequence, value, _ in iter_sequence_results(ds2, pm2, q2_prime):
            if sequence[:4] == (1, 1, 1, 1):
                assert value == pytest.approx(931.94)  # paper Table VII
                break

    def test_expected_value_975_437(self, ds2, q2_prime, pm2):
        """The paper's headline number: E[SUM] = 975.437."""
        naive = naive_by_tuple_answer(
            ds2, pm2, q2_prime, AggregateSemantics.EXPECTED_VALUE
        )
        assert naive.value == pytest.approx(975.437)

    def test_theorem4_by_tuple_equals_by_table(self, ds2, q2_prime, pm2):
        by_tuple = run_possibly_grouped(ds2, pm2, q2_prime, expected_sum_kernel)
        by_table = _by_table(ds2, pm2, q2_prime, AggregateSemantics.EXPECTED_VALUE)
        assert by_tuple.value == pytest.approx(by_table.value)
        assert by_tuple.value == pytest.approx(975.437)


class TestExample4:
    """Q2 (nested AVG-of-MAX) under by-table semantics."""

    def test_by_table_values(self, ds2, q2, pm2):
        answer = _by_table(ds2, pm2, q2, AggregateSemantics.DISTRIBUTION)
        # Consistent with Table II: bids -> (349.99+439.95)/2, currentPrice
        # -> (336.94+438.05)/2.  (The paper prints 345.245/385.945, which do
        # not follow from its Table II; see EXPERIMENTS.md.)
        assert answer.distribution.probability_of(394.97) == pytest.approx(0.3)
        assert answer.distribution.probability_of(387.495) == pytest.approx(0.7)


class TestSectionIVMax:
    """The MAX range walk-through for auction 38 (paper Section IV-B)."""

    def test_auction_38_range(self, ds2, pm2):
        q = parse_query("SELECT MAX(DISTINCT price) FROM T2 GROUP BY auctionID")
        answer = run_possibly_grouped(ds2, pm2, q, range_max_kernel)
        auction_38 = answer[38]
        # paper: [340.05, 439.95] — 340.05 is a typo for 340.5, the bid of
        # transaction 3804 (min of its two values 340.5/438.05).
        assert auction_38.low == pytest.approx(340.5)
        assert auction_38.high == pytest.approx(439.95)

    def test_auction_34_range(self, ds2, pm2):
        q = parse_query("SELECT MAX(DISTINCT price) FROM T2 GROUP BY auctionID")
        answer = run_possibly_grouped(ds2, pm2, q, range_max_kernel)
        assert answer[34].low == pytest.approx(336.94)
        assert answer[34].high == pytest.approx(349.99)


class TestExpectedCountConsistency:
    def test_expected_count_2_2(self, ds1, q1, pm1):
        answer = run_possibly_grouped(ds1, pm1, q1, dp_expected_count_kernel)
        assert answer.value == pytest.approx(2.2)

    def test_linear_method_agrees(self, ds1, q1, pm1):
        linear = run_possibly_grouped(ds1, pm1, q1, expected_count_kernel)
        assert linear.value == pytest.approx(2.2)
