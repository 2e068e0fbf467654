"""Tests for single-pass streaming (:func:`repro.core.streaming.answer_stream`).

A streamed answer is the cell's row-walk kernel folded over a one-shot
row iterator, so it must equal the in-memory answer over the same rows
exactly, and hold bounded memory however many rows arrive.
"""

from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import given, settings

from repro.core.bytuple_avg import by_tuple_range_avg
from repro.core.bytuple_count import (
    by_tuple_distribution_count,
    count_distribution_dp,
    by_tuple_expected_count,
    by_tuple_range_count,
)
from repro.core.bytuple_minmax import by_tuple_range_max, by_tuple_range_min
from repro.core.bytuple_sum import by_tuple_expected_sum, by_tuple_range_sum
from repro.core.engine import AggregationEngine
from repro.core.semantics import AggregateSemantics
from repro.core.streaming import answer_stream
from repro.data import realestate
from repro.exceptions import UnsupportedQueryError
from repro.schema.mapping import (
    AttributeCorrespondence,
    PMapping,
    RelationMapping,
)
from repro.schema.model import Attribute, AttributeType, Relation
from repro.sql.parser import parse_query
from repro.storage.csv_io import iter_csv_rows, save_table_csv
from tests.conftest import small_problems

COUNT_Q = "SELECT COUNT(*) FROM {t} WHERE value < {c}"
SUM_Q = "SELECT SUM(value) FROM {t} WHERE value < {c}"
AVG_Q = "SELECT AVG(value) FROM {t} WHERE value < {c}"
MAX_Q = "SELECT MAX(value) FROM {t} WHERE value < {c}"
MIN_Q = "SELECT MIN(value) FROM {t} WHERE value < {c}"

RANGE = AggregateSemantics.RANGE
EXPECTED = AggregateSemantics.EXPECTED_VALUE
DISTRIBUTION = AggregateSemantics.DISTRIBUTION

#: The eight PTIME by-tuple cells, as queries on the paper's T1.
PRICE_WHERE = "FROM T1 WHERE date < '2008-1-20'"
PTIME_CELLS = [
    (realestate.Q1, RANGE),
    (realestate.Q1, DISTRIBUTION),
    (realestate.Q1, EXPECTED),
    (f"SELECT SUM(listPrice) {PRICE_WHERE}", RANGE),
    (f"SELECT SUM(listPrice) {PRICE_WHERE}", EXPECTED),
    (f"SELECT AVG(listPrice) {PRICE_WHERE}", RANGE),
    (f"SELECT MIN(listPrice) {PRICE_WHERE}", RANGE),
    (f"SELECT MAX(listPrice) {PRICE_WHERE}", RANGE),
]


def _stream_answer(problem, template, semantics):
    return answer_stream(
        iter(problem.table.rows),
        problem.pmapping,
        problem.query(template),
        semantics,
    )


class TestAgainstBatchAlgorithms:
    @settings(max_examples=50, deadline=None)
    @given(small_problems())
    def test_range_count(self, problem):
        streamed = _stream_answer(problem, COUNT_Q, RANGE)
        batch = by_tuple_range_count(
            problem.table, problem.pmapping, problem.query(COUNT_Q)
        )
        assert streamed == batch

    @settings(max_examples=50, deadline=None)
    @given(small_problems())
    def test_range_sum(self, problem):
        streamed = _stream_answer(problem, SUM_Q, RANGE)
        batch = by_tuple_range_sum(
            problem.table, problem.pmapping, problem.query(SUM_Q)
        )
        assert streamed == batch

    @settings(max_examples=50, deadline=None)
    @given(small_problems())
    def test_range_avg(self, problem):
        streamed = _stream_answer(problem, AVG_Q, RANGE)
        batch = by_tuple_range_avg(
            problem.table, problem.pmapping, problem.query(AVG_Q)
        )
        assert streamed == batch

    @settings(max_examples=50, deadline=None)
    @given(small_problems())
    def test_range_minmax(self, problem):
        streamed_max = _stream_answer(problem, MAX_Q, RANGE)
        batch_max = by_tuple_range_max(
            problem.table, problem.pmapping, problem.query(MAX_Q)
        )
        assert streamed_max == batch_max
        streamed_min = _stream_answer(problem, MIN_Q, RANGE)
        batch_min = by_tuple_range_min(
            problem.table, problem.pmapping, problem.query(MIN_Q)
        )
        assert streamed_min == batch_min

    @settings(max_examples=50, deadline=None)
    @given(small_problems())
    def test_expected_count(self, problem):
        streamed = _stream_answer(problem, COUNT_Q, EXPECTED)
        batch = by_tuple_expected_count(
            problem.table, problem.pmapping, problem.query(COUNT_Q),
            method="linear",
        )
        assert streamed == batch

    @settings(max_examples=50, deadline=None)
    @given(small_problems())
    def test_expected_sum(self, problem):
        streamed = _stream_answer(problem, SUM_Q, EXPECTED)
        batch = by_tuple_expected_sum(
            problem.table, problem.pmapping, problem.query(SUM_Q),
            method="exact",
        )
        assert streamed == batch

    @settings(max_examples=40, deadline=None)
    @given(small_problems())
    def test_distribution_count(self, problem):
        streamed = _stream_answer(problem, COUNT_Q, DISTRIBUTION)
        batch = by_tuple_distribution_count(
            problem.table, problem.pmapping, problem.query(COUNT_Q)
        )
        assert streamed == batch


class TestCsvStreaming:
    def test_end_to_end_from_csv(self, tmp_path):
        table = realestate.generate_listings(500, seed=9)
        path = tmp_path / "listings.csv"
        save_table_csv(table, path)
        query = parse_query(realestate.Q1)
        streamed = answer_stream(
            iter_csv_rows(realestate.S1_RELATION, path),
            realestate.paper_pmapping(),
            query,
            RANGE,
        )
        batch = by_tuple_range_count(
            table, realestate.paper_pmapping(), query
        )
        assert streamed == batch

    @pytest.mark.parametrize("vectorize", [False, True])
    @pytest.mark.parametrize("sql, semantics", PTIME_CELLS)
    def test_every_ptime_cell_matches_engine(
        self, tmp_path, sql, semantics, vectorize
    ):
        table = realestate.generate_listings(300, seed=5)
        pmapping = realestate.paper_pmapping()
        path = tmp_path / "listings.csv"
        save_table_csv(table, path)
        streamed = answer_stream(
            iter_csv_rows(pmapping.source, path),
            pmapping,
            parse_query(sql),
            semantics,
        )
        engine = AggregationEngine([table], pmapping, vectorize=vectorize)
        assert streamed == engine.answer(sql, "by-tuple", semantics)

    def test_iter_csv_rows_types(self, tmp_path, ds1):
        import datetime

        path = tmp_path / "s1.csv"
        save_table_csv(ds1, path)
        rows = list(iter_csv_rows(realestate.S1_RELATION, path))
        assert len(rows) == 4
        assert isinstance(rows[0][3], datetime.date)

    def test_iter_csv_rows_header_check(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(Exception, match="header"):
            list(iter_csv_rows(realestate.S1_RELATION, path))


def _untouchable_rows():
    """A row stream that fails the test if any row is read."""
    raise AssertionError("the stream was read")
    yield  # pragma: no cover


class TestValidation:
    def test_grouped_query_rejected_in_stream(self, pm2):
        query = parse_query("SELECT MAX(price) FROM T2 GROUP BY auctionID")
        with pytest.raises(UnsupportedQueryError, match="Grouped"):
            answer_stream(_untouchable_rows(), pm2, query, RANGE)

    @pytest.mark.parametrize(
        "sql, semantics, message",
        [
            ("SELECT AVG(listPrice) FROM T1", DISTRIBUTION, "AVG"),
            ("SELECT SUM(date) FROM T1", RANGE, "SUM needs a numeric"),
        ],
        ids=["no-ptime-kernel", "non-numeric-sum"],
    )
    def test_rejected_before_first_row(self, sql, semantics, message):
        with pytest.raises(UnsupportedQueryError, match=message):
            answer_stream(
                _untouchable_rows(),
                realestate.paper_pmapping(),
                parse_query(sql),
                semantics,
            )

    def test_empty_stream_results(self, pm2):
        def answer(sql, semantics):
            return answer_stream(iter(()), pm2, parse_query(sql), semantics)

        assert not answer("SELECT SUM(price) FROM T2", RANGE).is_defined
        count = "SELECT COUNT(*) FROM T2"
        assert answer(count, RANGE).as_tuple() == (0, 0)
        assert answer(count, EXPECTED).value == 0.0
        assert answer(count, DISTRIBUTION).distribution.support == (0,)


def _memory_problem():
    """One certain and one uncertain attribute under two mappings."""
    source = Relation(
        "S",
        [Attribute("a", AttributeType.REAL), Attribute("b", AttributeType.REAL)],
    )
    target = Relation("T", [Attribute("value", AttributeType.REAL)])
    return PMapping(
        source,
        target,
        [
            (RelationMapping(source, target, [correspondence]), 0.5)
            for correspondence in (
                AttributeCorrespondence("a", "value"),
                AttributeCorrespondence("b", "value"),
            )
        ],
    )


class TestBoundedMemory:
    """Peak traced memory must not grow with the number of streamed rows."""

    ROWS = staticmethod(lambda i: (float(i % 100), float((i * 7) % 100)))

    @staticmethod
    def _peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def _stream_peak(self, sql, semantics, make_row, n):
        pmapping = _memory_problem()
        query = parse_query(sql)
        rows = (make_row(i) for i in range(n))
        return self._peak(
            lambda: answer_stream(rows, pmapping, query, semantics)
        )

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT COUNT(*) FROM T WHERE value < 50",
            "SELECT SUM(value) FROM T WHERE value < 50",
            # Every tuple qualifies under both mappings: all forced.
            "SELECT AVG(value) FROM T",
        ],
        ids=["count-range", "sum-range", "avg-range"],
    )
    def test_range_state_is_constant(self, sql):
        small = self._stream_peak(sql, RANGE, self.ROWS, 5_000)
        large = self._stream_peak(sql, RANGE, self.ROWS, 50_000)
        assert large < 2 * small, (small, large)

    def test_count_distribution_holds_only_its_support(self):
        # About 1% of the tuples can qualify (``a < 1`` under the first
        # mapping, never under the second).  The answer itself has
        # #qualifying + 1 outcomes, so the 50 000-row peak is bounded by
        # the bare Figure 3 DP over its 500 qualifying tuples: an O(n)
        # list of per-tuple probabilities would exceed it many times.
        sql = "SELECT COUNT(*) FROM T WHERE value < 1"

        def make_row(i):
            return (float(i % 100), 50.0)

        small = self._stream_peak(sql, DISTRIBUTION, make_row, 5_000)
        large = self._stream_peak(sql, DISTRIBUTION, make_row, 50_000)
        support = self._peak(lambda: count_distribution_dp(iter([0.5] * 500)))
        assert large < 2 * max(small, support), (small, support, large)
