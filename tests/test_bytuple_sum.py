"""Tests for by-tuple SUM (Figure 4, Theorem 4) with naive cross-checks."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.core.bytuple_sum import expected_sum_kernel, range_sum_kernel
from repro.core.common import PreparedTupleQuery, run_possibly_grouped
from repro.core.engine import AggregationEngine
from repro.core.naive import naive_by_tuple_answer
from repro.core.semantics import AggregateSemantics
from repro.data import synthetic
from repro.exceptions import UnsupportedQueryError
from repro.schema.correspondence import AttributeCorrespondence
from repro.schema.mapping import PMapping, RelationMapping
from repro.sql.parser import parse_query
from repro.storage.table import Table
from tests.conftest import small_problems

SUM_WHERE = "SELECT SUM(value) FROM {t} WHERE value < {c}"
SUM_ALL = "SELECT SUM(value) FROM {t}"


def _by_table_expected_sum(table, pmapping, query, backend="memory"):
    """Theorem 4's route: the by-table expected value, from ``backend``'s
    executor."""
    with AggregationEngine(
        [table], pmapping, backend=backend, vectorize=False
    ) as engine:
        return engine.answer(query, "by-table", "expected-value")


def _linear_expected_sum(prepared):
    """The unconditional linear form ``sum_ij P(m_j) * contribution_ij``."""
    return sum(
        probability * contribution
        for vector in prepared.contribution_vectors()
        for probability, contribution in zip(prepared.probabilities, vector)
        if contribution is not None
    )


def _two_column_problem(rows, p1=0.5):
    """A 2-mapping problem over explicit (a1, a2) rows."""
    relation = synthetic.source_relation(2)
    target = synthetic.mediated_relation()
    table = Table(relation, [(i + 1, a, b) for i, (a, b) in enumerate(rows)])
    mappings = [
        RelationMapping(
            relation, target,
            [AttributeCorrespondence("id", "id"),
             AttributeCorrespondence(f"a{k}", "value")],
            name=f"m{k}",
        )
        for k in (1, 2)
    ]
    pmapping = PMapping(
        relation, target, [(mappings[0], p1), (mappings[1], 1 - p1)]
    )
    return table, pmapping


class TestRangeSumEdgeCases:
    def test_all_forced(self):
        table, pm = _two_column_problem([(1.0, 2.0), (3.0, 5.0)])
        q = parse_query(SUM_ALL.format(t="MED"))
        answer = run_possibly_grouped(table, pm, q, range_sum_kernel)
        assert answer.as_tuple() == (4.0, 7.0)

    def test_optional_positive_values_allow_zero(self):
        # Tuple qualifies only under m1; excluding it gives SUM of the
        # forced tuple alone.
        table, pm = _two_column_problem([(5.0, 20.0), (1.0, 1.0)])
        q = parse_query("SELECT SUM(value) FROM MED WHERE value < 10")
        # t1: qualifies under m1 (5) but not m2 (20) -> optional {5}.
        # t2: forced {1}.
        answer = run_possibly_grouped(table, pm, q, range_sum_kernel)
        assert answer.as_tuple() == (1.0, 6.0)

    def test_optional_negative_value_lowers_bound(self):
        table, pm = _two_column_problem([(-5.0, 20.0), (1.0, 1.0)])
        q = parse_query("SELECT SUM(value) FROM MED WHERE value < 10")
        answer = run_possibly_grouped(table, pm, q, range_sum_kernel)
        assert answer.as_tuple() == (-4.0, 1.0)

    def test_never_satisfiable_is_undefined(self):
        table, pm = _two_column_problem([(50.0, 60.0)])
        q = parse_query("SELECT SUM(value) FROM MED WHERE value < 10")
        answer = run_possibly_grouped(table, pm, q, range_sum_kernel)
        assert not answer.is_defined

    def test_all_optional_nonnegative_low_is_single_cheapest(self):
        # Every tuple can be excluded; the smallest *defined* SUM includes
        # exactly the cheapest qualifying tuple, not zero.
        table, pm = _two_column_problem([(3.0, 20.0), (7.0, 20.0)])
        q = parse_query("SELECT SUM(value) FROM MED WHERE value < 10")
        answer = run_possibly_grouped(table, pm, q, range_sum_kernel)
        assert answer.as_tuple() == (3.0, 10.0)

    def test_all_optional_nonpositive_up_is_single_largest(self):
        table, pm = _two_column_problem([(-3.0, 20.0), (-7.0, 20.0)])
        q = parse_query("SELECT SUM(value) FROM MED WHERE value < 10")
        answer = run_possibly_grouped(table, pm, q, range_sum_kernel)
        assert answer.as_tuple() == (-10.0, -3.0)

    def test_distinct_rejected(self, ds2, pm2):
        q = parse_query("SELECT SUM(DISTINCT price) FROM T2")
        with pytest.raises(UnsupportedQueryError, match="DISTINCT"):
            run_possibly_grouped(ds2, pm2, q, range_sum_kernel)


class TestAgainstNaive:
    @settings(max_examples=60, deadline=None)
    @given(small_problems())
    def test_range_matches_naive(self, problem):
        query = problem.query(SUM_WHERE)
        fast = run_possibly_grouped(
            problem.table, problem.pmapping, query, range_sum_kernel
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
    def test_theorem4_expected_sum(self, problem):
        """Theorem 4 on random instances with full qualification."""
        query = problem.query(SUM_ALL)  # no WHERE: SUM defined everywhere
        by_table_route = _by_table_expected_sum(
            problem.table, problem.pmapping, query
        )
        naive = naive_by_tuple_answer(
            problem.table,
            problem.pmapping,
            query,
            AggregateSemantics.EXPECTED_VALUE,
        )
        assert by_table_route.value == pytest.approx(naive.value, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(small_problems())
    def test_exact_method_matches_naive_with_where(self, problem):
        """The conditional-exact method is ground truth even when worlds
        can be empty (where Theorem 4's literal delegation is not)."""
        query = problem.query(SUM_WHERE)
        exact = run_possibly_grouped(
            problem.table, problem.pmapping, query, expected_sum_kernel
        )
        naive = naive_by_tuple_answer(
            problem.table,
            problem.pmapping,
            query,
            AggregateSemantics.EXPECTED_VALUE,
        )
        if naive.is_defined:
            assert exact.value == pytest.approx(naive.value, abs=1e-9)
        else:
            assert not exact.is_defined

    @settings(max_examples=40, deadline=None)
    @given(small_problems())
    def test_linear_method_agrees_with_by_table(self, problem):
        query = problem.query(SUM_ALL)
        linear = _linear_expected_sum(
            PreparedTupleQuery(problem.table, problem.pmapping, query)
        )
        by_table_route = _by_table_expected_sum(
            problem.table, problem.pmapping, query
        )
        assert linear == pytest.approx(by_table_route.value, abs=1e-9)


class TestExpectedSumExecutors:
    def test_sqlite_executor_route(self, ds2, q2_prime, pm2):
        answer = _by_table_expected_sum(ds2, pm2, q2_prime, backend="sqlite")
        assert answer.value == pytest.approx(975.437)

    def test_exact_method_agrees_on_certain_qualification(self, ds2, q2_prime,
                                                          pm2):
        # Q2's WHERE is on the certain auction attribute: no world is
        # empty, so the exact conditional value equals Theorem 4's.
        exact = run_possibly_grouped(ds2, pm2, q2_prime, expected_sum_kernel)
        assert exact.value == pytest.approx(975.437)

    def test_grouped_linear(self, ds2, pm2):
        q = parse_query("SELECT SUM(price) FROM T2 GROUP BY auctionID")
        prepared = PreparedTupleQuery(ds2, pm2, q)
        groups = prepared.partition()
        expected_34 = 0.3 * 1076.93 + 0.7 * 931.94
        assert _linear_expected_sum(groups[34]) == pytest.approx(expected_34)
