"""Tests for the numpy fast path (:mod:`repro.core.vectorized`).

The key property: every vectorized algorithm returns exactly what its
scalar counterpart returns, on arbitrary small problems and on larger
random workloads.
"""

from __future__ import annotations

import datetime
import random

import pytest
from hypothesis import given, settings

from repro.core import vectorized as V
from repro.core.bytuple_avg import range_avg_kernel
from repro.core.bytuple_count import (
    count_distribution_dp,
    distribution_count_kernel,
    range_count_kernel,
)
from repro.core.bytuple_minmax import range_max_kernel, range_min_kernel
from repro.core.bytuple_sum import expected_sum_kernel, range_sum_kernel
from repro.core.common import run_possibly_grouped
from repro.core.semantics import AggregateSemantics
from repro.data import realestate, synthetic
from repro.sql.ast import AggregateOp
from repro.sql.parser import parse_query
from repro.storage.table import Table
from tests.conftest import small_problems


def _vec(ctable, pmapping, query, semantics=AggregateSemantics.RANGE):
    """The array kernel of the query's by-tuple cell over ``ctable``."""
    return V.answer_problem(V.VectorizedProblem(ctable, pmapping, query), semantics)


PAIRS = [
    ("SELECT COUNT(*) FROM {t} WHERE value < {c}", range_count_kernel),
    ("SELECT SUM(value) FROM {t} WHERE value < {c}", range_sum_kernel),
    ("SELECT AVG(value) FROM {t} WHERE value < {c}", range_avg_kernel),
    ("SELECT MAX(value) FROM {t} WHERE value < {c}", range_max_kernel),
    ("SELECT MIN(value) FROM {t} WHERE value < {c}", range_min_kernel),
]


class TestScalarVectorAgreement:
    @settings(max_examples=50, deadline=None)
    @given(small_problems())
    def test_all_range_algorithms(self, problem):
        columnar = V.ColumnarTable(problem.table)
        for template, kernel in PAIRS:
            query = problem.query(template)
            scalar = run_possibly_grouped(
                problem.table, problem.pmapping, query, kernel
            )
            vector = _vec(columnar, problem.pmapping, query)
            if scalar.is_defined:
                assert vector.low == pytest.approx(scalar.low), template
                assert vector.high == pytest.approx(scalar.high), template
            else:
                assert not vector.is_defined, template

    @settings(max_examples=30, deadline=None)
    @given(small_problems())
    def test_count_distribution(self, problem):
        query = problem.query("SELECT COUNT(*) FROM {t} WHERE value < {c}")
        scalar = run_possibly_grouped(
            problem.table, problem.pmapping, query, distribution_count_kernel
        )
        vector = _vec(
            V.ColumnarTable(problem.table),
            problem.pmapping,
            query,
            AggregateSemantics.DISTRIBUTION,
        )
        assert vector.distribution.approx_equal(scalar.distribution, 1e-9)

    def test_medium_workload(self):
        workload = synthetic.generate_workload(2000, 8, 4, seed=11)
        columnar = V.ColumnarTable(workload.table)
        for template, kernel in PAIRS:
            op = template.split("(")[0].split()[-1]
            query = parse_query(workload.query(AggregateOp(op)))
            scalar = run_possibly_grouped(
                workload.table, workload.pmapping, query, kernel
            )
            vector = _vec(columnar, workload.pmapping, query)
            assert vector.low == pytest.approx(scalar.low)
            assert vector.high == pytest.approx(scalar.high)

    def test_expected_helpers(self):
        workload = synthetic.generate_workload(500, 6, 3, seed=5)
        columnar = V.ColumnarTable(workload.table)
        q = parse_query(workload.query(AggregateOp.COUNT))
        dp = _vec(
            columnar, workload.pmapping, q, AggregateSemantics.DISTRIBUTION
        ).to_expected_value()
        linear = _vec(
            columnar, workload.pmapping, q, AggregateSemantics.EXPECTED_VALUE
        )
        assert dp.value == pytest.approx(linear.value)
        q_sum = parse_query(workload.query(AggregateOp.SUM))
        vec = _vec(
            columnar, workload.pmapping, q_sum, AggregateSemantics.EXPECTED_VALUE
        )
        scalar = run_possibly_grouped(
            workload.table, workload.pmapping, q_sum, expected_sum_kernel
        )
        assert vec.value == pytest.approx(scalar.value)


def _dp_bits(distribution):
    return [(count, p.hex()) for count, p in distribution.items()]


class TestCountDPWindow:
    """The array COUNT DP folds only its live window, and stays bit for bit
    the row walk's DP."""

    def _check(self, occurrence, starts):
        import numpy as np

        got = V._count_distribution_dp_arrays(np.array(occurrence), np.array(starts))
        stops = [*starts[1:], len(occurrence)]
        for distribution, start, stop in zip(got, starts, stops):
            expected = count_distribution_dp(occurrence[start:stop])
            assert distribution == expected
            assert _dp_bits(distribution) == _dp_bits(expected)
        return got

    def test_flat_underflow_at_both_ends(self):
        rng = random.Random(3)
        occurrence = [0.0] * 20_000
        for index in rng.sample(range(20_000), 1_800):
            occurrence[index] = rng.uniform(0.2, 0.8)
        (distribution,) = self._check(occurrence, [0])
        support = distribution.support
        # Underflow left exact zeros at both ends of the 1,801 counts.
        assert 0 < min(support) and max(support) < 1_800

    def test_certain_rows(self):
        rng = random.Random(4)
        occurrence = [
            1.0 if rng.random() < 0.6 else rng.random() * (rng.random() < 0.7)
            for _ in range(3_000)
        ]
        (distribution,) = self._check(occurrence, [0])
        certain = occurrence.count(1.0)
        assert min(distribution.support) >= certain

    def test_grouped_window(self):
        rng = random.Random(5)
        # Two long segments fold side by side in the block past the
        # underflow; the rest complete early.
        occurrence = [
            1.0 if rng.random() < 0.3 else rng.uniform(0.3, 0.7)
            for _ in range(3_200)
        ]
        self._check(occurrence, [0, 1_300, 1_310, 1_311, 2_600])


class TestColumnarTable:
    def test_date_columns_become_ordinals(self):
        table = realestate.paper_instance()
        columnar = V.ColumnarTable(table)
        ordinals = columnar.column("postedDate")
        assert ordinals[0] == datetime.date(2008, 1, 5).toordinal()

    def test_date_condition_vectorized(self):
        table = realestate.paper_instance()
        pm = realestate.paper_pmapping()
        q = parse_query(realestate.Q1)
        answer = _vec(V.ColumnarTable(table), pm, q)
        assert answer.as_tuple() == (1, 3)

    def test_nulls_build_with_masks(self):
        relation = synthetic.source_relation(1)
        table = Table(relation, [(1, None), (2, 3.0)])
        columnar = V.ColumnarTable(table)
        assert columnar.has_nulls("a1")
        assert list(columnar.nulls("a1")) == [True, False]
        assert not columnar.has_nulls("id")
        assert columnar.nulls("id") is None

    def test_unknown_column(self):
        columnar = V.ColumnarTable(synthetic.generate_source_table(3, 2))
        with pytest.raises(V.ColumnarError, match="no column"):
            columnar.column("ghost")


class TestGroupedVectorized:
    def test_matches_scalar_grouped(self, ds2, pm2):
        q = parse_query(
            "SELECT MAX(price) FROM T2 WHERE price > 200 GROUP BY auctionID"
        )
        scalar = run_possibly_grouped(ds2, pm2, q, range_max_kernel)
        vector = _vec(V.ColumnarTable(ds2), pm2, q)
        assert set(scalar.groups) == set(vector.groups)
        for key, answer in scalar:
            assert vector[key].low == pytest.approx(answer.low)
            assert vector[key].high == pytest.approx(answer.high)

    def test_group_keys_converted_to_python_types(self, ds2, pm2):
        q = parse_query("SELECT SUM(price) FROM T2 GROUP BY auctionID")
        grouped = _vec(V.ColumnarTable(ds2), pm2, q)
        assert all(isinstance(key, int) for key in grouped.groups)

    def test_flat_query_passes_through(self, ds2, pm2):
        q = parse_query("SELECT MAX(price) FROM T2")
        problem = V.VectorizedProblem(V.ColumnarTable(ds2), pm2, q)
        assert problem.starts.tolist() == [0] and problem.groups is None
        direct = V.PROBLEM_KERNELS[(AggregateOp.MAX, AggregateSemantics.RANGE)](
            problem, problem.starts
        )
        routed = _vec(V.ColumnarTable(ds2), pm2, q)
        assert direct == [routed]

    def test_grouped_medium_workload_matches_scalar(self):
        # A synthetic workload with an artificial group column.
        import random

        from repro.schema.correspondence import AttributeCorrespondence
        from repro.schema.mapping import PMapping, RelationMapping
        from repro.schema.model import Attribute, AttributeType, Relation

        rng = random.Random(5)
        relation = Relation(
            "SRC",
            [
                Attribute("g", AttributeType.INT),
                Attribute("a1", AttributeType.REAL),
                Attribute("a2", AttributeType.REAL),
            ],
        )
        target = Relation(
            "MED",
            [
                Attribute("g", AttributeType.INT),
                Attribute("value", AttributeType.REAL),
            ],
        )
        rows = [
            (rng.randint(0, 5), rng.uniform(0, 100), rng.uniform(0, 100))
            for _ in range(500)
        ]
        table = Table(relation, rows)
        mappings = [
            RelationMapping(
                relation, target,
                [AttributeCorrespondence("g", "g"),
                 AttributeCorrespondence(f"a{k}", "value")],
                name=f"m{k}",
            )
            for k in (1, 2)
        ]
        pm = PMapping(relation, target, [(mappings[0], 0.4), (mappings[1], 0.6)])
        q = parse_query("SELECT SUM(value) FROM MED WHERE value < 60 GROUP BY g")
        scalar = run_possibly_grouped(table, pm, q, range_sum_kernel)
        vector = _vec(V.ColumnarTable(table), pm, q)
        assert set(scalar.groups) == set(vector.groups)
        for key, answer in scalar:
            assert vector[key].low == pytest.approx(answer.low)
            assert vector[key].high == pytest.approx(answer.high)


class TestVectorizationLimits:
    def test_nested_query_rejected(self, ds2, pm2):
        from repro.data import ebay

        columnar = V.ColumnarTable(ds2)
        q = parse_query(ebay.Q2)
        with pytest.raises(V.VectorizationError, match="nested"):
            _vec(columnar, pm2, q)

    def test_group_by_vectorizes_via_column_partition(self, ds2, pm2):
        columnar = V.ColumnarTable(ds2)
        q = parse_query("SELECT MAX(price) FROM T2 GROUP BY auctionID")
        vector = _vec(columnar, pm2, q)
        scalar = run_possibly_grouped(ds2, pm2, q, range_max_kernel)
        assert vector == scalar

    def test_boolean_conditions_vectorize(self, ds2, pm2):
        columnar = V.ColumnarTable(ds2)
        q = parse_query(
            "SELECT COUNT(*) FROM T2 WHERE (price > 200 AND price < 400) "
            "OR NOT price >= 195"
        )
        vector = _vec(columnar, pm2, q)
        scalar = run_possibly_grouped(ds2, pm2, q, range_count_kernel)
        assert vector == scalar

    def test_between_and_in_vectorize(self, ds2, pm2):
        columnar = V.ColumnarTable(ds2)
        q = parse_query(
            "SELECT COUNT(*) FROM T2 WHERE price BETWEEN 195 AND 340 "
            "AND auctionID IN (34, 38)"
        )
        vector = _vec(columnar, pm2, q)
        scalar = run_possibly_grouped(ds2, pm2, q, range_count_kernel)
        assert vector == scalar
