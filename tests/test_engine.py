"""End-to-end tests for :class:`repro.core.engine.AggregationEngine`."""

from __future__ import annotations

import pytest

from repro.core.answers import (
    DistributionAnswer,
    ExpectedValueAnswer,
    GroupedAnswer,
    RangeAnswer,
)
from repro.core.engine import AggregationEngine
from repro.core.naive import naive_by_tuple_answer
from repro.core.planner import Lane
from repro.core.semantics import AggregateSemantics, MappingSemantics
from repro.data import ebay, realestate
from repro.exceptions import (
    EvaluationError,
    IntractableError,
    MappingError,
    UnsupportedQueryError,
)
from repro.schema.mapping import SchemaPMapping
from repro.sql.parser import parse_query


@pytest.fixture
def engine(ds1, pm1):
    return AggregationEngine([ds1], pm1)


@pytest.fixture
def ebay_engine(ds2, pm2):
    return AggregationEngine([ds2], pm2, allow_exponential=True)


class TestConstruction:
    def test_single_table_and_pmapping(self, ds1, pm1):
        engine = AggregationEngine(ds1, pm1)
        assert engine.answer(realestate.Q1, "by-tuple", "range") == RangeAnswer(1, 3)

    def test_dict_of_tables(self, ds1, pm1):
        engine = AggregationEngine({"S1": ds1}, pm1)
        assert engine.answer(realestate.Q1, "by-tuple", "range") == RangeAnswer(1, 3)

    def test_schema_pmapping(self, ds1, ds2, pm1, pm2):
        engine = AggregationEngine([ds1, ds2], SchemaPMapping([pm1, pm2]))
        assert engine.answer(realestate.Q1, "by-tuple", "range") == RangeAnswer(1, 3)
        assert isinstance(
            engine.answer(ebay.Q2_PRIME, "by-table", "expected-value"),
            ExpectedValueAnswer,
        )

    def test_missing_source_table(self, pm1):
        with pytest.raises(MappingError, match="no table"):
            AggregationEngine([], pm1)

    def test_unknown_backend(self, ds1, pm1):
        with pytest.raises(EvaluationError, match="backend"):
            AggregationEngine([ds1], pm1, backend="oracle")

    def test_bad_semantics_string(self, engine):
        with pytest.raises(EvaluationError, match="mapping semantics"):
            engine.answer(realestate.Q1, "per-row", "range")
        with pytest.raises(EvaluationError, match="aggregate semantics"):
            engine.answer(realestate.Q1, "by-table", "interval")


class TestSemanticsCells:
    def test_strings_and_enums_are_equivalent(self, engine):
        via_strings = engine.answer(realestate.Q1, "by-tuple", "expected-value")
        via_enums = engine.answer(
            realestate.Q1,
            MappingSemantics.BY_TUPLE,
            AggregateSemantics.EXPECTED_VALUE,
        )
        assert via_strings == via_enums

    def test_intractable_cell_raises(self, ds2, pm2):
        engine = AggregationEngine([ds2], pm2)
        with pytest.raises(IntractableError):
            engine.answer(
                "SELECT AVG(price) FROM T2", "by-tuple", "distribution"
            )

    def test_intractable_cell_with_sampling(self, ds2, pm2):
        engine = AggregationEngine([ds2], pm2, allow_sampling=True, seed=3)
        answer = engine.answer(
            "SELECT AVG(price) FROM T2", "by-tuple", "distribution"
        )
        assert isinstance(answer, DistributionAnswer)

    def test_answer_six_collects_errors(self, ds2, pm2):
        engine = AggregationEngine([ds2], pm2)
        six = engine.answer_six("SELECT AVG(price) FROM T2")
        cell = six[(MappingSemantics.BY_TUPLE, AggregateSemantics.DISTRIBUTION)]
        assert isinstance(cell, IntractableError)
        assert isinstance(
            six[(MappingSemantics.BY_TUPLE, AggregateSemantics.RANGE)],
            RangeAnswer,
        )

    def test_plan_spec_inspection(self, engine):
        spec = engine.plan(realestate.Q1, "by-tuple", "distribution").spec
        assert spec.name == "ByTuplePDCOUNT"

    def test_plan_reports_nested_lanes(self, ds2, pm2):
        # Q2's cells run the nested planner's lanes, with sampling and
        # the extensions enabled too; no flat algorithm answers them.
        engine = AggregationEngine(
            [ds2], pm2, allow_sampling=True, use_extensions=True
        )
        range_plan = engine.plan(ebay.Q2, "by-tuple", "range")
        distribution_plan = engine.plan(ebay.Q2, "by-tuple", "distribution")
        assert range_plan.lane == Lane.NESTED_RANGE
        assert distribution_plan.lane == Lane.NESTED_COMPOSE
        assert range_plan.spec is None and distribution_plan.spec is None


class TestBackends:
    def test_sqlite_backend_matches_memory(self, ds1, pm1):
        memory = AggregationEngine([ds1], pm1, backend="memory")
        with AggregationEngine([ds1], pm1, backend="sqlite") as sqlite:
            for aggregate_sem in ("range", "distribution", "expected-value"):
                a = memory.answer(realestate.Q1, "by-table", aggregate_sem)
                b = sqlite.answer(realestate.Q1, "by-table", aggregate_sem)
                if hasattr(a, "approx_equal"):
                    assert a.approx_equal(b)
                else:
                    assert a == b

    def test_sqlite_backend_nested(self, ds2, pm2):
        with AggregationEngine([ds2], pm2, backend="sqlite") as engine:
            answer = engine.answer(ebay.Q2, "by-table", "expected-value")
        assert answer.value == pytest.approx(0.3 * 394.97 + 0.7 * 387.495)

    def test_close_idempotent(self, ds1, pm1):
        engine = AggregationEngine([ds1], pm1, backend="sqlite")
        engine.close()
        engine.close()


class TestNestedByTuple:
    def test_q2_range_composition(self, ebay_engine):
        answer = ebay_engine.answer(ebay.Q2, "by-tuple", "range")
        # Per-group MAX ranges: 34 -> [336.94, 349.99], 38 -> [340.5,
        # 439.95]; independent groups: AVG bounds are the bound means.
        assert answer.low == pytest.approx((336.94 + 340.5) / 2)
        assert answer.high == pytest.approx((349.99 + 439.95) / 2)

    def test_q2_range_composition_is_sound_vs_naive(self, ds2, pm2, q2):
        naive = naive_by_tuple_answer(ds2, pm2, q2, AggregateSemantics.RANGE)
        engine = AggregationEngine([ds2], pm2)
        composed = engine.answer(q2, "by-tuple", "range")
        assert composed.low == pytest.approx(naive.low)
        assert composed.high == pytest.approx(naive.high)

    def test_q2_distribution_via_enumeration(self, ebay_engine, ds2, pm2, q2):
        via_engine = ebay_engine.answer(ebay.Q2, "by-tuple", "distribution")
        naive = naive_by_tuple_answer(
            ds2, pm2, q2, AggregateSemantics.DISTRIBUTION
        )
        assert via_engine.approx_equal(naive, 1e-9)

    def test_q2_distribution_requires_policy(self, ds2, pm2):
        engine = AggregationEngine([ds2], pm2)
        with pytest.raises(IntractableError, match="nested"):
            engine.answer(ebay.Q2, "by-tuple", "distribution")

    def test_nested_sum_of_max(self, ebay_engine):
        q = (
            "SELECT SUM(R1.price) FROM (SELECT MAX(R2.price) FROM T2 AS R2 "
            "GROUP BY R2.auctionID) AS R1"
        )
        answer = ebay_engine.answer(q, "by-tuple", "range")
        assert answer.low == pytest.approx(336.94 + 340.5)
        assert answer.high == pytest.approx(349.99 + 439.95)

    def test_nested_outer_distinct_rejected(self, ebay_engine):
        q = (
            "SELECT AVG(DISTINCT R1.price) FROM (SELECT MAX(R2.price) "
            "FROM T2 AS R2 GROUP BY R2.auctionID) AS R1"
        )
        with pytest.raises(UnsupportedQueryError, match="DISTINCT"):
            ebay_engine.answer(q, "by-tuple", "range")


class TestGroupedEndToEnd:
    def test_by_tuple_grouped_range(self, ebay_engine):
        answer = ebay_engine.answer(
            "SELECT MAX(price) FROM T2 GROUP BY auctionID", "by-tuple", "range"
        )
        assert isinstance(answer, GroupedAnswer)
        assert answer[38].high == pytest.approx(439.95)

    def test_by_table_grouped(self, ebay_engine):
        answer = ebay_engine.answer(
            "SELECT COUNT(*) FROM T2 WHERE price > 300 GROUP BY auctionID",
            "by-table",
            "distribution",
        )
        assert isinstance(answer, GroupedAnswer)


class TestVectorizedEngine:
    """The ``vectorize=True`` fast path must be answer-identical."""

    CELLS = [
        ("by-tuple", "range"),
        ("by-tuple", "distribution"),
        ("by-tuple", "expected-value"),
    ]

    def test_all_ops_match_scalar_engine(self, ds2, pm2):
        scalar_engine = AggregationEngine([ds2], pm2, vectorize=False)
        vector_engine = AggregationEngine([ds2], pm2, vectorize=True)
        queries = [
            "SELECT COUNT(*) FROM T2 WHERE price < 300",
            "SELECT SUM(price) FROM T2 WHERE auctionID = 34",
            "SELECT AVG(price) FROM T2",
            "SELECT MIN(price) FROM T2",
            "SELECT MAX(price) FROM T2 GROUP BY auctionID",
        ]
        for text in queries:
            query = parse_query(text)
            op = query.aggregate.op.value
            for mapping_sem, aggregate_sem in self.CELLS:
                if aggregate_sem != "range" and op != "COUNT":
                    continue  # open cells need a policy; range covers all ops
                a = scalar_engine.answer(query, mapping_sem, aggregate_sem)
                b = vector_engine.answer(query, mapping_sem, aggregate_sem)
                _assert_same_answer(a, b)

    def test_expected_sum_matches(self, ds2, pm2, q2_prime):
        scalar_engine = AggregationEngine([ds2], pm2, vectorize=False)
        vector_engine = AggregationEngine([ds2], pm2, vectorize=True)
        a = scalar_engine.answer(q2_prime, "by-tuple", "expected-value")
        b = vector_engine.answer(q2_prime, "by-tuple", "expected-value")
        assert a.value == pytest.approx(b.value)
        assert b.value == pytest.approx(975.437)

    def test_falls_back_on_nullable_columns(self, pm1):
        # DS1 has DATE columns; add a NULL so the columnar build fails and
        # the engine must silently fall back to the scalar path.
        from repro.data import realestate
        from repro.storage.table import Table

        table = Table(
            realestate.S1_RELATION, list(realestate.paper_instance().rows)
        )
        table.append((5, None, "000", None, None))
        engine = AggregationEngine([table], pm1, vectorize=True)
        answer = engine.answer(realestate.Q1, "by-tuple", "range")
        assert answer.as_tuple() == (1, 3)

    def test_columnar_cache_reused(self, ds2, pm2):
        engine = AggregationEngine([ds2], pm2, vectorize=True)
        engine.answer("SELECT MAX(price) FROM T2", "by-tuple", "range")
        cached = engine.context.columnar_cache["S2"]
        engine.answer("SELECT MIN(price) FROM T2", "by-tuple", "range")
        assert engine.context.columnar_cache["S2"] is cached

    def test_by_table_unaffected(self, ds2, pm2):
        scalar_engine = AggregationEngine([ds2], pm2, vectorize=False)
        vector_engine = AggregationEngine([ds2], pm2, vectorize=True)
        a = scalar_engine.answer(ebay.Q2_PRIME, "by-table", "distribution")
        b = vector_engine.answer(ebay.Q2_PRIME, "by-table", "distribution")
        assert a.approx_equal(b)


def _assert_same_answer(a, b):
    if isinstance(a, GroupedAnswer):
        assert isinstance(b, GroupedAnswer)
        assert set(a.groups) == set(b.groups)
        for key, answer in a:
            _assert_same_answer(answer, b[key])
    elif isinstance(a, RangeAnswer):
        if a.is_defined:
            assert b.low == pytest.approx(a.low)
            assert b.high == pytest.approx(a.high)
        else:
            assert not b.is_defined
    elif isinstance(a, DistributionAnswer):
        assert a.approx_equal(b, 1e-9)
    else:
        if a.is_defined:
            assert b.value == pytest.approx(a.value)
        else:
            assert not b.is_defined


class TestPartialCoverageMappings:
    """P-mappings where some candidate leaves a queried attribute unmapped
    (as the schema matcher's lower-ranked candidates do): the attribute is
    NULL under that mapping — consistently across engine paths and the
    naive possible-worlds enumeration."""

    @pytest.fixture
    def partial_pmapping(self, pm1):
        from repro.schema.mapping import PMapping, RelationMapping
        from repro.schema.correspondence import AttributeCorrespondence

        bare = RelationMapping(
            realestate.S1_RELATION,
            realestate.T1_RELATION,
            [
                AttributeCorrespondence("ID", "propertyID"),
                AttributeCorrespondence("price", "listPrice"),
            ],
            name="bare",
        )
        m11, m12 = pm1.mappings
        return PMapping(
            realestate.S1_RELATION,
            realestate.T1_RELATION,
            [(m11, 0.5), (m12, 0.3), (bare, 0.2)],
        )

    def test_by_table_counts_zero_under_bare_mapping(self, ds1,
                                                     partial_pmapping):
        engine = AggregationEngine([ds1], partial_pmapping)
        answer = engine.answer(realestate.Q1, "by-table", "distribution")
        # Under `bare`, date is NULL everywhere: COUNT = 0.
        assert answer.distribution.probability_of(0) == pytest.approx(0.2)

    def test_by_tuple_matches_naive(self, ds1, partial_pmapping, q1):
        engine = AggregationEngine([ds1], partial_pmapping)
        fast = engine.answer(q1, "by-tuple", "distribution")
        naive = naive_by_tuple_answer(
            ds1, partial_pmapping, q1, AggregateSemantics.DISTRIBUTION
        )
        assert fast.approx_equal(naive, 1e-9)

    def test_vectorized_matches_scalar(self, ds1, partial_pmapping, q1):
        from repro.core.bytuple_count import range_count_kernel
        from repro.core.common import run_possibly_grouped
        from repro.core.vectorized import (
            ColumnarTable,
            VectorizedProblem,
            answer_problem,
        )

        scalar = run_possibly_grouped(ds1, partial_pmapping, q1, range_count_kernel)
        vector = answer_problem(
            VectorizedProblem(ColumnarTable(ds1), partial_pmapping, q1),
            AggregateSemantics.RANGE,
        )
        assert scalar == vector

    def test_sqlite_backend_agrees(self, ds1, partial_pmapping):
        memory = AggregationEngine([ds1], partial_pmapping)
        with AggregationEngine(
            [ds1], partial_pmapping, backend="sqlite"
        ) as sqlite:
            a = memory.answer(realestate.Q1, "by-table", "distribution")
            b = sqlite.answer(realestate.Q1, "by-table", "distribution")
        assert a.approx_equal(b)


class TestResolution:
    def test_unknown_target_relation(self, engine):
        with pytest.raises(MappingError, match="no p-mapping"):
            engine.answer("SELECT COUNT(*) FROM Nowhere", "by-table", "range")

    def test_overrides_per_call(self, ds2, pm2):
        engine = AggregationEngine([ds2], pm2, allow_exponential=True)
        with pytest.raises(EvaluationError, match="sequences"):
            engine.answer(
                "SELECT AVG(price) FROM T2",
                "by-tuple",
                "distribution",
                max_sequences=4,
            )
