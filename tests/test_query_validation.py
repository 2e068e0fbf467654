"""Typed errors for queries the mediated schema cannot answer.

Two query shapes used to slip through to a lane:

* a flat query naming an attribute the target relation lacks but the
  source relation has (``price`` on the paper's T1) resolved against the
  source and ignored the mapping uncertainty;
* SUM/AVG over TEXT or DATE, and the expected value of MIN/MAX over them,
  raised a raw ``TypeError`` inside whichever lane ran.

Both now raise a :class:`~repro.exceptions.ReproError` in every cell and
on every lane, so ``/query`` answers them with a typed 400.
"""

from __future__ import annotations

import pytest

from repro.core.bytable import combine_results, memory_executor
from repro.core.engine import AggregationEngine
from repro.core.semantics import AggregateSemantics, MappingSemantics
from repro.data import realestate
from repro.exceptions import SchemaError, UnsupportedQueryError
from repro.obs import metrics
from repro.serve import DatasetRegistry, ServeClient, ServeConfig, ServiceThread
from repro.sql.parser import parse_query
from repro.sql.reformulate import reformulations

#: T1 has ``listPrice`` and ``propertyID``; its source S1 has ``price``
#: and ``ID``.
UNKNOWN_ATTRIBUTE = [
    "SELECT SUM(price) FROM T1",
    "SELECT COUNT(*) FROM T1 WHERE price > 1",
    "SELECT COUNT(*) FROM T1 GROUP BY ID",
]

#: T1's ``phone`` is TEXT and ``date`` is DATE under every mapping.
NON_NUMERIC_SUM_AVG = [
    "SELECT SUM(phone) FROM T1",
    "SELECT AVG(date) FROM T1",
    "SELECT SUM(date) FROM T1 WHERE listPrice > 1",
]
NON_NUMERIC_EXTREMES = [
    "SELECT MAX(date) FROM T1",
    "SELECT MIN(phone) FROM T1",
]

#: Engine policies that give every open cell a lane: sampling, naive
#: enumeration, and the exact MIN/MAX extension.
POLICIES = {
    "sampling": {"allow_sampling": True},
    "naive": {"allow_exponential": True},
    "extension": {"use_extensions": True, "allow_sampling": True},
}


def engine_for(**kwargs) -> AggregationEngine:
    return AggregationEngine(
        [realestate.paper_instance()], realestate.paper_pmapping(), **kwargs
    )


@pytest.mark.parametrize("vectorize", [False, True])
@pytest.mark.parametrize("aggregate_semantics", list(AggregateSemantics))
@pytest.mark.parametrize("mapping_semantics", list(MappingSemantics))
@pytest.mark.parametrize("sql", UNKNOWN_ATTRIBUTE)
def test_unknown_attribute_is_a_schema_error(
    sql, mapping_semantics, aggregate_semantics, vectorize
):
    engine = engine_for(vectorize=vectorize, allow_sampling=True)
    with pytest.raises(SchemaError, match="no attribute"):
        engine.answer(sql, mapping_semantics, aggregate_semantics)
    with pytest.raises(SchemaError, match="no attribute"):
        engine.prepare(sql).answer(mapping_semantics, aggregate_semantics)


def test_nested_outer_level_still_names_subquery_output():
    engine = engine_for()
    answer = engine.answer(
        "SELECT AVG(R.listPrice) FROM (SELECT MAX(R2.listPrice) "
        "FROM T1 AS R2 GROUP BY R2.propertyID) AS R",
        "by-tuple",
        "range",
    )
    assert answer.is_defined


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("aggregate_semantics", list(AggregateSemantics))
@pytest.mark.parametrize("mapping_semantics", list(MappingSemantics))
@pytest.mark.parametrize("sql", NON_NUMERIC_SUM_AVG)
def test_sum_and_avg_need_numbers(
    sql, mapping_semantics, aggregate_semantics, policy
):
    engine = engine_for(**POLICIES[policy])
    with pytest.raises(UnsupportedQueryError, match="numeric argument"):
        engine.answer(sql, mapping_semantics, aggregate_semantics)


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("mapping_semantics", list(MappingSemantics))
@pytest.mark.parametrize("sql", NON_NUMERIC_EXTREMES)
def test_expected_extreme_needs_numbers(sql, mapping_semantics, policy):
    engine = engine_for(**POLICIES[policy])
    with pytest.raises(UnsupportedQueryError, match="expected value"):
        engine.answer(sql, mapping_semantics, "expected-value")
    # The range and distribution of a TEXT/DATE extreme stay answerable.
    for semantics in ("range", "distribution"):
        assert engine.answer(sql, mapping_semantics, semantics).is_defined


@pytest.mark.parametrize("sql", NON_NUMERIC_EXTREMES)
def test_direct_by_table_expected_extreme_needs_numbers(sql):
    # Figure 1's combine step, reached without the planner, still rejects
    # a non-numeric expected value with the typed error.
    table = realestate.paper_instance()
    execute = memory_executor({table.relation.name: table})
    results = [
        (execute(reformulated), probability)
        for reformulated, probability in reformulations(
            parse_query(sql), realestate.paper_pmapping(), unmapped="null"
        )
    ]
    with pytest.raises(UnsupportedQueryError, match="numeric"):
        combine_results(results, AggregateSemantics.EXPECTED_VALUE)


def test_query_endpoint_answers_400():
    registry = DatasetRegistry()
    registry.add(
        "realestate",
        [realestate.paper_instance()],
        realestate.paper_pmapping(),
    )
    service = ServiceThread(
        registry,
        config=ServeConfig(port=0),
        metrics_registry=metrics.MetricsRegistry(),
    ).start()
    cases = [(sql, "SchemaError") for sql in UNKNOWN_ATTRIBUTE] + [
        (sql, "UnsupportedQueryError") for sql in NON_NUMERIC_SUM_AVG
    ]
    try:
        with ServeClient(port=service.port) as client:
            for sql, error_type in cases:
                for mapping_semantics in ("by-table", "by-tuple"):
                    for aggregate_semantics in (
                        "range", "distribution", "expected-value",
                    ):
                        response = client.query(
                            "realestate",
                            sql,
                            mapping_semantics,
                            aggregate_semantics,
                        )
                        assert response.status_code == 400, sql
                        assert response.error_type == error_type, sql
            for sql in NON_NUMERIC_EXTREMES:
                response = client.query(
                    "realestate", sql, "by-tuple", "expected-value"
                )
                assert response.status_code == 400, sql
                assert response.error_type == "UnsupportedQueryError"
    finally:
        service.stop()
