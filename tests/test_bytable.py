"""Tests for the generic by-table algorithm (:mod:`repro.core.bytable`)."""

from __future__ import annotations

import datetime
import random

import pytest

from repro.core.answers import (
    DistributionAnswer,
    ExpectedValueAnswer,
    GroupedAnswer,
    RangeAnswer,
)
from repro.core.bytable import combine_results, combine_scalar_results
from repro.core.engine import AggregationEngine
from repro.core.execute import _by_table_results
from repro.core.semantics import AggregateSemantics
from repro.data import realestate
from repro.exceptions import EvaluationError, UnsupportedQueryError
from repro.schema.mapping import AttributeCorrespondence, PMapping, RelationMapping
from repro.schema.model import Attribute, AttributeType, Relation
from repro.sql.parser import parse_query
from repro.storage.table import Table


def _per_mapping(table, pmapping, query, backend="memory"):
    """Figure 1's per-mapping answers from the engine's by-table loop on
    ``backend``'s executor (no columnar snapshot, so no array fold)."""
    with AggregationEngine(
        [table], pmapping, backend=backend, vectorize=False
    ) as engine:
        return _by_table_results(engine.plan(query, "by-table", "range"))


def _by_table(table, pmapping, query, semantics, backend="memory"):
    """The by-table answer from ``backend``'s executor."""
    with AggregationEngine(
        [table], pmapping, backend=backend, vectorize=False
    ) as engine:
        return engine.answer(query, "by-table", semantics)


class TestCombineScalarResults:
    def test_range(self):
        answer = combine_scalar_results(
            [(3, 0.6), (1, 0.4)], AggregateSemantics.RANGE
        )
        assert answer == RangeAnswer(1, 3)

    def test_expected_value_of_non_numeric_values_is_unsupported(self):
        dates = [(datetime.date(2008, 1, 30), 0.6), (datetime.date(2008, 2, 15), 0.4)]
        for results in (dates, [("215", 1.0)]):
            with pytest.raises(UnsupportedQueryError, match="numeric"):
                combine_scalar_results(
                    results, AggregateSemantics.EXPECTED_VALUE
                )

    def test_distribution_merges_equal_values(self):
        answer = combine_scalar_results(
            [(5, 0.25), (5, 0.25), (7, 0.5)], AggregateSemantics.DISTRIBUTION
        )
        assert answer.distribution.probability_of(5) == pytest.approx(0.5)

    def test_expected_value(self):
        answer = combine_scalar_results(
            [(3, 0.6), (1, 0.4)], AggregateSemantics.EXPECTED_VALUE
        )
        assert answer.value == pytest.approx(2.2)

    def test_undefined_mass_recorded(self):
        answer = combine_scalar_results(
            [(None, 0.6), (10, 0.4)], AggregateSemantics.DISTRIBUTION
        )
        assert answer.undefined_probability == pytest.approx(0.6)
        assert answer.distribution.probability_of(10) == pytest.approx(1.0)

    def test_expected_value_conditions_on_defined(self):
        answer = combine_scalar_results(
            [(None, 0.5), (10, 0.5)], AggregateSemantics.EXPECTED_VALUE
        )
        assert answer.value == pytest.approx(10.0)

    def test_all_undefined(self):
        for semantics, expected in [
            (AggregateSemantics.RANGE, RangeAnswer(None, None)),
            (AggregateSemantics.EXPECTED_VALUE, ExpectedValueAnswer(None)),
        ]:
            assert combine_scalar_results([(None, 1.0)], semantics) == expected
        dist = combine_scalar_results(
            [(None, 1.0)], AggregateSemantics.DISTRIBUTION
        )
        assert not dist.is_defined

    def test_empty_rejected(self):
        with pytest.raises(EvaluationError):
            combine_results([], AggregateSemantics.RANGE)


class TestCombineGroupedResults:
    def test_union_of_groups(self):
        results = [
            ({"a": 1, "b": 2}, 0.5),
            ({"a": 3}, 0.5),
        ]
        answer = combine_results(results, AggregateSemantics.RANGE)
        assert isinstance(answer, GroupedAnswer)
        assert answer["a"] == RangeAnswer(1, 3)
        # Group b is undefined under the second mapping.
        assert answer["b"] == RangeAnswer(2, 2)

    def test_grouped_distribution_undefined_mass(self):
        results = [({"a": 1}, 0.5), ({}, 0.5)]
        answer = combine_results(results, AggregateSemantics.DISTRIBUTION)
        assert answer["a"].undefined_probability == pytest.approx(0.5)

    def test_mixed_scalar_and_grouped_rejected(self):
        with pytest.raises(EvaluationError, match="grouped"):
            combine_results([({"a": 1}, 0.5), (3, 0.5)],
                            AggregateSemantics.RANGE)


class TestByTableEndToEnd:
    def test_results_per_mapping(self, ds1, q1, pm1):
        results = _per_mapping(ds1, pm1, q1)
        assert results == [(3, 0.6), (1, 0.4)]

    def test_memory_and_sqlite_agree_on_q1(self, ds1, q1, pm1):
        memory = _by_table(ds1, pm1, q1, AggregateSemantics.DISTRIBUTION)
        sqlite = _by_table(
            ds1, pm1, q1, AggregateSemantics.DISTRIBUTION, backend="sqlite"
        )
        assert memory.approx_equal(sqlite)

    def test_memory_and_sqlite_agree_on_nested_q2(self, ds2, q2, pm2):
        memory = _by_table(ds2, pm2, q2, AggregateSemantics.EXPECTED_VALUE)
        sqlite = _by_table(
            ds2, pm2, q2, AggregateSemantics.EXPECTED_VALUE, backend="sqlite"
        )
        assert memory.value == pytest.approx(sqlite.value)

    def test_grouped_by_table(self, ds2, pm2):
        q = parse_query("SELECT MAX(price) FROM T2 GROUP BY auctionID")
        answer = _by_table(ds2, pm2, q, AggregateSemantics.RANGE)
        assert isinstance(answer, GroupedAnswer)
        assert answer[34] == RangeAnswer(336.94, 349.99)
        assert answer[38] == RangeAnswer(438.05, 439.95)

    def test_grouped_by_table_sqlite_agrees(self, ds2, pm2):
        q = parse_query("SELECT MAX(price) FROM T2 GROUP BY auctionID")
        memory = _by_table(ds2, pm2, q, AggregateSemantics.RANGE)
        sqlite = _by_table(ds2, pm2, q, AggregateSemantics.RANGE, backend="sqlite")
        assert memory == sqlite

    def test_date_valued_min_from_sqlite(self, ds1):
        # MIN over a DATE attribute comes back as a date from both paths.
        import datetime

        pm = realestate.paper_pmapping()
        q = parse_query("SELECT MIN(date) FROM T1")
        answer = _by_table(ds1, pm, q, AggregateSemantics.RANGE, backend="sqlite")
        assert answer.low == datetime.date(2008, 1, 1)

    def test_sum_distribution_equals_paper_values(self, ds2, q2_prime, pm2):
        answer = _by_table(ds2, pm2, q2_prime, AggregateSemantics.DISTRIBUTION)
        assert answer.distribution.probability_of(1076.93) == pytest.approx(0.3)
        assert answer.distribution.probability_of(931.94) == pytest.approx(0.7)


# -- the array-backed by-table path -------------------------------------------

_SOURCE = Relation(
    "S",
    [
        Attribute("id", AttributeType.INT),
        Attribute("p", AttributeType.REAL),
        Attribute("q", AttributeType.REAL),
        Attribute("n", AttributeType.INT),
        Attribute("m", AttributeType.INT),
        Attribute("t", AttributeType.TEXT),
        Attribute("d", AttributeType.DATE),
    ],
)
_TARGET = Relation(
    "T",
    [
        Attribute("id", AttributeType.INT),
        Attribute("price", AttributeType.REAL),
        Attribute("qty", AttributeType.INT),
        Attribute("label", AttributeType.TEXT),
        Attribute("day", AttributeType.DATE),
        Attribute("extra", AttributeType.REAL),
    ],
)


def _mapping(name, pairs):
    return RelationMapping(
        _SOURCE,
        _TARGET,
        [AttributeCorrespondence("id", "id")]
        + [AttributeCorrespondence(s, t) for s, t in pairs],
        name=name,
    )


#: ``extra`` is unmapped under m1, so its WHERE references read NULL there.
_PMAPPING = PMapping(
    _SOURCE,
    _TARGET,
    [
        (_mapping("m0", [("p", "price"), ("n", "qty"), ("t", "label"),
                         ("d", "day"), ("q", "extra")]), 0.5),
        (_mapping("m1", [("q", "price"), ("m", "qty"), ("t", "label"),
                         ("d", "day")]), 0.3),
        (_mapping("m2", [("q", "price"), ("n", "qty"), ("t", "label"),
                         ("d", "day"), ("p", "extra")]), 0.2),
    ],
)


def _typed_table(rows: int = 40, seed: int = 5) -> Table:
    """NULL-bearing rows.  REAL values are quarter-multiples, so SQLite's
    own SUM/AVG rounding cannot differ from ``fsum`` — the comparison is
    about the array path, not about the two executors' float sums."""
    rng = random.Random(seed)

    def maybe(value):
        return None if rng.random() < 0.2 else value

    return Table(
        _SOURCE,
        [
            (
                i,
                maybe(rng.randint(-40, 400) / 4),
                maybe(rng.randint(-40, 400) / 4),
                maybe(rng.randint(-5, 60)),
                maybe(rng.randint(-5, 60)),
                maybe(rng.choice(["x", "y", "z"])),
                maybe(datetime.date(2024, 1, rng.randint(1, 28))),
            )
            for i in range(rows)
        ],
    )


_ARRAY_QUERIES = [
    f"SELECT {aggregate} FROM T{where}"
    for aggregate in (
        "COUNT(*)", "COUNT(price)", "COUNT(qty)", "COUNT(label)",
        "COUNT(day)", "SUM(price)", "SUM(qty)", "AVG(price)", "AVG(qty)",
        "MIN(price)", "MIN(qty)", "MAX(price)", "MAX(qty)",
    )
    for where in (
        "", " WHERE extra > 20", " WHERE qty >= 30", " WHERE label = 'x'",
        " WHERE day < '2024-01-10'", " WHERE price > 1000",
    )
]

_FALLBACK_QUERIES = [
    "SELECT COUNT(DISTINCT qty) FROM T",
    "SELECT MAX(DISTINCT price) FROM T",
    "SELECT SUM(price) FROM T GROUP BY label",
    "SELECT AVG(R1.price) FROM "
    "(SELECT MAX(R2.price) FROM T AS R2 GROUP BY R2.label) AS R1",
    "SELECT MIN(label) FROM T",
    "SELECT MAX(day) FROM T WHERE qty > 3",
]

#: Every semantics cell of a sample of the array-path queries and of each
#: fallback shape (TEXT/DATE values have no expected value).
_ENGINE_CELLS = [
    (text, semantics)
    for text in _ARRAY_QUERIES[::7] + _FALLBACK_QUERIES
    for semantics in AggregateSemantics
    if not (
        semantics is AggregateSemantics.EXPECTED_VALUE
        and ("label)" in text or "day)" in text)
    )
]


def _typed(results):
    return [(value, type(value), p) for value, p in results]


class TestColumnarByTable:
    @pytest.fixture(scope="class")
    def table(self):
        return _typed_table()

    @pytest.mark.parametrize("text", _ARRAY_QUERIES)
    def test_equals_both_executors(self, table, text):
        from repro.core.bytable import columnar_results
        from repro.core.vectorized import VectorizedProblem
        from repro.storage.columnar import ColumnarTable

        query = parse_query(text)
        problem = VectorizedProblem(ColumnarTable(table), _PMAPPING, query)
        arrays = columnar_results(problem)
        memory = _per_mapping(table, _PMAPPING, query)
        sqlite = _per_mapping(table, _PMAPPING, query, backend="sqlite")
        assert _typed(arrays) == _typed(memory) == _typed(sqlite)

    def test_int_sum_beyond_float_exactness_declines(self):
        from repro.core.bytable import columnar_results
        from repro.core.vectorized import VectorizedProblem
        from repro.storage.columnar import ColumnarTable

        big = Table(
            _SOURCE,
            [(i, 1.0, 1.0, 2**52, 2**52, "x", None) for i in range(3)],
        )
        query = parse_query("SELECT SUM(qty) FROM T")
        problem = VectorizedProblem(ColumnarTable(big), _PMAPPING, query)
        assert columnar_results(problem) is None

    @pytest.mark.parametrize("text, semantics", _ENGINE_CELLS)
    def test_engine_lane(self, table, text, semantics):
        from repro import AggregationEngine

        engine = AggregationEngine([table], _PMAPPING)
        answer = engine.prepare(text).answer("by-table", semantics)
        expected = _by_table(table, _PMAPPING, text, semantics)
        assert answer == expected
        assert _answer_types(answer) == _answer_types(expected)
        used_arrays = engine.metrics_snapshot().get("bytable.columnar", 0)
        assert used_arrays == (0 if text in _FALLBACK_QUERIES else 1)

    def test_sqlite_engine_keeps_the_dbms(self, table):
        from repro import AggregationEngine

        with AggregationEngine([table], _PMAPPING, backend="sqlite") as engine:
            engine.prepare(_ARRAY_QUERIES[0]).answer("by-table", "range")
            assert "bytable.columnar" not in engine.metrics_snapshot()


def _answer_types(answer):
    if isinstance(answer, GroupedAnswer):
        return {key: _answer_types(value) for key, value in answer}
    if isinstance(answer, RangeAnswer):
        return (type(answer.low), type(answer.high))
    if isinstance(answer, DistributionAnswer):
        if answer.distribution is None:
            return None
        return sorted(
            (repr(v), type(v)) for v, _ in answer.distribution.items()
        )
    return type(answer.value)
