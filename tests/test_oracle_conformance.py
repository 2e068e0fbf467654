"""Every execution lane must agree with the possible-worlds oracle.

:mod:`tests.oracle` recomputes all six semantics cells by explicit world
enumeration with its own condition evaluator and aggregate folds — no code
shared with the engine.  These tests pit every lane against it on small
random instances (``m ** n`` worlds, ``n <= 6``):

* the scalar kernels (the engine's default lanes),
* the naive sequence enumeration (for the non-PTIME cells),
* the vectorized numpy lane,
* the single-pass stream (``answer_stream``),
* the SQLite-backed by-table executor.

Range answers must match *exactly* (the instances carry integer-valued
floats, so every bound is reached without rounding); expected values and
distributions, whose lanes legitimately sum probability products in
different orders, match to 1e-9.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.core.answers import (
    DistributionAnswer,
    ExpectedValueAnswer,
    RangeAnswer,
)
from repro.core.engine import AggregationEngine
from repro.core.naive import naive_by_tuple_answer
from repro.core.semantics import AggregateSemantics, MappingSemantics
from repro.data import realestate
from repro.sql.parser import parse_query
from repro.core.streaming import answer_stream
from tests.conftest import small_problems
from tests.oracle import oracle_answer

QUERIES = {
    "COUNT": "SELECT COUNT(*) FROM {t} WHERE value < {c}",
    "SUM": "SELECT SUM(value) FROM {t} WHERE value < {c}",
    "AVG": "SELECT AVG(value) FROM {t} WHERE value < {c}",
    "MIN": "SELECT MIN(value) FROM {t} WHERE value < {c}",
    "MAX": "SELECT MAX(value) FROM {t} WHERE value < {c}",
}

ALL_SEMANTICS = [
    AggregateSemantics.RANGE,
    AggregateSemantics.DISTRIBUTION,
    AggregateSemantics.EXPECTED_VALUE,
]


def assert_conforms(answer, oracle, label: str) -> None:
    """Exact equality for ranges, 1e-9 for probability-weighted answers."""
    if isinstance(oracle, RangeAnswer):
        assert answer == oracle, f"{label}: {answer!r} != oracle {oracle!r}"
    elif isinstance(oracle, ExpectedValueAnswer):
        assert isinstance(answer, ExpectedValueAnswer), label
        assert oracle.approx_equal(answer), (
            f"{label}: {answer!r} != oracle {oracle!r}"
        )
    elif isinstance(oracle, DistributionAnswer):
        assert isinstance(answer, DistributionAnswer), label
        assert oracle.approx_equal(answer), (
            f"{label}: {answer!r} != oracle {oracle!r}"
        )
    else:  # pragma: no cover - oracle produces only the three shapes here
        raise AssertionError(f"unexpected oracle answer {oracle!r}")


def engines_under_test(problem):
    """(label, engine) pairs covering every in-process lane."""
    return [
        (
            "scalar",
            AggregationEngine(
                problem.table,
                problem.pmapping,
                vectorize=False,
                allow_exponential=True,
            ),
        ),
        (
            "vectorized",
            AggregationEngine(
                problem.table,
                problem.pmapping,
                vectorize=True,
                allow_exponential=True,
            ),
        ),
    ]


class TestByTupleConformance:
    @settings(max_examples=20, deadline=None)
    @given(small_problems())
    def test_all_cells_all_lanes(self, problem):
        for op, template in QUERIES.items():
            query = problem.query(template)
            for semantics in ALL_SEMANTICS:
                oracle = oracle_answer(
                    problem.table,
                    problem.pmapping,
                    query,
                    MappingSemantics.BY_TUPLE,
                    semantics,
                )
                naive = naive_by_tuple_answer(
                    problem.table, problem.pmapping, query, semantics
                )
                assert_conforms(naive, oracle, f"naive/{op}/{semantics.value}")
                for label, engine in engines_under_test(problem):
                    with engine:
                        answer = engine.answer(
                            query, MappingSemantics.BY_TUPLE, semantics
                        )
                    assert_conforms(
                        answer, oracle, f"{label}/{op}/{semantics.value}"
                    )

    @settings(max_examples=20, deadline=None)
    @given(small_problems(min_tuples=2))
    def test_streaming_accumulators(self, problem):
        cells = [
            ("COUNT", AggregateSemantics.RANGE),
            ("COUNT", AggregateSemantics.DISTRIBUTION),
            ("COUNT", AggregateSemantics.EXPECTED_VALUE),
            ("SUM", AggregateSemantics.RANGE),
            ("SUM", AggregateSemantics.EXPECTED_VALUE),
            ("AVG", AggregateSemantics.RANGE),
            ("MIN", AggregateSemantics.RANGE),
            ("MAX", AggregateSemantics.RANGE),
        ]
        for op, semantics in cells:
            query = problem.query(QUERIES[op])
            oracle = oracle_answer(
                problem.table,
                problem.pmapping,
                query,
                MappingSemantics.BY_TUPLE,
                semantics,
            )
            streamed = answer_stream(
                iter(problem.table.rows), problem.pmapping, query, semantics
            )
            assert_conforms(
                streamed, oracle, f"streaming/{op}/{semantics.value}"
            )


class TestPaperQ1:
    """The oracle compares the DATE column with Q1's date literal."""

    def test_by_tuple_answers_are_table_iii(self):
        table = realestate.paper_instance()
        pmapping = realestate.paper_pmapping()
        query = parse_query(realestate.Q1)

        def oracle(semantics):
            return oracle_answer(
                table, pmapping, query, MappingSemantics.BY_TUPLE, semantics
            )

        assert oracle(AggregateSemantics.RANGE) == RangeAnswer(1, 3)
        distribution = oracle(AggregateSemantics.DISTRIBUTION)
        for count, probability in {1: 0.16, 2: 0.48, 3: 0.36}.items():
            assert distribution.probability_of(count) == pytest.approx(probability)
        assert distribution.probability_of(0) == 0.0
        expected = oracle(AggregateSemantics.EXPECTED_VALUE)
        assert expected.value == pytest.approx(2.2)


class TestNonNumericExtremes:
    """By-tuple MIN/MAX range over DATE and TEXT values (the paper's T1)."""

    @pytest.mark.parametrize("vectorize", [False, True])
    @pytest.mark.parametrize(
        "sql, bounds",
        [
            ("SELECT MAX(date) FROM T1", ("2008-01-30", "2008-02-15")),
            ("SELECT MIN(phone) FROM T1", ("215", "215")),
        ],
    )
    def test_engine_and_stream_match_oracle(self, sql, bounds, vectorize):
        table = realestate.paper_instance()
        pmapping = realestate.paper_pmapping()
        query = parse_query(sql)
        oracle = oracle_answer(
            table,
            pmapping,
            query,
            MappingSemantics.BY_TUPLE,
            AggregateSemantics.RANGE,
        )
        assert tuple(str(bound) for bound in oracle.as_tuple()) == bounds
        engine = AggregationEngine([table], pmapping, vectorize=vectorize)
        assert engine.answer(sql, "by-tuple", "range") == oracle
        streamed = answer_stream(
            iter(table.rows), pmapping, query, AggregateSemantics.RANGE
        )
        assert streamed == oracle


class TestByTableConformance:
    @settings(max_examples=20, deadline=None)
    @given(small_problems())
    def test_memory_and_sqlite_backends(self, problem):
        for backend in ("memory", "sqlite"):
            with AggregationEngine(
                problem.table, problem.pmapping, backend=backend
            ) as engine:
                for op, template in QUERIES.items():
                    query = problem.query(template)
                    for semantics in ALL_SEMANTICS:
                        oracle = oracle_answer(
                            problem.table,
                            problem.pmapping,
                            query,
                            MappingSemantics.BY_TABLE,
                            semantics,
                        )
                        answer = engine.answer(
                            query, MappingSemantics.BY_TABLE, semantics
                        )
                        assert_conforms(
                            answer,
                            oracle,
                            f"by-table/{backend}/{op}/{semantics.value}",
                        )

