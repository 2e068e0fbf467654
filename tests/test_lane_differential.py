"""Differential fuzzing: every execution lane answers every query alike.

Random relations, p-mappings, and WHERE clauses (comparisons, AND/OR/NOT,
BETWEEN, IN — exercising the full three-valued-logic surface) run through
every lane applicable to each PTIME by-tuple cell:

* the Figure 2-5 row walks (baseline, ``vectorize=False``),
* the by-tuple PTIME lane's array body (``vectorize=True``) — whose
  float folds are factored through the same exact primitives as the row
  walks (``fsum``-equivalent totals, the shared AVG greedy,
  element-exact DP updates), so the comparison is strict ``==``,
* ``answer_many`` on a batch of sampled cells, which must return the
  same answers in the same order as answering one by one.

Instances here are larger than the oracle's (up to ~50 rows): no
enumeration is needed when lanes cross-check each other.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import AggregationEngine
from repro.core.semantics import AggregateSemantics, MappingSemantics
from repro.data import synthetic
from repro.schema.correspondence import AttributeCorrespondence
from repro.schema.mapping import PMapping, RelationMapping
from repro.storage.table import Table

#: The eight PTIME flat by-tuple cells, each with an array kernel.
CELLS = [
    ("COUNT(*)", AggregateSemantics.RANGE),
    ("COUNT(*)", AggregateSemantics.DISTRIBUTION),
    ("COUNT(*)", AggregateSemantics.EXPECTED_VALUE),
    ("SUM(value)", AggregateSemantics.RANGE),
    ("SUM(value)", AggregateSemantics.EXPECTED_VALUE),
    ("AVG(value)", AggregateSemantics.RANGE),
    ("MIN(value)", AggregateSemantics.RANGE),
    ("MAX(value)", AggregateSemantics.RANGE),
]

#: Aggregates whose by-tuple distribution has no PTIME algorithm: with
#: sampling allowed, a batch of them plans to the sampling lane.
SAMPLED = ["SUM(value)", "AVG(value)", "MAX(value)", "MIN(value)"]

_VALUES = st.integers(min_value=-5, max_value=9).map(float)

_CONDITIONS = [
    "value < {x}",
    "value >= {x}",
    "value BETWEEN {x} AND {y}",
    "value NOT BETWEEN {x} AND {y}",
    "value IN ({x}, {y}, {z})",
    "NOT (value = {x})",
    "value < {x} OR value > {y}",
    "value >= {x} AND id <= {k}",
    "value <= {x} AND (value > {y} OR id > {k})",
]


@st.composite
def lane_problems(draw):
    """A mid-sized instance plus a random WHERE clause."""
    num_attributes = draw(st.integers(min_value=1, max_value=4))
    num_mappings = draw(
        st.integers(min_value=1, max_value=min(3, num_attributes))
    )
    num_rows = draw(st.integers(min_value=1, max_value=50))
    relation = synthetic.source_relation(num_attributes)
    rows = [
        (i + 1,) + tuple(draw(_VALUES) for _ in range(num_attributes))
        for i in range(num_rows)
    ]
    table = Table(relation, rows)
    target = synthetic.mediated_relation()
    attributes = draw(
        st.permutations([f"a{i}" for i in range(1, num_attributes + 1)])
    )[:num_mappings]
    weights = [draw(st.integers(min_value=1, max_value=8)) for _ in attributes]
    total = sum(weights)
    pmapping = PMapping(
        relation,
        target,
        [
            (
                RelationMapping(
                    relation,
                    target,
                    [
                        AttributeCorrespondence("id", "id"),
                        AttributeCorrespondence(attribute, "value"),
                    ],
                    name=f"m{index + 1}",
                ),
                weight / total,
            )
            for index, (attribute, weight) in enumerate(
                zip(attributes, weights)
            )
        ],
    )
    template = draw(st.sampled_from(_CONDITIONS))
    where = template.format(
        x=draw(st.integers(min_value=-4, max_value=9)),
        y=draw(st.integers(min_value=-4, max_value=9)),
        z=draw(st.integers(min_value=-4, max_value=9)),
        k=draw(st.integers(min_value=0, max_value=50)),
    )
    return table, pmapping, where


def _assert_vectorized_close(baseline, answer, label):
    """The columnar lane promises bit-identity on every PTIME cell."""
    assert answer == baseline, label


class TestLanesAgree:
    @settings(max_examples=40, deadline=None)
    @given(lane_problems())
    def test_vectorized_matches_scalar(self, case):
        table, pmapping, where = case
        scalar = AggregationEngine(table, pmapping, vectorize=False)
        vectorized = AggregationEngine(table, pmapping, vectorize=True)
        with scalar, vectorized:
            for aggregate, semantics in CELLS:
                query = f"SELECT {aggregate} FROM MED WHERE {where}"
                baseline = scalar.answer(
                    query, MappingSemantics.BY_TUPLE, semantics
                )
                label = f"{aggregate}/{semantics.value} WHERE {where}"
                _assert_vectorized_close(
                    baseline,
                    vectorized.answer(
                        query, MappingSemantics.BY_TUPLE, semantics
                    ),
                    f"vectorized lane diverged: {label}",
                )

    @settings(max_examples=15, deadline=None)
    @given(lane_problems())
    def test_grouped_queries_fall_back_identically(self, case):
        """GROUP BY on a vectorizing engine (the columnar partition) must
        agree with scalar."""
        table, pmapping, where = case
        query = f"SELECT SUM(value) FROM MED WHERE {where} GROUP BY id"
        scalar = AggregationEngine(table, pmapping, vectorize=False)
        vectorized = AggregationEngine(table, pmapping, vectorize=True)
        with scalar, vectorized:
            baseline = scalar.answer(
                query, MappingSemantics.BY_TUPLE, AggregateSemantics.RANGE
            )
            assert (
                vectorized.answer(
                    query, MappingSemantics.BY_TUPLE, AggregateSemantics.RANGE
                )
                == baseline
            )


class TestAnswerMany:
    @settings(max_examples=10, deadline=None)
    @given(lane_problems())
    def test_parallel_batch_matches_sequential(self, case):
        table, pmapping, where = case
        queries = [
            f"SELECT {aggregate} FROM MED WHERE {where}"
            for aggregate in SAMPLED
        ]
        with AggregationEngine(
            table, pmapping, allow_sampling=True, samples=64, seed=7
        ) as engine:
            sequential = [
                engine.answer(
                    query,
                    MappingSemantics.BY_TUPLE,
                    AggregateSemantics.DISTRIBUTION,
                )
                for query in queries
            ]
            batch = engine.answer_many(
                queries,
                MappingSemantics.BY_TUPLE,
                AggregateSemantics.DISTRIBUTION,
            )
        assert batch == sequential

    def test_sqlite_backend_answers_sequentially(self):
        """A SQLite engine answers a sampled batch like one by one."""
        relation = synthetic.source_relation(2)
        table = synthetic.generate_source_table(
            32, 2, seed=5, relation=relation
        )
        pmapping = synthetic.generate_pmapping(relation, 2, seed=5)
        queries = [
            "SELECT SUM(value) FROM MED WHERE value < 400",
            "SELECT SUM(value) FROM MED WHERE value < 600",
        ]
        with AggregationEngine(
            table, pmapping, backend="sqlite", allow_sampling=True,
            samples=64, seed=7,
        ) as engine:
            batch = engine.answer_many(
                queries,
                MappingSemantics.BY_TUPLE,
                AggregateSemantics.DISTRIBUTION,
            )
            sequential = [
                engine.answer(
                    query,
                    MappingSemantics.BY_TUPLE,
                    AggregateSemantics.DISTRIBUTION,
                )
                for query in queries
            ]
        assert batch == sequential
