"""Property tests: grouped evaluation is consistent across execution paths.

For random grouped by-tuple problems, the scalar grouped driver, the
vectorized grouped driver, and per-group manual filtering must all agree.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bytuple_avg import by_tuple_range_avg
from repro.core.bytuple_count import by_tuple_range_count
from repro.core.bytuple_minmax import by_tuple_range_max, by_tuple_range_min
from repro.core.bytuple_sum import by_tuple_range_sum
from repro.core.semantics import AggregateSemantics
from repro.core.vectorized import ColumnarTable, run_grouped_vectorized
from repro.schema.correspondence import AttributeCorrespondence
from repro.schema.mapping import PMapping, RelationMapping
from repro.schema.model import Attribute, AttributeType, Relation
from repro.sql.parser import parse_query
from repro.storage.table import Table

pytest.importorskip("numpy")

RELATION = Relation(
    "SRC",
    [
        Attribute("g", AttributeType.INT),
        Attribute("a1", AttributeType.REAL),
        Attribute("a2", AttributeType.REAL),
        Attribute("a3", AttributeType.REAL),
    ],
)
TARGET = Relation(
    "MED",
    [
        Attribute("g", AttributeType.INT),
        Attribute("value", AttributeType.REAL),
    ],
)

PAIRS = [
    ("COUNT", "SELECT COUNT(*) FROM MED WHERE value < {c} GROUP BY g",
     by_tuple_range_count),
    ("SUM", "SELECT SUM(value) FROM MED WHERE value < {c} GROUP BY g",
     by_tuple_range_sum),
    ("AVG", "SELECT AVG(value) FROM MED WHERE value < {c} GROUP BY g",
     by_tuple_range_avg),
    ("MAX", "SELECT MAX(value) FROM MED WHERE value < {c} GROUP BY g",
     by_tuple_range_max),
    ("MIN", "SELECT MIN(value) FROM MED WHERE value < {c} GROUP BY g",
     by_tuple_range_min),
]

_VALUES = st.integers(min_value=-5, max_value=9).map(float)


@st.composite
def grouped_problems(draw):
    num_mappings = draw(st.integers(min_value=1, max_value=3))
    num_rows = draw(st.integers(min_value=1, max_value=12))
    rows = [
        (
            draw(st.integers(min_value=0, max_value=3)),
            draw(_VALUES),
            draw(_VALUES),
            draw(_VALUES),
        )
        for _ in range(num_rows)
    ]
    table = Table(RELATION, rows)
    attributes = draw(st.permutations(["a1", "a2", "a3"]))[:num_mappings]
    weights = [draw(st.integers(min_value=1, max_value=5)) for _ in attributes]
    total = sum(weights)
    alternatives = [
        (
            RelationMapping(
                RELATION, TARGET,
                [AttributeCorrespondence("g", "g"),
                 AttributeCorrespondence(attr, "value")],
                name=f"m{i}",
            ),
            weight / total,
        )
        for i, (attr, weight) in enumerate(zip(attributes, weights))
    ]
    pmapping = PMapping(RELATION, TARGET, alternatives)
    threshold = float(draw(st.integers(min_value=-4, max_value=9)))
    return table, pmapping, threshold


class TestGroupedPaths:
    @settings(max_examples=50, deadline=None)
    @given(grouped_problems())
    def test_scalar_and_vectorized_grouped_agree(self, problem):
        table, pmapping, threshold = problem
        columnar = ColumnarTable(table)
        for name, template, scalar_fn in PAIRS:
            query = parse_query(template.format(c=threshold))
            scalar = scalar_fn(table, pmapping, query)
            vector = run_grouped_vectorized(
                columnar, pmapping, query, AggregateSemantics.RANGE
            )
            assert set(scalar.groups) == set(vector.groups), name
            for key, answer in scalar:
                other = vector[key]
                if answer.is_defined:
                    assert other.low == pytest.approx(answer.low), (name, key)
                    assert other.high == pytest.approx(answer.high), (name, key)
                else:
                    assert not other.is_defined, (name, key)

    @settings(max_examples=30, deadline=None)
    @given(grouped_problems())
    def test_grouped_equals_manual_per_group_filtering(self, problem):
        table, pmapping, threshold = problem
        grouped_query = parse_query(
            f"SELECT SUM(value) FROM MED WHERE value < {threshold} GROUP BY g"
        )
        flat_query = parse_query(
            f"SELECT SUM(value) FROM MED WHERE value < {threshold}"
        )
        grouped = by_tuple_range_sum(table, pmapping, grouped_query)
        for key in {row["g"] for row in table.iter_rows()}:
            subset = table.select(lambda row, k=key: row["g"] == k)
            direct = by_tuple_range_sum(subset, pmapping, flat_query)
            assert grouped[key] == direct
