"""Grouped evaluation is consistent across execution paths.

For random grouped by-tuple problems, the scalar grouped driver, the
vectorized grouped driver, and per-group manual filtering must all agree.
The segmented array kernels (one call per grouped query) must equal the
row walk on every PTIME cell and group shape, prepared and unprepared,
with the same key order, DP accounting and guardrail trips.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import AggregationEngine, Budget, BudgetExceededError, QueryTimeoutError
from repro.core import guard as guardmod
from repro.core.answers import RangeAnswer
from repro.core.bytuple_avg import range_avg_kernel
from repro.core.bytuple_count import range_count_kernel
from repro.core.bytuple_minmax import range_max_kernel, range_min_kernel
from repro.core.bytuple_sum import range_sum_kernel
from repro.core.common import run_possibly_grouped
from repro.core.semantics import AggregateSemantics, MappingSemantics
from repro.core.vectorized import ColumnarTable, VectorizedProblem, answer_problem
from repro.data import ebay
from repro.obs import metrics
from repro.schema.correspondence import AttributeCorrespondence
from repro.schema.mapping import PMapping, RelationMapping
from repro.schema.model import Attribute, AttributeType, Relation
from repro.sql.parser import parse_query
from repro.storage.table import Table
from tests.oracle import oracle_answer

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
     range_count_kernel),
    ("SUM", "SELECT SUM(value) FROM MED WHERE value < {c} GROUP BY g",
     range_sum_kernel),
    ("AVG", "SELECT AVG(value) FROM MED WHERE value < {c} GROUP BY g",
     range_avg_kernel),
    ("MAX", "SELECT MAX(value) FROM MED WHERE value < {c} GROUP BY g",
     range_max_kernel),
    ("MIN", "SELECT MIN(value) FROM MED WHERE value < {c} GROUP BY g",
     range_min_kernel),
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
        for name, template, kernel in PAIRS:
            query = parse_query(template.format(c=threshold))
            scalar = run_possibly_grouped(table, pmapping, query, kernel)
            vector = answer_problem(
                VectorizedProblem(columnar, pmapping, query),
                AggregateSemantics.RANGE,
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
        grouped = run_possibly_grouped(
            table, pmapping, grouped_query, range_sum_kernel
        )
        for key in {row["g"] for row in table.iter_rows()}:
            subset = table.select(lambda row, k=key: row["g"] == k)
            direct = run_possibly_grouped(
                subset, pmapping, flat_query, range_sum_kernel
            )
            assert grouped[key] == direct


# -- segmented array kernels: every PTIME cell, every group shape ------------

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
CELL_IDS = [f"{a.split('(')[0].lower()}-{s.value}" for a, s in CELLS]
GRID_QUERY = "SELECT {aggregate} FROM MED WHERE value < 4 GROUP BY g"

#: Group sizes per shape; every shape also gets a NULL-key group and a
#: group in which no row qualifies, and its rows are shuffled.
SHAPES = {
    "1": [1] * 40,
    "2": [2] * 30,
    "9": [9] * 12,
    "43": [43] * 6,
    "204": [204] * 3,
    "skewed": [1] * 1000 + [5000],
}
SMALL_SHAPES = ["1", "2", "9"]
DEAD_KEY = -1


def _grid_problem(shape: str):
    """A shuffled two-mapping table with the shape's groups."""
    rng = random.Random(len(SHAPES[shape]))

    def value():
        return None if rng.random() < 0.1 else float(rng.randint(-5, 9))

    rows = [
        (key, value(), value(), 0.0)
        for key, size in enumerate(SHAPES[shape])
        for _ in range(size)
    ]
    rows += [(None, value(), value(), 0.0) for _ in range(3)]
    rows += [(DEAD_KEY, 8.0, 9.0, 0.0), (DEAD_KEY, 5.0, None, 0.0)]
    rng.shuffle(rows)
    alternatives = [
        (
            RelationMapping(
                RELATION, TARGET,
                [AttributeCorrespondence("g", "g"),
                 AttributeCorrespondence(attr, "value")],
                name=f"m{attr}",
            ),
            probability,
        )
        for attr, probability in (("a1", 0.4), ("a2", 0.6))
    ]
    return Table(RELATION, rows), PMapping(RELATION, TARGET, alternatives)


def _first_appearance(table: Table) -> list:
    return list(dict.fromkeys(row[0] for row in table.rows))


class TestSegmentedKernels:
    """One array-kernel call per grouped query equals the row walk per group."""

    @pytest.mark.parametrize("shape", list(SHAPES))
    def test_every_cell_matches_the_row_walk(self, shape):
        table, pmapping = _grid_problem(shape)
        keys = _first_appearance(table)
        row_walk = AggregationEngine([table], pmapping, vectorize=False)
        for aggregate, semantics in CELLS:
            text = GRID_QUERY.format(aggregate=aggregate)
            expected = row_walk.answer(text, MappingSemantics.BY_TUPLE, semantics)
            assert list(expected.groups) == keys
            with AggregationEngine([table], pmapping) as engine:
                one_shot = engine.answer(text, MappingSemantics.BY_TUPLE, semantics)
                prepared = engine.prepare(text).answer(
                    MappingSemantics.BY_TUPLE, semantics
                )
                snapshot = engine.metrics_snapshot()
            assert snapshot["vectorized.hit"] == 2
            assert "vectorized.fallback" not in snapshot
            for answer in (one_shot, prepared):
                assert answer == expected, (aggregate, semantics)
                assert list(answer.groups) == keys, (aggregate, semantics)
            dead = expected[DEAD_KEY]
            if semantics is AggregateSemantics.RANGE and aggregate != "COUNT(*)":
                assert dead == RangeAnswer(None, None)
            if aggregate == "SUM(value)" and semantics is not AggregateSemantics.RANGE:
                assert dead.value is None

    @pytest.mark.parametrize("shape", SMALL_SHAPES)
    def test_small_shapes_agree_with_the_oracle(self, shape):
        table, pmapping = _grid_problem(shape)
        flat = "SELECT {aggregate} FROM MED WHERE value < 4"
        with AggregationEngine([table], pmapping) as engine:
            for aggregate, semantics in CELLS:
                grouped = engine.prepare(
                    GRID_QUERY.format(aggregate=aggregate)
                ).answer(MappingSemantics.BY_TUPLE, semantics)
                query = parse_query(flat.format(aggregate=aggregate))
                for key, answer in grouped:
                    rows = Table(
                        RELATION, [row for row in table.rows if row[0] == key]
                    )
                    oracle = oracle_answer(
                        rows, pmapping, query, MappingSemantics.BY_TUPLE,
                        semantics,
                    )
                    if isinstance(oracle, RangeAnswer):
                        assert answer == oracle, (aggregate, key)
                    else:
                        assert oracle.approx_equal(answer), (aggregate, key)

    @pytest.mark.parametrize("shape", ["9", "skewed"])
    def test_count_dp_accounting_matches_the_row_walk(self, shape):
        table, pmapping = _grid_problem(shape)
        text = GRID_QUERY.format(aggregate="COUNT(*)")
        observed = []
        for vectorize in (False, True):
            registry = metrics.MetricsRegistry()
            with metrics.use_registry(registry):
                AggregationEngine([table], pmapping, vectorize=vectorize).answer(
                    text, MappingSemantics.BY_TUPLE, AggregateSemantics.DISTRIBUTION
                )
            snapshot = registry.snapshot()
            width = snapshot["count_dp.width"]
            observed.append(
                (
                    snapshot["count_dp.rows"],
                    snapshot["count_dp.cells"],
                    {k: width[k] for k in ("count", "sum", "min", "max")},
                )
            )
        assert observed[0] == observed[1]
        assert observed[0][2]["count"] == len(_first_appearance(table))

    @staticmethod
    def _widest(table, pmapping) -> int:
        """The row walk's widest COUNT DP table over the groups."""
        registry = metrics.MetricsRegistry()
        with metrics.use_registry(registry):
            AggregationEngine([table], pmapping, vectorize=False).answer(
                GRID_QUERY.format(aggregate="COUNT(*)"),
                MappingSemantics.BY_TUPLE,
                AggregateSemantics.DISTRIBUTION,
            )
        return int(registry.snapshot()["count_dp.width"]["max"])

    @pytest.mark.parametrize("shape", ["43", "skewed"])
    def test_max_support_trips_at_the_largest_group(self, shape):
        table, pmapping = _grid_problem(shape)
        text = GRID_QUERY.format(aggregate="COUNT(*)")
        widest = self._widest(table, pmapping)
        for vectorize in (False, True):
            engine = AggregationEngine([table], pmapping, vectorize=vectorize)
            engine.answer(
                text, "by-tuple", "distribution",
                budget=Budget(max_support=widest),
            )
            with pytest.raises(BudgetExceededError) as info:
                engine.answer(
                    text, "by-tuple", "distribution",
                    budget=Budget(max_support=widest - 1),
                )
            assert info.value.resource == "support"
            assert info.value.limit == widest - 1
            assert engine.metrics_snapshot().get("vectorized.hit", 0) == (
                1 if vectorize else 0
            )

    def test_deadline_checked_once_per_dp_step(self, monkeypatch):
        table, pmapping = _grid_problem("43")
        steps = self._widest(table, pmapping) - 1
        calls = []
        check = guardmod.ExecutionGuard.check_deadline

        def counting(guard):
            calls.append(1)
            return check(guard)

        monkeypatch.setattr(guardmod.ExecutionGuard, "check_deadline", counting)
        engine = AggregationEngine([table], pmapping)
        text = GRID_QUERY.format(aggregate="COUNT(*)")
        engine.answer(
            text, "by-tuple", "distribution", budget=Budget(timeout_ms=60_000)
        )
        assert engine.metrics_snapshot()["vectorized.hit"] == 1
        assert len(calls) >= steps
        with pytest.raises(QueryTimeoutError):
            engine.answer(
                text, "by-tuple", "distribution", budget=Budget(timeout_ms=0)
            )


class TestGroupKeyOrder:
    """Every body emits groups in order of their first row in the table."""

    @pytest.mark.parametrize(("aggregate", "semantics"), CELLS, ids=CELL_IDS)
    def test_first_appearance_order(self, aggregate, semantics):
        auctions = ebay.generate_auctions(6, mean_bids=60, seed=3, min_bids=1)
        rows = list(auctions.rows)
        random.Random(1).shuffle(rows)
        table = Table(auctions.relation, rows)
        auction = table.relation.index_of("auction")
        keys = list(dict.fromkeys(row[auction] for row in rows))
        assert keys != sorted(keys)
        pmapping = ebay.paper_pmapping()
        text = (
            f"SELECT {aggregate.replace('value', 'price')} FROM T2 "
            "WHERE price > 100 GROUP BY auctionID"
        )
        bodies = []
        for vectorize in (False, True):
            with AggregationEngine([table], pmapping, vectorize=vectorize) as engine:
                bodies.append(engine.answer(text, "by-tuple", semantics))
                bodies.append(engine.prepare(text).answer("by-tuple", semantics))
        for answer in bodies:
            assert list(answer.groups) == keys
            assert answer == bodies[0]

    @pytest.mark.parametrize("shape", ["9", "43"])
    def test_extension_lane_over_a_pinned_sorted_problem(self, shape):
        # The extension lane folds row vectors per group, in table order,
        # on a prepared query whose range cell pinned the group-sorted
        # arrays.
        table, pmapping = _grid_problem(shape)
        text = GRID_QUERY.format(aggregate="MAX(value)")
        with AggregationEngine([table], pmapping, use_extensions=True) as engine:
            handle = engine.prepare(text)
            handle.answer("by-tuple", "range")
            answer = handle.answer("by-tuple", "distribution")
            compiled = handle.compiled
            problem = compiled.problem(engine.context.columnar_for(compiled))
            assert problem.groups is not None
        expected = AggregationEngine(
            [table], pmapping, use_extensions=True, vectorize=False
        ).answer(text, "by-tuple", "distribution")
        assert answer == expected
        assert list(answer.groups) == list(expected.groups)

    def test_int_keys_beyond_float64_stay_apart(self):
        # 2**53 and 2**53 + 1 are one float64: the array body declines
        # such a key column, and the row walk keeps the groups apart.
        rows = [(2**53 + i % 2, float(i), float(-i), 0.0) for i in range(80)]
        table, pmapping = Table(RELATION, rows), _grid_problem("1")[1]
        text = GRID_QUERY.format(aggregate="SUM(value)")
        with AggregationEngine([table], pmapping) as engine:
            answer = engine.answer(text, "by-tuple", "range")
            assert engine.metrics_snapshot()["vectorized.fallback"] == 1
        expected = AggregationEngine([table], pmapping, vectorize=False).answer(
            text, "by-tuple", "range"
        )
        assert list(answer.groups) == [2**53, 2**53 + 1]
        assert answer == expected
