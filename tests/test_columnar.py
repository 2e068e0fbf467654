"""Tests for the first-class columnar storage layer.

Covers the :mod:`repro.storage.columnar` contract (typed arrays, null
masks, build-once snapshots), the edge-dtype differentials (NULL-heavy
columns, empty tables, TEXT under LIKE / IS NULL, single-row tables —
strict ``==`` against the scalar lane on all 8 flat PTIME by-tuple
cells), and the engine cache lifecycle (``invalidate()``/``close()``
must drop cached snapshots).
"""

from __future__ import annotations

import datetime
import pickle

import numpy as np
import pytest

from repro.core.engine import AggregationEngine
from repro.core.semantics import AggregateSemantics, MappingSemantics
from repro.data import synthetic
from repro.schema.correspondence import AttributeCorrespondence
from repro.schema.mapping import PMapping, RelationMapping
from repro.schema.model import Attribute, AttributeType, Relation
from repro.storage.columnar import ColumnarError, ColumnarTable
from repro.storage.csv_io import load_table_csv, save_table_csv
from repro.storage.table import Table

#: The eight PTIME flat by-tuple cells.
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

MIXED_RELATION = Relation(
    "SRCX",
    [
        Attribute("id", AttributeType.INT),
        Attribute("label", AttributeType.TEXT),
        Attribute("posted", AttributeType.DATE),
        Attribute("v1", AttributeType.REAL),
        Attribute("v2", AttributeType.REAL),
    ],
)

MIXED_TARGET = Relation(
    "MEDX",
    [
        Attribute("id", AttributeType.INT),
        Attribute("label", AttributeType.TEXT),
        Attribute("posted", AttributeType.DATE),
        Attribute("value", AttributeType.REAL),
    ],
)


def mixed_pmapping(weights=(0.4, 0.6)) -> PMapping:
    certain = [
        AttributeCorrespondence("id", "id"),
        AttributeCorrespondence("label", "label"),
        AttributeCorrespondence("posted", "posted"),
    ]
    return PMapping(
        MIXED_RELATION,
        MIXED_TARGET,
        [
            (
                RelationMapping(
                    MIXED_RELATION,
                    MIXED_TARGET,
                    certain + [AttributeCorrespondence(f"v{k}", "value")],
                    name=f"m{k}",
                ),
                weight,
            )
            for k, weight in enumerate(weights, start=1)
        ],
    )


def assert_lanes_bit_identical(table, pmapping, where, *, group_by=None):
    """Scalar vs columnar-vectorized engines, strict ``==``, all 8 cells."""
    suffix = f" WHERE {where}" if where else ""
    if group_by is not None:
        suffix += f" GROUP BY {group_by}"
    scalar = AggregationEngine(table, pmapping, vectorize=False)
    vectorized = AggregationEngine(table, pmapping, vectorize=True)
    with scalar, vectorized:
        for aggregate, semantics in CELLS:
            query = f"SELECT {aggregate} FROM {MIXED_TARGET.name}{suffix}"
            baseline = scalar.answer(query, MappingSemantics.BY_TUPLE, semantics)
            answer = vectorized.answer(query, MappingSemantics.BY_TUPLE, semantics)
            assert answer == baseline, (aggregate, semantics.value, where)
        hits = vectorized.metrics_snapshot().get("vectorized.hit", 0)
    assert hits == len(CELLS), f"expected all cells vectorized, got {hits}"


class TestLayerContract:
    def test_stores_typed_arrays_and_null_masks(self):
        table = Table(
            MIXED_RELATION,
            [
                (1, "alpha", datetime.date(2008, 1, 5), 1.5, None),
                (2, None, None, -2.0, 4.0),
            ],
        )
        columnar = ColumnarTable(table)
        assert columnar.column("v1").dtype == "float64"
        assert columnar.column("posted").dtype == "int64"
        assert columnar.column("posted")[0] == datetime.date(2008, 1, 5).toordinal()
        assert columnar.column("label").tolist() == ["alpha", ""]
        assert columnar.nulls("label").tolist() == [False, True]
        assert columnar.nulls("v2").tolist() == [True, False]
        assert columnar.nulls("v1") is None

    def test_unknown_column_rejected(self):
        columnar = ColumnarTable(Table(MIXED_RELATION, []))
        with pytest.raises(ColumnarError, match="no column"):
            columnar.column("ghost")
        with pytest.raises(ColumnarError, match="no column"):
            columnar.nulls("ghost")

    def test_python_value_restores_types(self):
        table = Table(
            MIXED_RELATION,
            [(7, "abc", datetime.date(2009, 3, 29), 2.5, 0.0)],
        )
        columnar = ColumnarTable(table)
        assert columnar.python_value("id", columnar.column("id")[0]) == 7
        assert columnar.python_value("label", columnar.column("label")[0]) == "abc"
        assert columnar.python_value(
            "posted", columnar.column("posted")[0]
        ) == datetime.date(2009, 3, 29)
        value = columnar.python_value("v1", columnar.column("v1")[0])
        assert value == 2.5 and isinstance(value, float)

    def test_int_columns_flag_float64_exactness(self):
        relation = Relation("BIG", [Attribute("n", AttributeType.INT)])
        exact = ColumnarTable(Table(relation, [(2**53,)]))
        assert exact.exact("n")
        inexact = ColumnarTable(Table(relation, [(2**53 + 1,)]))
        assert not inexact.exact("n")

    def test_numpy_backend_pickles(self):
        table = Table(
            MIXED_RELATION,
            [(1, "a", None, None, 2.0), (2, "b", datetime.date(2020, 5, 6), 3.0, None)],
        )
        columnar = ColumnarTable(table)
        clone = pickle.loads(pickle.dumps(columnar))
        assert clone.row_count == 2
        assert list(clone.column("v2")) == list(columnar.column("v2"))
        assert list(clone.nulls("posted")) == [True, False]

    @pytest.mark.parametrize("big", [7, 2**53 + 1, -(2**63), 2**64])
    def test_csv_loaded_matches_table_build(self, tmp_path, big):
        """A CSV-loaded table's snapshot wraps its typed columns; it must
        equal the snapshot built from the same rows: arrays (dtype and
        signed zeros included), null masks and exactness."""
        rows = [
            (1, "x", datetime.date(2021, 2, 3), 5.0, None),
            (None, None, None, -0.0, 7.5),
            (big, "", datetime.date(1, 1, 1), None, -1.25),
        ]
        path = tmp_path / "mixed.csv"
        save_table_csv(Table(MIXED_RELATION, rows), path)
        loaded = load_table_csv(MIXED_RELATION, path)
        from_csv = ColumnarTable(loaded)
        from_rows = ColumnarTable(Table(MIXED_RELATION, loaded.rows))
        for name in ("id", "label", "posted", "v1", "v2"):
            lhs, rhs = from_csv.column(name), from_rows.column(name)
            assert lhs.dtype == rhs.dtype
            assert lhs.tolist() == rhs.tolist()
            if lhs.dtype.kind == "f":
                assert np.signbit(lhs).tolist() == np.signbit(rhs).tolist()
            lhs, rhs = from_csv.nulls(name), from_rows.nulls(name)
            assert (lhs is None) == (rhs is None)
            if lhs is not None:
                assert lhs.tolist() == rhs.tolist()
            assert from_csv.exact(name) == from_rows.exact(name)
        assert from_csv.exact("id") == (abs(big) <= 2**53)

    def test_empty_table_builds(self):
        columnar = ColumnarTable(Table(MIXED_RELATION, []))
        assert len(columnar) == 0
        assert len(columnar.column("label")) == 0
        assert columnar.nulls("label") is None


class TestEdgeDtypeDifferential:
    """Strict lane equality on the shapes most likely to diverge."""

    def _table(self, rows):
        return Table(MIXED_RELATION, rows)

    def test_null_heavy_columns(self):
        rows = []
        for i in range(24):
            rows.append(
                (
                    i,
                    None if i % 3 == 0 else f"name{i % 4}",
                    None if i % 2 == 0 else datetime.date(2020, 1, 1 + i % 5),
                    None if i % 2 == 1 else float(i - 9),
                    None if i % 5 == 0 else float(3 - i),
                )
            )
        table = self._table(rows)
        pm = mixed_pmapping()
        for where in (
            "value < 4",
            "value IS NULL",
            "value IS NOT NULL",
            "value >= -3 AND value < 8",
            "NOT (value = 2)",
        ):
            assert_lanes_bit_identical(table, pm, where)

    def test_empty_table(self):
        assert_lanes_bit_identical(self._table([]), mixed_pmapping(), "value < 4")

    def test_single_row(self):
        table = self._table([(1, "only", datetime.date(2019, 9, 9), 2.0, None)])
        assert_lanes_bit_identical(table, mixed_pmapping(), "value > 1")
        assert_lanes_bit_identical(table, mixed_pmapping(), "value > 5")

    def test_text_like_and_is_null(self):
        rows = [
            (1, "widget-a", None, 4.0, 1.0),
            (2, "widget-b", None, -2.0, None),
            (3, None, None, 3.0, 8.0),
            (4, "gadget", None, None, -5.0),
            (5, "Widget-c", None, 0.5, 2.5),
        ]
        table = self._table(rows)
        pm = mixed_pmapping()
        for where in (
            "label LIKE 'widget%'",
            "label NOT LIKE '%a'",
            "label LIKE '_adget'",
            "label IS NULL",
            "label IS NOT NULL AND value < 3",
            "label LIKE 'widget%' OR value > 2",
        ):
            assert_lanes_bit_identical(table, pm, where)

    def test_date_conditions(self):
        rows = [
            (1, "a", datetime.date(2008, 1, 5), 1.0, 2.0),
            (2, "b", None, 3.0, 4.0),
            (3, "c", datetime.date(2008, 3, 1), 5.0, None),
        ]
        table = self._table(rows)
        pm = mixed_pmapping()
        for where in (
            "posted < '2008-02-01'",
            "posted IS NULL",
            "posted BETWEEN '2008-01-01' AND '2008-12-31'",
        ):
            assert_lanes_bit_identical(table, pm, where)

    def test_grouped_with_null_group_keys(self):
        # INT, TEXT and DATE keys, each with a NULL group.
        rows = [
            (
                None if i % 4 == 0 else i % 3,
                None if i % 5 == 0 else f"t{i % 4}",
                None if i % 6 == 0 else datetime.date(2020, 1, 1 + i % 3),
                float(i),
                float(-i),
            )
            for i in range(18)
        ]
        table = self._table(rows)
        pm = mixed_pmapping()
        scalar = AggregationEngine(table, pm, vectorize=False)
        vectorized = AggregationEngine(table, pm, vectorize=True)
        with scalar, vectorized:
            for key in ("id", "label", "posted"):
                query = (
                    f"SELECT SUM(value) FROM {MIXED_TARGET.name} "
                    f"WHERE value < 9 GROUP BY {key}"
                )
                baseline = scalar.answer(
                    query, MappingSemantics.BY_TUPLE, AggregateSemantics.RANGE
                )
                answer = vectorized.answer(
                    query, MappingSemantics.BY_TUPLE, AggregateSemantics.RANGE
                )
                assert None in dict(baseline.groups.items())
                assert answer == baseline
                assert list(answer.groups) == list(baseline.groups)
            assert vectorized.metrics_snapshot()["vectorized.hit"] == 3

    def test_int_extremes_come_back_as_ints(self):
        rows = [(i, f"t{i}", None, float(i), float(-i)) for i in range(1, 9)]
        table = self._table(rows)
        pm = mixed_pmapping()
        for aggregate in ("MIN(id)", "MAX(id)"):
            query = f"SELECT {aggregate} FROM {MIXED_TARGET.name} WHERE value > 2"
            answers = [
                AggregationEngine(table, pm, vectorize=vectorize).answer(
                    query, MappingSemantics.BY_TUPLE, AggregateSemantics.RANGE
                )
                for vectorize in (False, True)
            ]
            assert repr(answers[0]) == repr(answers[1])
            assert type(answers[1].low) is int, aggregate


class TestCacheLifecycle:
    def _workload(self):
        relation = synthetic.source_relation(2)
        table = synthetic.generate_source_table(64, 2, seed=9, relation=relation)
        pmapping = synthetic.generate_pmapping(relation, 2, seed=9)
        return table, pmapping

    def test_invalidate_drops_cached_columnar_tables(self):
        table, pmapping = self._workload()
        with AggregationEngine(table, pmapping, vectorize=True) as engine:
            engine.answer(
                "SELECT COUNT(*) FROM MED WHERE value < 500",
                MappingSemantics.BY_TUPLE,
                AggregateSemantics.RANGE,
            )
            assert engine.context.columnar_cache
            engine.invalidate()
            assert not engine.context.columnar_cache

    def test_close_drops_cached_columnar_tables(self):
        table, pmapping = self._workload()
        engine = AggregationEngine(table, pmapping, vectorize=True)
        engine.answer(
            "SELECT COUNT(*) FROM MED WHERE value < 500",
            MappingSemantics.BY_TUPLE,
            AggregateSemantics.RANGE,
        )
        assert engine.context.columnar_cache
        engine.close()
        assert not engine.context.columnar_cache

    def test_data_swap_answers_from_fresh_snapshot(self):
        """The stale-cache-after-data-swap guard: invalidate() must force a
        rebuild so answers reflect the mutated table."""
        table, pmapping = self._workload()
        query = "SELECT COUNT(*) FROM MED WHERE value < 500"
        with AggregationEngine(table, pmapping, vectorize=True) as engine:
            before = engine.answer(
                query, MappingSemantics.BY_TUPLE, AggregateSemantics.RANGE
            )
            table.extend([(1000 + i, 1.0, 1.0) for i in range(10)])
            engine.invalidate()
            after = engine.answer(
                query, MappingSemantics.BY_TUPLE, AggregateSemantics.RANGE
            )
        assert after.low == before.low + 10
        assert after.high == before.high + 10


class TestPinnedProblemReuse:
    """A prepared query's pinned array-backed problem serves the by-tuple
    PTIME lane directly; unprepared answers never pin one."""

    QUERY = "SELECT {aggregate} FROM MED WHERE value < 500"

    def _counting(self, monkeypatch):
        from repro.core import vectorized

        built = []

        class Counting(vectorized.VectorizedProblem):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(vectorized, "VectorizedProblem", Counting)
        return built

    def test_prepared_cells_build_the_problem_once(self, monkeypatch):
        table, pmapping = TestCacheLifecycle()._workload()
        scalar = AggregationEngine(table, pmapping, vectorize=False)
        built = self._counting(monkeypatch)
        with AggregationEngine(table, pmapping, vectorize=True) as engine:
            for aggregate in dict(CELLS):
                handle = engine.prepare(self.QUERY.format(aggregate=aggregate))
                del built[:]
                # The by-table cell pins the arrays; the by-tuple PTIME
                # cells reuse them.
                handle.answer(MappingSemantics.BY_TABLE, AggregateSemantics.RANGE)
                for cell_aggregate, semantics in CELLS:
                    if cell_aggregate != aggregate:
                        continue
                    answer = handle.answer(MappingSemantics.BY_TUPLE, semantics)
                    assert answer == scalar.answer(
                        handle.text, MappingSemantics.BY_TUPLE, semantics
                    )
                assert len(built) == 1, aggregate
            assert engine.metrics_snapshot()["vectorized.hit"] == len(CELLS)

    def test_repeated_prepared_answers_build_one_problem(self, monkeypatch):
        # Ten answers per PTIME cell, each cell on a fresh prepared query
        # (no by-table cell runs first to pin the arrays).
        table, pmapping = TestCacheLifecycle()._workload()
        built = self._counting(monkeypatch)
        with AggregationEngine(table, pmapping) as engine:
            for aggregate, semantics in CELLS:
                engine.invalidate()
                handle = engine.prepare(self.QUERY.format(aggregate=aggregate))
                del built[:]
                answers = [
                    handle.answer(MappingSemantics.BY_TUPLE, semantics)
                    for _ in range(10)
                ]
                assert len(built) == 1, (aggregate, semantics)
                assert all(answer == answers[0] for answer in answers)
                snapshot = engine.metrics_snapshot()
                assert snapshot["vectorized.hit"] == 10
                assert "vectorized.fallback" not in snapshot

    GROUPED = "SELECT {aggregate} FROM T2 WHERE price > 100 GROUP BY auctionID"

    def _grouped_answers(self, monkeypatch, table, prepared):
        """(array answers, built, metrics, row-walk answers) per PTIME cell."""
        from repro.data import ebay

        pmapping = ebay.paper_pmapping()
        row_walk = AggregationEngine([table], pmapping, vectorize=False)
        built = self._counting(monkeypatch)
        out = []
        for aggregate, semantics in CELLS:
            aggregate = aggregate.replace("value", "price")
            text = self.GROUPED.format(aggregate=aggregate)
            with AggregationEngine([table], pmapping) as engine:
                handle = engine.prepare(text)
                del built[:]
                answers = [
                    handle.answer(MappingSemantics.BY_TUPLE, semantics)
                    if prepared
                    else engine.answer(text, MappingSemantics.BY_TUPLE, semantics)
                    for _ in range(10)
                ]
                expected = row_walk.answer(
                    text, MappingSemantics.BY_TUPLE, semantics
                )
                out.append(
                    (answers, len(built), engine.metrics_snapshot(), expected)
                )
        return out

    def test_grouped_prepared_answers_build_one_problem(self, monkeypatch):
        from repro.data import ebay

        table = ebay.generate_auctions(4, mean_bids=80, seed=2)
        cells = self._grouped_answers(monkeypatch, table, prepared=True)
        for answers, built, snapshot, expected in cells:
            assert built == 1
            assert all(answer == expected for answer in answers)
            assert snapshot["vectorized.hit"] == 10
            assert "vectorized.fallback" not in snapshot

    @pytest.mark.parametrize("prepared", [True, False])
    def test_small_groups_take_the_array_body(self, monkeypatch, prepared):
        # Table II: two auctions of four bids each.  Every call answers
        # both groups with one array-kernel call; a prepared query builds
        # its problem once, an unprepared one once per call.
        from repro.data import ebay

        table = ebay.paper_instance()
        cells = self._grouped_answers(monkeypatch, table, prepared)
        for answers, built, snapshot, expected in cells:
            assert built == (1 if prepared else 10)
            assert all(answer == expected for answer in answers)
            assert all(list(a.groups) == list(expected.groups) for a in answers)
            assert snapshot["vectorized.hit"] == 10
            assert "vectorized.fallback" not in snapshot

    def test_out_of_fragment_prepared_query_tries_arrays_once(self, monkeypatch):
        # MAX over a DATE column: materialization tries the array problem
        # once, pins row vectors, and every call then goes straight to the
        # row walk, scanning the rows once per call.
        from repro.data import realestate
        from repro.obs import metrics

        table = realestate.paper_instance()
        built = self._counting(monkeypatch)
        with AggregationEngine([table], realestate.paper_pmapping()) as engine:
            handle = engine.prepare("SELECT MAX(date) FROM T1")
            handle.answer(MappingSemantics.BY_TUPLE, AggregateSemantics.RANGE)
            assert len(built) == 1
            registry = metrics.MetricsRegistry()
            with metrics.use_registry(registry):
                for _ in range(5):
                    handle.answer(
                        MappingSemantics.BY_TUPLE, AggregateSemantics.RANGE
                    )
            assert len(built) == 1
            assert registry.snapshot()["tuples.scanned"] == 5 * len(table)
            assert engine.metrics_snapshot()["vectorized.fallback"] == 6

    def test_vectorize_false_builds_no_arrays(self, monkeypatch):
        table, pmapping = TestCacheLifecycle()._workload()
        with AggregationEngine(table, pmapping) as engine:
            expected = {
                cell: engine.prepare(
                    self.QUERY.format(aggregate=cell[0])
                ).answer(MappingSemantics.BY_TUPLE, cell[1])
                for cell in CELLS
            }
        built = self._counting(monkeypatch)
        with AggregationEngine(table, pmapping, vectorize=False) as engine:
            for aggregate, semantics in CELLS:
                handle = engine.prepare(self.QUERY.format(aggregate=aggregate))
                for _ in range(3):
                    answer = handle.answer(MappingSemantics.BY_TUPLE, semantics)
                    assert answer == expected[(aggregate, semantics)]
            assert engine.context.columnar_cache == {}
            snapshot = engine.metrics_snapshot()
        assert built == []
        assert "vectorized.hit" not in snapshot
        assert "vectorized.fallback" not in snapshot

    def test_unprepared_answers_pin_nothing(self, monkeypatch):
        table, pmapping = TestCacheLifecycle()._workload()
        built = self._counting(monkeypatch)
        with AggregationEngine(table, pmapping, vectorize=True) as engine:
            text = self.QUERY.format(aggregate="SUM(value)")
            for _ in range(2):
                engine.answer(
                    text, MappingSemantics.BY_TUPLE, AggregateSemantics.RANGE
                )
            assert len(built) == 2
            assert engine.compile(text)._problem is None


class TestEveryLaneAsksCompiledQuery:
    """Prepared and unprepared calls pick their body the same way: the
    by-table fold and the flat sampler read the array-backed problem
    whether or not the query was prepared."""

    QUERY = "SELECT {aggregate} FROM MED WHERE value < 500"

    def _engines(self, **options):
        table, pmapping = TestCacheLifecycle()._workload()
        return (
            AggregationEngine(table, pmapping, **options),
            AggregationEngine(table, pmapping, vectorize=False, **options),
        )

    @pytest.mark.parametrize(
        "aggregate", ["COUNT(*)", "SUM(value)", "AVG(value)", "MAX(value)"]
    )
    def test_unprepared_by_table_cells_read_the_arrays(self, aggregate):
        from tests.test_bytable import _answer_types

        text = self.QUERY.format(aggregate=aggregate)
        engine, scalar = self._engines()
        for semantics in AggregateSemantics:
            expected = scalar.answer(text, MappingSemantics.BY_TABLE, semantics)
            answers = [
                engine.answer(text, MappingSemantics.BY_TABLE, semantics),
                engine.plan(text, MappingSemantics.BY_TABLE, semantics).answer(),
            ]
            for answer in answers:
                assert answer == expected
                assert _answer_types(answer) == _answer_types(expected)
        assert engine.metrics_snapshot()["bytable.columnar"] == 6
        assert "bytable.columnar" not in scalar.metrics_snapshot()
        assert engine.compile(text)._problem is None

    @pytest.mark.parametrize(
        "aggregate", ["SUM(value)", "AVG(value)", "MIN(value)", "MAX(value)"]
    )
    def test_unprepared_sampled_cells_run_the_array_sampler(
        self, monkeypatch, aggregate
    ):
        from repro.core import sampling
        from tests.test_sampling import _bits

        drawn = []
        columnar_sampler = sampling._sample_columnar

        def counting(*args):
            drawn.append(1)
            return columnar_sampler(*args)

        monkeypatch.setattr(sampling, "_sample_columnar", counting)
        text = self.QUERY.format(aggregate=aggregate)
        engine, scalar = self._engines(allow_sampling=True, samples=150, seed=5)
        semantics = AggregateSemantics.DISTRIBUTION
        expected = scalar.answer(text, MappingSemantics.BY_TUPLE, semantics)
        assert drawn == []
        answers = [
            engine.answer(text, MappingSemantics.BY_TUPLE, semantics),
            engine.plan(text, MappingSemantics.BY_TUPLE, semantics).answer(),
        ]
        assert len(drawn) == 2
        for answer in answers:
            assert _bits(answer) == _bits(expected)
        assert engine.compile(text)._problem is None

    @pytest.mark.parametrize(
        "aggregate", ["COUNT(*)", "SUM(value)", "AVG(value)", "MAX(value)"]
    )
    def test_answer_six_builds_one_problem_and_no_row_walk(
        self, monkeypatch, aggregate
    ):
        from repro.core.common import PreparedTupleQuery

        walks = []
        init = PreparedTupleQuery.__init__

        def counting(self, *args, **kwargs):
            walks.append(1)
            init(self, *args, **kwargs)

        text = self.QUERY.format(aggregate=aggregate)
        engine, scalar = self._engines(allow_sampling=True, samples=100, seed=3)
        expected = scalar.answer_six(text)
        built = TestPinnedProblemReuse()._counting(monkeypatch)
        monkeypatch.setattr(PreparedTupleQuery, "__init__", counting)
        for _ in range(3):
            assert engine.answer_six(text) == expected
        assert len(built) == 1
        assert walks == []
        snapshot = engine.metrics_snapshot()
        assert snapshot["bytable.columnar"] == 3  # one shared fold per request
        assert "bytable.reformulations" not in snapshot
