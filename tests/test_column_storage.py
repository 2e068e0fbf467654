"""Column-backed tables: typed CSV loading, lazy rows, whole-file saves.

A CSV-loaded :class:`~repro.storage.table.Table` stores typed columns and
builds its row tuples only when a row reader asks; the array kernels read
the columns through :class:`~repro.storage.columnar.ColumnarTable` without
them.  Saves go through a temporary file, so a failed write leaves the
previous file as it was.
"""

from __future__ import annotations

import csv
import datetime
import os
import stat

import numpy as np
import pytest

from repro import AggregationEngine
from repro.data import synthetic
from repro.exceptions import StorageError
from repro.schema.model import Attribute, AttributeType, Relation
from repro.schema.serialize import load_pmapping, save_pmapping
from repro.serve.registry import SERVING_ENGINE_DEFAULTS
from repro.storage import csv_io
from repro.storage import table as table_module
from repro.storage.columnar import ColumnarTable
from repro.storage.csv_io import iter_csv_rows, load_table_csv, save_table_csv
from repro.storage.table import Table, TypedColumns

RELATION = Relation(
    "R",
    [
        Attribute("id", AttributeType.INT),
        Attribute("price", AttributeType.REAL),
        Attribute("label", AttributeType.TEXT),
        Attribute("when", AttributeType.DATE),
    ],
)

MIXED_ROWS = [
    (1, -0.0, 'a,"b"', datetime.date(2008, 1, 5)),
    (2**70, 1e-300, "x\ny", None),
    (None, 0.1, None, datetime.date(1, 1, 1)),
    (-3, 123456789.125, "é", datetime.date(9999, 12, 31)),
    (0, None, "", None),
]

#: What the row-at-a-time writer wrote for ``MIXED_ROWS``.
MIXED_CSV = (
    b'id,price,label,when\r\n1,-0.0,"a,""b""",2008-01-05\r\n'
    b'1180591620717411303424,1e-300,"x\ny",\r\n,0.1,,0001-01-01\r\n'
    b"-3,123456789.125,\xc3\xa9,9999-12-31\r\n0,,,\r\n"
)

#: The perfbench ``scan`` cells: every by-tuple PTIME cell but COUNT's
#: distribution.
SCAN_CELLS = [
    ("COUNT(*)", "range"),
    ("COUNT(*)", "expected-value"),
    ("SUM(value)", "range"),
    ("SUM(value)", "expected-value"),
    ("AVG(value)", "range"),
    ("MIN(value)", "range"),
    ("MAX(value)", "range"),
]


def _typed(rows):
    """Rows with each value's type and spelling, so -0.0 differs from 0.0
    and 1 from 1.0."""
    return [tuple((type(v), repr(v)) for v in row) for row in rows]


def _refuse(self):
    raise AssertionError("row tuples were built")


def _scan_files(tmp_path, rows: int):
    source = synthetic.source_relation(8)
    table = synthetic.generate_source_table(rows, 8, seed=1, relation=source)
    pmapping = synthetic.generate_pmapping(
        source, 5, seed=2, target=synthetic.mediated_relation("T")
    )
    data, mapping = tmp_path / "source.csv", tmp_path / "mapping.json"
    save_table_csv(table, data)
    save_pmapping(pmapping, mapping)
    return data, mapping


class TestLoading:
    def test_saved_csv_is_byte_identical(self, tmp_path):
        path = tmp_path / "t.csv"
        save_table_csv(Table(RELATION, MIXED_ROWS), path)
        assert path.read_bytes() == MIXED_CSV

    def test_lazy_rows_equal_the_row_loader(self, tmp_path, monkeypatch):
        path = tmp_path / "t.csv"
        path.write_bytes(MIXED_CSV + b"-9223372036854775809,2.5,z,2020-02-29\r\n")
        table = load_table_csv(RELATION, path)
        assert table.typed_columns() is table.typed_columns()  # its storage
        expected = list(iter_csv_rows(RELATION, path))
        with monkeypatch.context() as patch:
            patch.setattr(TypedColumns, "rows", _refuse)
            assert len(table) == len(expected)
            assert table.column("id") == tuple(row[0] for row in expected)
        assert table.rows == tuple(expected)
        assert _typed(table.rows) == _typed(expected)

    def test_int_columns_within_int64_are_arrays(self, tmp_path):
        path = tmp_path / "t.csv"
        save_table_csv(Table(RELATION, [(2**63 - 1, 1.0, "a", None), (None,) * 4]), path)
        values, nulls = load_table_csv(RELATION, path).typed_columns().columns[0]
        assert values.dtype == np.int64
        assert nulls.tolist() == [False, True]

    @pytest.mark.parametrize("batch", [1, 2, 3, 4096])
    @pytest.mark.parametrize(
        "lines",
        [
            ["1,2.0,a,", "x,2.0,a,", "1,2.0"],  # a parse error before a short row
            ["1,2.0,a,", "1,2.0", "x,2.0,a,"],  # a short row before a parse error
            ["1,inf,a,", "x,2.0,a,"],  # non-finite before a parse error
            ["1,2.0,a,2020-13-01", "1,nan,a,"],
            ["1,1e999,a,bad-date"],  # both faults in one row: the INT..DATE order
            ["1,2.0,a,", "2,3.0,b,", "3,-inf,c,"],
        ],
    )
    def test_errors_match_the_row_loader(self, tmp_path, monkeypatch, batch, lines):
        path = tmp_path / "bad.csv"
        path.write_text("id,price,label,when\n" + "\n".join(lines) + "\n")
        monkeypatch.setattr(table_module, "ROW_BLOCK", batch)
        with pytest.raises(Exception) as streamed:
            list(iter_csv_rows(RELATION, path))
        with pytest.raises(type(streamed.value)) as loaded:
            load_table_csv(RELATION, path)
        assert str(loaded.value) == str(streamed.value)

    def test_row_blocks_join_in_row_order(self, tmp_path, monkeypatch):
        monkeypatch.setattr(table_module, "ROW_BLOCK", 3)
        rows = [
            (i, None if i % 3 else i / 4, f"t{i}", datetime.date(2020, 1, 1 + i))
            for i in range(7)
        ]
        rows[4] = (None, None, None, None)
        path = tmp_path / "t.csv"
        save_table_csv(Table(RELATION, rows), path)
        assert load_table_csv(RELATION, path).rows == tuple(rows)


class TestLazyRows:
    def test_scan_cells_never_build_rows(self, tmp_path, monkeypatch):
        data, mapping = _scan_files(tmp_path, 500)
        pmapping = load_pmapping(mapping)
        table = load_table_csv(pmapping.source, data)
        engine = AggregationEngine([table], pmapping, **SERVING_ENGINE_DEFAULTS)

        answers = []
        with monkeypatch.context() as patch:
            patch.setattr(TypedColumns, "rows", _refuse)
            for aggregate, semantics in SCAN_CELLS:
                text = f"SELECT {aggregate} FROM T WHERE value < 480.5"
                answers.append(engine.answer(text, "by-tuple", semantics))
            assert engine.metrics_snapshot().get("vectorized.fallback", 0) == 0
        reference = AggregationEngine(
            [load_table_csv(pmapping.source, data)], pmapping, vectorize=False
        )
        for (aggregate, semantics), answer in zip(SCAN_CELLS, answers):
            text = f"SELECT {aggregate} FROM T WHERE value < 480.5"
            assert answer == reference.answer(text, "by-tuple", semantics)

    def test_append_leaves_an_earlier_snapshot_unchanged(self, tmp_path):
        path = tmp_path / "t.csv"
        save_table_csv(Table(RELATION, MIXED_ROWS[2:]), path)
        table = load_table_csv(RELATION, path)
        snapshot = ColumnarTable(table)
        before = {
            name: snapshot.column(name).tolist() for name in RELATION.attribute_names
        }
        table.append((7, 7.5, "new", "2021-01-01"))
        assert len(table) == 4 and table.rows[-1][0] == 7
        assert len(snapshot) == 3
        for name, values in before.items():
            assert snapshot.column(name).tolist() == values
        fresh = ColumnarTable(table)
        assert fresh.column("price").tolist()[-1] == 7.5

    def test_column_buffers_are_read_only(self, tmp_path):
        path = tmp_path / "t.csv"
        save_table_csv(Table(RELATION, MIXED_ROWS[2:]), path)
        snapshot = ColumnarTable(load_table_csv(RELATION, path))
        with pytest.raises(ValueError):
            snapshot.column("price")[0] = 1.0


_CSV_WRITER = csv.writer


class _FailingWriter:
    """A ``csv.writer`` whose third data row fails."""

    def __init__(self, handle):
        self.writer = _CSV_WRITER(handle)
        self.rows = 0

    def writerow(self, row):
        if self.rows == 3:
            raise OSError("disk full")
        self.rows += 1
        return self.writer.writerow(row)


class TestWholeFileSaves:
    def _leftovers(self, directory):
        return sorted(p.name for p in directory.iterdir() if p.name.endswith(".tmp"))

    def test_failed_csv_write_keeps_the_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "t.csv"
        save_table_csv(Table(RELATION, MIXED_ROWS[:2]), path)
        before = path.read_bytes()
        monkeypatch.setattr(csv_io.csv, "writer", _FailingWriter)
        with pytest.raises(OSError, match="disk full"):
            save_table_csv(Table(RELATION, MIXED_ROWS), path)
        assert path.read_bytes() == before
        assert self._leftovers(tmp_path) == []

    def test_non_finite_save_keeps_the_previous_file(self, tmp_path):
        path = tmp_path / "t.csv"
        save_table_csv(Table(RELATION, MIXED_ROWS), path)
        with pytest.raises(StorageError, match="non-finite"):
            save_table_csv(Table(RELATION, [(1, float("nan"), "a", None)]), path)
        assert path.read_bytes() == MIXED_CSV
        assert self._leftovers(tmp_path) == []

    def test_failed_pmapping_write_keeps_the_previous_file(
        self, tmp_path, monkeypatch
    ):
        _, mapping = _scan_files(tmp_path, 3)
        before = mapping.read_bytes()
        other = synthetic.generate_pmapping(
            synthetic.source_relation(8), 3, seed=9,
            target=synthetic.mediated_relation("T"),
        )

        def fail(descriptor):
            raise OSError("fsync failed")

        monkeypatch.setattr(os, "fsync", fail)
        with pytest.raises(OSError, match="fsync failed"):
            save_pmapping(other, mapping)
        assert mapping.read_bytes() == before
        assert self._leftovers(tmp_path) == []

    def test_saves_create_missing_files(self, tmp_path):
        path = tmp_path / "fresh.json"
        pmapping = load_pmapping(_scan_files(tmp_path, 3)[1])
        save_pmapping(pmapping, path)
        assert load_pmapping(path).probabilities == pmapping.probabilities
        assert self._leftovers(tmp_path) == []

    def test_saves_keep_the_mode_of_the_file_they_replace(self, tmp_path):
        path = tmp_path / "t.csv"
        save_table_csv(Table(RELATION, MIXED_ROWS[:2]), path)
        path.chmod(0o600)
        save_table_csv(Table(RELATION, MIXED_ROWS), path)
        assert stat.S_IMODE(path.stat().st_mode) == 0o600
        assert path.read_bytes() == MIXED_CSV

    def test_saves_write_through_a_symlink(self, tmp_path):
        target = tmp_path / "data" / "t.csv"
        target.parent.mkdir()
        save_table_csv(Table(RELATION, MIXED_ROWS[:2]), target)
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        save_table_csv(Table(RELATION, MIXED_ROWS), link)
        assert link.is_symlink()
        assert target.read_bytes() == MIXED_CSV
        assert self._leftovers(tmp_path) == self._leftovers(target.parent) == []
