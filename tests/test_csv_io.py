"""Tests for CSV persistence (:mod:`repro.storage.csv_io`)."""

from __future__ import annotations

import datetime

import pytest

from repro.exceptions import StorageError
from repro.schema.model import Attribute, AttributeType, Relation
from repro.storage.csv_io import iter_csv_rows, load_table_csv, save_table_csv
from repro.storage.table import Table

RELATION = Relation(
    "R",
    [
        Attribute("id", AttributeType.INT),
        Attribute("price", AttributeType.REAL),
        Attribute("label", AttributeType.TEXT),
        Attribute("when", AttributeType.DATE),
    ],
)


def test_roundtrip(tmp_path):
    table = Table(
        RELATION,
        [
            (1, 10.5, "a,b", datetime.date(2008, 1, 5)),
            (2, None, None, None),
        ],
    )
    path = tmp_path / "table.csv"
    save_table_csv(table, path)
    assert load_table_csv(RELATION, path) == table


def test_header_mismatch(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,price\n1,2\n")
    with pytest.raises(StorageError, match="header"):
        load_table_csv(RELATION, path)


def test_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(StorageError, match="empty"):
        load_table_csv(RELATION, path)


def test_field_count_mismatch(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("id,price,label,when\n1,2\n")
    with pytest.raises(StorageError, match="expected 4 fields"):
        load_table_csv(RELATION, path)


def test_values_are_typed_after_load(tmp_path):
    table = Table(RELATION, [(7, 1.25, "x", datetime.date(2020, 12, 31))])
    path = tmp_path / "typed.csv"
    save_table_csv(table, path)
    loaded = load_table_csv(RELATION, path)
    row = loaded.row(0)
    assert isinstance(row["id"], int)
    assert isinstance(row["price"], float)
    assert isinstance(row["when"], datetime.date)


#: A header, then a row whose label holds a byte that is not UTF-8.
INVALID_UTF8 = b"id,price,label,when\n1,2.5,caf\xe9,2008-01-05\n"


def test_invalid_utf8_load_is_a_storage_error(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(INVALID_UTF8)
    with pytest.raises(StorageError, match="not valid UTF-8"):
        load_table_csv(RELATION, path)


def test_invalid_utf8_stream_is_a_storage_error(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(INVALID_UTF8)
    with pytest.raises(StorageError, match="not valid UTF-8"):
        list(iter_csv_rows(RELATION, path))


def test_invalid_utf8_exits_with_the_storage_code(tmp_path, capsys):
    from repro.cli import main
    from repro.data import realestate
    from repro.schema.serialize import save_pmapping

    data = tmp_path / "listings.csv"
    names = ",".join(realestate.S1_RELATION.attribute_names).encode()
    data.write_bytes(names + b"\n1,2.5,caf\xe9,2008-01-05,2008-01-06\n")
    mapping = tmp_path / "mapping.json"
    save_pmapping(realestate.paper_pmapping(), mapping)
    code = main([
        "query",
        "--data", str(data),
        "--mapping", str(mapping),
        "--query", realestate.Q1,
    ])
    assert code == 8  # StorageError
    assert "not valid UTF-8" in capsys.readouterr().err
