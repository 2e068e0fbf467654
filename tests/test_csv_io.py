"""Tests for CSV persistence (:mod:`repro.storage.csv_io`)."""

from __future__ import annotations

import datetime

import pytest

from repro.exceptions import SchemaError, StorageError
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


#: Spellings of nan and the infinities, and finite-looking literals that
#: overflow to an infinity when read as a float.
NON_FINITE = [
    "nan", "NaN", "-nan", "inf", "-inf", "+INF", "Infinity", " nan ",
    "1e999", "-1E400", "9" * 400,
]


def _non_finite_csv(tmp_path, field):
    path = tmp_path / "non_finite.csv"
    path.write_text(
        "id,price,label,when\n"
        "1,2.5,banana,2008-01-05\n"
        f"2,{field},nan,2008-01-06\n"
    )
    return path


@pytest.mark.parametrize("field", NON_FINITE)
def test_non_finite_real_load_is_a_storage_error(tmp_path, field):
    path = _non_finite_csv(tmp_path, field)
    with pytest.raises(StorageError, match=r"non_finite\.csv:3: column 'price'"):
        load_table_csv(RELATION, path)


@pytest.mark.parametrize("field", NON_FINITE)
def test_non_finite_real_stream_is_a_storage_error(tmp_path, field):
    path = _non_finite_csv(tmp_path, field)
    rows = iter_csv_rows(RELATION, path)
    assert next(rows)[1] == 2.5  # the first data row streams as before
    with pytest.raises(StorageError, match=r"non_finite\.csv:3: column 'price'"):
        next(rows)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_saving_a_non_finite_real_is_a_storage_error(tmp_path, value):
    """The loaders would reject the field, so the write refuses it and
    leaves no file behind."""
    table = Table(RELATION, [(1, 2.5, "a", None), (2, value, "b", None)])
    path = tmp_path / "out.csv"
    with pytest.raises(StorageError, match=r"row 1, column 'price'"):
        save_table_csv(table, path)
    assert not path.exists()


def test_text_fields_may_spell_nan(tmp_path):
    """Only REAL columns are checked; a TEXT field "nan" is a string."""
    path = _non_finite_csv(tmp_path, "3.5")
    table = load_table_csv(RELATION, path)
    assert table.column("label") == ("banana", "nan")
    assert table.column("price") == (2.5, 3.5)


def test_real_field_that_is_no_number_stays_a_schema_error(tmp_path):
    path = _non_finite_csv(tmp_path, "none")
    with pytest.raises(SchemaError, match="cannot coerce 'none' to REAL"):
        load_table_csv(RELATION, path)


@pytest.mark.parametrize("stream", [False, True])
def test_non_finite_real_exits_with_the_storage_code(tmp_path, capsys, stream):
    from repro.cli import main
    from repro.data import realestate
    from repro.schema.serialize import save_pmapping

    data = tmp_path / "listings.csv"
    names = ",".join(realestate.S1_RELATION.attribute_names)
    data.write_text(f"{names}\n1,inf,215,2008-01-05,2008-01-06\n")
    mapping = tmp_path / "mapping.json"
    save_pmapping(realestate.paper_pmapping(), mapping)
    code = main([
        "query",
        "--data", str(data),
        "--mapping", str(mapping),
        "--query", realestate.Q1,
        "--mapping-semantics", "by-tuple",
        *(["--stream"] if stream else []),
    ])
    assert code == 8  # StorageError
    assert "listings.csv:2: column 'price'" in capsys.readouterr().err
