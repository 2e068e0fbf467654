"""CSV import/export for :class:`~repro.storage.table.Table`.

The experiment harness persists generated workloads so runs are repeatable;
these helpers are the only place the library touches the filesystem.
:func:`iter_csv_rows` additionally streams typed rows without materializing
a table — the input to :mod:`repro.core.streaming`.
"""

from __future__ import annotations

import csv
import datetime
import math
from collections.abc import Iterator
from contextlib import closing
from pathlib import Path

from repro.exceptions import StorageError
from repro.schema.model import Attribute, AttributeType, Relation
from repro.storage.files import replace_atomically
from repro.storage.table import Table, TypedColumns


def save_table_csv(table: Table, path: str | Path) -> None:
    """Write ``table`` to ``path`` as CSV with a header row.

    DATE values are written as ISO-8601 strings; ``None`` becomes the empty
    string.  The file is written whole (:func:`replace_atomically`): a
    failed write leaves ``path`` as it was.  A REAL nan or infinity raises
    a :class:`StorageError` before ``path`` is touched: the loaders reject
    such a field, so the file would not read back.
    """
    path = Path(path)
    relation = table.relation
    reals = _real_columns(relation)
    with replace_atomically(path, newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(relation.attribute_names)
        for row_index, values in enumerate(table.row_tuples()):
            index = _non_finite_column(reals, values)
            if index is not None:
                raise StorageError(
                    f"cannot write {path}: row {row_index}, column "
                    f"{relation.attributes[index].name!r} holds the non-finite "
                    f"REAL value {values[index]!r}, which the CSV loaders reject"
                )
            writer.writerow(
                "" if value is None else (
                    value.isoformat()
                    if isinstance(value, datetime.date)
                    else value
                )
                for value in values
            )


def _real_columns(relation: Relation) -> list[int]:
    return [
        index
        for index, attribute in enumerate(relation.attributes)
        if attribute.type is AttributeType.REAL
    ]


def _non_finite_column(reals: list[int], row: tuple) -> int | None:
    """The first of the REAL columns ``reals`` where the typed ``row``
    holds nan or an infinity, or None."""
    for index in reals:
        value = row[index]
        if value is not None and not math.isfinite(value):
            return index
    return None


def _read_rows(path: Path) -> Iterator[list[str]]:
    """The raw CSV rows of ``path``; invalid UTF-8 raises a StorageError."""
    with path.open(newline="", encoding="utf-8") as handle:
        try:
            yield from csv.reader(handle)
        except UnicodeDecodeError as error:
            raise StorageError(f"{path} is not valid UTF-8: {error}") from None


def infer_relation(
    name: str, path: str | Path, *, sample_rows: int = 200
) -> Relation:
    """Infer a relation schema from a CSV's header and value shapes.

    Each column gets the narrowest type that accepts all sampled non-empty
    values, in the order INT, REAL, DATE, TEXT.  Empty fields are NULLs and
    constrain nothing; a column with no values at all defaults to TEXT.

    This powers ``repro-bench match`` on plain CSV exports; for full
    control, construct the :class:`~repro.schema.model.Relation` explicitly
    or ship it in a serialized p-mapping (:mod:`repro.schema.serialize`).
    """
    path = Path(path)
    with closing(_read_rows(path)) as reader:
        try:
            header = next(reader)
        except StopIteration:
            raise StorageError(f"{path} is empty; expected a header row") from None
        if not header or any(not column for column in header):
            raise StorageError(f"{path} has a malformed header row: {header}")
        samples: list[list[str]] = [[] for _ in header]
        for raw in reader:
            if len(raw) != len(header):
                raise StorageError(
                    f"{path}: row width {len(raw)} does not match header "
                    f"width {len(header)}"
                )
            for column, field in zip(samples, raw):
                if field != "" and len(column) < sample_rows:
                    column.append(field)
            if all(len(column) >= sample_rows for column in samples):
                break
    attributes = [
        Attribute(column_name, _infer_type(values))
        for column_name, values in zip(header, samples)
    ]
    return Relation(name, attributes)


def _infer_type(values: list[str]) -> AttributeType:
    from repro.sql.ast import parse_flexible_date

    if not values:
        return AttributeType.TEXT
    if all(_parses_as_int(v) for v in values):
        return AttributeType.INT
    if all(_parses_as_float(v) for v in values):
        return AttributeType.REAL
    if all(parse_flexible_date(v) is not None for v in values):
        return AttributeType.DATE
    return AttributeType.TEXT


def _parses_as_int(field: str) -> bool:
    try:
        int(field)
    except ValueError:
        return False
    return True


def _parses_as_float(field: str) -> bool:
    """Whether ``field`` reads as a finite float: nan and the infinities
    are no REAL evidence, since the loaders reject them."""
    try:
        return math.isfinite(float(field))
    except ValueError:
        return False


def iter_csv_rows(
    relation: Relation, path: str | Path
) -> Iterator[tuple]:
    """Stream typed row tuples from a CSV written by :func:`save_table_csv`.

    Constant memory: rows are validated, coerced through the relation's
    attribute types, and yielded one at a time — feed them to
    :func:`repro.core.streaming.answer_stream` to aggregate files larger
    than RAM.
    """
    path = Path(path)
    reals = _real_columns(relation)
    parsers = [attribute.type.parse for attribute in relation.attributes]
    for line_number, raw in enumerate(_data_rows(relation, path), start=2):
        row = tuple([
            None if field == "" else parse(field)
            for parse, field in zip(parsers, raw)
        ])
        # The coerced value, not its spelling: "1e999" and a 400-digit
        # literal read as inf too.
        index = _non_finite_column(reals, row)
        if index is not None:
            raise StorageError(
                f"{path}:{line_number}: column "
                f"{relation.attributes[index].name!r} holds the non-finite "
                f"REAL value {raw[index]!r}; write a missing value as an "
                "empty field"
            )
        yield row


def load_table_csv(relation: Relation, path: str | Path) -> Table:
    """Read a CSV written by :func:`save_table_csv` back into a Table.

    The header must match the relation's attribute names exactly (order
    included); values are coerced through the attribute types, so an INT
    column containing ``"3.5"`` raises rather than silently truncating.

    The table's storage is typed columns
    (:class:`~repro.storage.table.TypedColumns`), filled from
    :func:`iter_csv_rows` one block of rows at a time, so the errors are
    that reader's, and no row tuple is kept until a row reader asks.
    """
    return Table.from_columns(
        TypedColumns.from_rows(relation, iter_csv_rows(relation, path))
    )


def _data_rows(relation: Relation, path: Path) -> Iterator[list[str]]:
    """The raw data rows of a CSV whose header names ``relation``'s
    attributes in order, each checked for its field count."""
    reader = _read_rows(path)
    try:
        header = next(reader)
    except StopIteration:
        raise StorageError(f"{path} is empty; expected a header row") from None
    if tuple(header) != relation.attribute_names:
        raise StorageError(
            f"{path} header {header} does not match relation "
            f"{relation.name!r} attributes {list(relation.attribute_names)}"
        )
    for line_number, raw in enumerate(reader, start=2):
        if len(raw) != len(relation):
            raise StorageError(
                f"{path}:{line_number}: expected {len(relation)} fields, "
                f"got {len(raw)}"
            )
        yield raw

