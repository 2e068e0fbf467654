"""CSV import/export for :class:`~repro.storage.table.Table`.

The experiment harness persists generated workloads so runs are repeatable;
these helpers are the only place the library touches the filesystem.
:func:`iter_csv_rows` additionally streams typed rows without materializing
a table — the input to :mod:`repro.core.streaming`.
"""

from __future__ import annotations

import csv
import datetime
from collections.abc import Iterator
from pathlib import Path

from repro.exceptions import StorageError
from repro.schema.model import Attribute, AttributeType, Relation
from repro.storage.table import Table


def save_table_csv(table: Table, path: str | Path) -> None:
    """Write ``table`` to ``path`` as CSV with a header row.

    DATE values are written as ISO-8601 strings; ``None`` becomes the empty
    string.
    """
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(table.relation.attribute_names)
        for values in table.rows:
            writer.writerow(
                "" if value is None else (
                    value.isoformat()
                    if isinstance(value, datetime.date)
                    else value
                )
                for value in values
            )


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
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
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
    try:
        float(field)
    except ValueError:
        return False
    return True


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
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
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
            yield tuple(
                attribute.type.coerce(None if field == "" else field)
                for attribute, field in zip(relation.attributes, raw)
            )


def load_table_csv(relation: Relation, path: str | Path) -> Table:
    """Read a CSV written by :func:`save_table_csv` back into a Table.

    The header must match the relation's attribute names exactly (order
    included); values are coerced through the attribute types, so an INT
    column containing ``"3.5"`` raises rather than silently truncating.
    """
    path = Path(path)
    table = Table(relation)
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
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
            table.append(
                tuple(None if field == "" else field for field in raw)
            )
    return table
