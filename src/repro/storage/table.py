"""In-memory table: the substrate the by-tuple algorithms iterate over.

A :class:`Table` couples a :class:`~repro.schema.model.Relation` schema with
its values.  Values are validated and coerced to the attribute types at
insertion, so downstream algorithms can rely on homogeneous columns.

A table holds its values in one of two forms:

* **Row tuples** — plain tuples (cheap, hashable), one per row.  A table
  built in code (the constructor, :meth:`Table.append`,
  :meth:`Table.from_prepared_rows`) holds these.
* **Typed columns** (:class:`TypedColumns`) — one buffer plus an optional
  NULL mask per attribute.  A CSV-loaded table
  (:func:`repro.storage.csv_io.load_table_csv`) holds only these; the
  columnar layer (:class:`~repro.storage.columnar.ColumnarTable`) wraps
  its REAL and DATE buffers without a copy, so the array kernels never
  need a row tuple.

Row tuples are built lazily: the first row reader (:attr:`Table.rows`,
:meth:`Table.row_tuples`, :meth:`Table.iter_rows`, ...) builds them from
the columns and the table caches them beside the columns.  Mutation
(:meth:`Table.append`, :meth:`Table.extend`) first builds the rows, then
drops the columns; it never writes into a column buffer, so a columnar
snapshot taken earlier keeps the values it saw.

:class:`Row` is a lightweight name-based view over one tuple, used where
readability matters (condition evaluation, examples).
"""

from __future__ import annotations

import datetime
import itertools
from collections.abc import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.exceptions import StorageError
from repro.schema.model import AttributeType, Relation


class Row:
    """A read-only, name-addressable view over one tuple of a table.

    Examples
    --------
    >>> row["price"]          # doctest: +SKIP
    100000.0
    """

    __slots__ = ("_relation", "_values")

    def __init__(self, relation: Relation, values: tuple) -> None:
        self._relation = relation
        self._values = values

    def __getitem__(self, attribute: str) -> object:
        return self._values[self._relation.index_of(attribute)]

    def get(self, attribute: str, default: object = None) -> object:
        """Value of ``attribute``, or ``default`` when absent."""
        if attribute in self._relation:
            return self[attribute]
        return default

    def as_dict(self) -> dict[str, object]:
        """The row as an attribute-name -> value dictionary."""
        return dict(zip(self._relation.attribute_names, self._values))

    def as_tuple(self) -> tuple:
        """The underlying value tuple."""
        return self._values

    def __iter__(self) -> Iterator[object]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Row):
            return self._values == other._values
        if isinstance(other, tuple):
            return self._values == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{name}={value!r}"
            for name, value in zip(self._relation.attribute_names, self._values)
        )
        return f"Row({pairs})"


#: Rows :class:`TypedColumns` converts per step, in either direction.
ROW_BLOCK = 4096


class _ColumnBuilder:
    """One column's typed buffer (see :class:`TypedColumns`), filled a
    block of typed values at a time."""

    __slots__ = ("type", "chunks", "values", "nulls")

    def __init__(self, attribute_type: AttributeType) -> None:
        self.type = attribute_type
        #: Array chunks (REAL, DATE, INT within int64) ...
        self.chunks: list = []
        #: ... or one list (TEXT, INT beyond int64).
        self.values: list | None = [] if attribute_type is AttributeType.TEXT else None
        #: Row indexes of the NULLs.
        self.nulls: list[int] = []

    def add(self, values: tuple, start: int) -> None:
        """Append the values of rows ``start`` on (``None`` at NULLs)."""
        has_nulls = None in values
        if has_nulls:
            self.nulls.extend(
                start + i for i, value in enumerate(values) if value is None
            )
        if self.type is AttributeType.DATE:
            values = [0 if value is None else value.toordinal() for value in values]
        elif has_nulls:
            fill = "" if self.type is AttributeType.TEXT else 0
            values = [fill if value is None else value for value in values]
        if self.values is not None:
            self.values.extend(values)
            return
        dtype = np.float64 if self.type is AttributeType.REAL else np.int64
        try:
            self.chunks.append(np.array(values, dtype=dtype))
        except OverflowError:
            if self.type is not AttributeType.INT:
                raise
            # An INT beyond int64: the column keeps Python ints.
            self.values = [value for chunk in self.chunks for value in chunk.tolist()]
            self.values.extend(values)
            self.chunks = []

    def finish(self, row_count: int) -> tuple:
        """``(values, nulls)``: the column's buffer and NULL mask."""
        nulls = None
        if self.nulls:
            nulls = np.zeros(row_count, dtype=bool)
            nulls[self.nulls] = True
        if self.values is not None:
            return self.values, nulls
        dtype = np.float64 if self.type is AttributeType.REAL else np.int64
        values = (
            self.chunks[0]
            if len(self.chunks) == 1
            else np.concatenate(self.chunks or [np.empty(0, dtype)])
        )
        values.flags.writeable = False
        return values, nulls


class TypedColumns:
    """A table's values as one typed buffer per attribute.

    ``columns[i]`` is ``(values, nulls)`` for the relation's ``i``-th
    attribute.  ``values`` is a ``float64`` array for REAL, an ``int64``
    array for INT (a list of Python ints when some value does not fit in
    int64), an ``int64`` array of proleptic ordinals for DATE, and a list
    of str for TEXT.  ``nulls`` is a boolean NULL mask, or ``None`` when
    the column has no NULL; a NULL position holds a placeholder (``0``,
    ``0.0``, ``""``) that readers must mask out.  The buffers are never
    written after construction.
    """

    __slots__ = ("relation", "columns", "row_count")

    def __init__(
        self, relation: Relation, columns: list[tuple], row_count: int
    ) -> None:
        self.relation = relation
        self.columns = columns
        self.row_count = row_count

    @classmethod
    def from_rows(cls, relation: Relation, rows: Iterable[tuple]) -> "TypedColumns":
        """The columns of ``rows``, value tuples already typed by the
        relation's attribute types (as a :class:`Table` holds them).

        ``rows`` is read :data:`ROW_BLOCK` rows at a time, so a stream of
        rows is never held whole.
        """
        builders = [_ColumnBuilder(attribute.type) for attribute in relation]
        rows = iter(rows)
        row_count = 0
        while block := list(itertools.islice(rows, ROW_BLOCK)):
            for builder, values in zip(builders, zip(*block)):
                builder.add(values, row_count)
            row_count += len(block)
        return cls(
            relation, [builder.finish(row_count) for builder in builders], row_count
        )

    def values(self, index: int, start: int = 0, stop: int | None = None) -> list:
        """The Python values of column ``index`` for rows ``start`` to
        ``stop`` (``None`` at NULLs), each of the type
        :meth:`AttributeType.coerce` returns."""
        values, nulls = self.columns[index]
        values = values[start:stop]
        items = values.tolist() if isinstance(values, np.ndarray) else values
        if nulls is not None:
            for row in np.flatnonzero(nulls[start:stop]).tolist():
                items[row] = None
        if self.relation.attributes[index].type is AttributeType.DATE:
            fromordinal = datetime.date.fromordinal
            items = [None if item is None else fromordinal(item) for item in items]
        return items

    def rows(self) -> list[tuple]:
        """Every row as a value tuple, built :data:`ROW_BLOCK` rows at a
        time, so the per-column lists in flight stay small."""
        rows: list[tuple] = []
        for start in range(0, self.row_count, ROW_BLOCK):
            stop = start + ROW_BLOCK
            rows.extend(
                zip(*(self.values(i, start, stop) for i in range(len(self.columns))))
            )
        return rows


class Table:
    """A typed, in-memory relation instance.

    Parameters
    ----------
    relation:
        The schema of the table.
    rows:
        Initial rows; each row may be a sequence (declaration order) or a
        mapping from attribute name to value.

    Examples
    --------
    >>> from repro.schema.model import Attribute, AttributeType, Relation
    >>> rel = Relation("S", [Attribute("a", AttributeType.INT),
    ...                      Attribute("b", AttributeType.REAL)])
    >>> t = Table(rel, [(1, 2.0), {"a": 3, "b": 4.5}])
    >>> len(t)
    2
    >>> t.column("b")
    (2.0, 4.5)
    """

    __slots__ = ("relation", "_rows", "_columns")

    def __init__(
        self,
        relation: Relation,
        rows: Iterable[Sequence | Mapping[str, object]] = (),
    ) -> None:
        self.relation = relation
        self._rows: list[tuple] | None = []
        self._columns: TypedColumns | None = None
        self.extend(rows)

    @classmethod
    def from_prepared_rows(
        cls, relation: Relation, rows: list[tuple]
    ) -> "Table":
        """Wrap already-typed row tuples without re-validating each value.

        Intended for library internals that build tables from values
        *already* coerced through the relation's attribute types: by
        another Table (the naive possible-worlds enumerator materializes
        one table per mapping sequence) or by a data generator.  Callers
        owning untrusted values must use the normal constructor.
        """
        table = cls.__new__(cls)
        table.relation = relation
        table._rows = rows
        table._columns = None
        return table

    @classmethod
    def from_columns(cls, columns: TypedColumns) -> "Table":
        """A table whose storage is ``columns`` (already typed and checked,
        as the CSV loader builds them); its row tuples are built on the
        first row access."""
        table = cls.__new__(cls)
        table.relation = columns.relation
        table._rows = None
        table._columns = columns
        return table

    def _coerce_row(self, row: Sequence | Mapping[str, object]) -> tuple:
        if isinstance(row, Mapping):
            unknown = set(row) - set(self.relation.attribute_names)
            if unknown:
                raise StorageError(
                    f"row has values for unknown attributes {sorted(unknown)} "
                    f"of relation {self.relation.name!r}"
                )
            values = [row.get(attr.name) for attr in self.relation]
        else:
            values = list(row)
            if len(values) != len(self.relation):
                raise StorageError(
                    f"row has {len(values)} values but relation "
                    f"{self.relation.name!r} has {len(self.relation)} attributes"
                )
        return tuple(
            attr.type.coerce(value)
            for attr, value in zip(self.relation, values)
        )

    # -- mutation ----------------------------------------------------------

    def append(self, row: Sequence | Mapping[str, object]) -> None:
        """Validate, coerce, and append one row."""
        self.extend((row,))

    def extend(self, rows: Iterable[Sequence | Mapping[str, object]]) -> None:
        """Append many rows.

        A column-backed table first builds its row tuples and drops its
        columns, which any columnar snapshot of it keeps unchanged.
        """
        target = self.row_tuples()
        self._columns = None
        for row in rows:
            target.append(self._coerce_row(row))

    # -- access ------------------------------------------------------------

    def typed_columns(self) -> TypedColumns:
        """The values as typed columns: a column-backed table's own
        buffers, or columns built from a row-built table's rows (not
        kept).  Read-only: the buffers must not be written."""
        if self._columns is None:
            return TypedColumns.from_rows(self.relation, self._rows)
        return self._columns

    def row_tuples(self) -> list[tuple]:
        """The cached row tuples themselves, built on first access.

        Not a copy: library internals read rows through this without
        copying them, and must not mutate the list.  Use :attr:`rows`
        for a mutation-safe copy.
        """
        rows = self._rows
        if rows is None:
            rows = self._rows = self._columns.rows()
        return rows

    @property
    def rows(self) -> tuple[tuple, ...]:
        """All rows as value tuples (a copy; mutation-safe)."""
        return tuple(self.row_tuples())

    def row(self, index: int) -> Row:
        """A name-addressable view of the row at ``index``."""
        return Row(self.relation, self.row_tuples()[index])

    def iter_rows(self) -> Iterator[Row]:
        """Iterate over :class:`Row` views."""
        for values in self.row_tuples():
            yield Row(self.relation, values)

    def column(self, attribute: str) -> tuple:
        """All values of one attribute, in row order.

        A column-backed table reads its column buffer and builds no rows.
        """
        index = self.relation.index_of(attribute)
        if self._rows is None:
            return tuple(self._columns.values(index))
        return tuple(values[index] for values in self._rows)

    def value_at(self, row_index: int, attribute: str) -> object:
        """The value of ``attribute`` in row ``row_index``."""
        return self.row_tuples()[row_index][self.relation.index_of(attribute)]

    def distinct(self, attribute: str) -> tuple:
        """Distinct values of one attribute, in first-seen order."""
        seen: dict[object, None] = {}
        for value in self.column(attribute):
            seen.setdefault(value, None)
        return tuple(seen)

    def select(self, predicate) -> "Table":
        """A new table with the rows for which ``predicate(Row)`` is true."""
        return Table.from_prepared_rows(
            self.relation,
            [
                values for values in self.row_tuples()
                if predicate(Row(self.relation, values))
            ],
        )

    def head(self, n: int) -> "Table":
        """A new table containing the first ``n`` rows."""
        return Table.from_prepared_rows(self.relation, self.row_tuples()[:n])

    def __len__(self) -> int:
        if self._rows is None:
            return self._columns.row_count
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return self.iter_rows()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        return (
            self.relation == other.relation
            and self.row_tuples() == other.row_tuples()
        )

    def __repr__(self) -> str:
        return f"Table({self.relation.name!r}, {len(self)} rows)"

    def pretty(self, limit: int = 20) -> str:
        """A fixed-width rendering of up to ``limit`` rows (for examples)."""
        names = self.relation.attribute_names
        rows = self.row_tuples()
        shown = [tuple(str(v) for v in values) for values in rows[:limit]]
        widths = [
            max(len(name), *(len(row[i]) for row in shown)) if shown else len(name)
            for i, name in enumerate(names)
        ]
        header = "  ".join(name.ljust(w) for name, w in zip(names, widths))
        lines = [header, "  ".join("-" * w for w in widths)]
        lines.extend(
            "  ".join(cell.ljust(w) for cell, w in zip(row, widths))
            for row in shown
        )
        if len(rows) > limit:
            lines.append(f"... ({len(rows) - limit} more rows)")
        return "\n".join(lines)
