"""In-memory table: the substrate the by-tuple algorithms iterate over.

A :class:`Table` couples a :class:`~repro.schema.model.Relation` schema with
a list of tuples.  Values are validated and coerced to the attribute types at
insertion, so downstream algorithms can rely on homogeneous columns.

Rows are plain tuples (cheap, hashable); :class:`Row` is a lightweight
name-based view over one used where readability matters (condition
evaluation, examples).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence

from repro.exceptions import StorageError
from repro.schema.model import Relation


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

    __slots__ = ("relation", "_rows")

    def __init__(
        self,
        relation: Relation,
        rows: Iterable[Sequence | Mapping[str, object]] = (),
    ) -> None:
        self.relation = relation
        self._rows: list[tuple] = []
        self.extend(rows)

    @classmethod
    def from_prepared_rows(
        cls, relation: Relation, rows: list[tuple]
    ) -> "Table":
        """Wrap already-typed row tuples without re-validating each value.

        Intended for library internals that build tables from values
        *already* coerced through the relation's attribute types: by
        another Table (the naive possible-worlds enumerator materializes
        one table per mapping sequence) or by the CSV loader.  Callers
        owning untrusted values must use the normal constructor.
        """
        table = cls.__new__(cls)
        table.relation = relation
        table._rows = rows
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
        self._rows.append(self._coerce_row(row))

    def extend(self, rows: Iterable[Sequence | Mapping[str, object]]) -> None:
        """Append many rows."""
        for row in rows:
            self.append(row)

    # -- access ------------------------------------------------------------

    @property
    def rows(self) -> tuple[tuple, ...]:
        """All rows as value tuples (a copy; mutation-safe)."""
        return tuple(self._rows)

    def row(self, index: int) -> Row:
        """A name-addressable view of the row at ``index``."""
        return Row(self.relation, self._rows[index])

    def iter_rows(self) -> Iterator[Row]:
        """Iterate over :class:`Row` views."""
        for values in self._rows:
            yield Row(self.relation, values)

    def column(self, attribute: str) -> tuple:
        """All values of one attribute, in row order."""
        index = self.relation.index_of(attribute)
        return tuple(values[index] for values in self._rows)

    def value_at(self, row_index: int, attribute: str) -> object:
        """The value of ``attribute`` in row ``row_index``."""
        return self._rows[row_index][self.relation.index_of(attribute)]

    def distinct(self, attribute: str) -> tuple:
        """Distinct values of one attribute, in first-seen order."""
        seen: dict[object, None] = {}
        for value in self.column(attribute):
            seen.setdefault(value, None)
        return tuple(seen)

    def select(self, predicate) -> "Table":
        """A new table with the rows for which ``predicate(Row)`` is true."""
        out = Table(self.relation)
        out._rows = [
            values for values in self._rows
            if predicate(Row(self.relation, values))
        ]
        return out

    def head(self, n: int) -> "Table":
        """A new table containing the first ``n`` rows."""
        out = Table(self.relation)
        out._rows = self._rows[:n]
        return out

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return self.iter_rows()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        return self.relation == other.relation and self._rows == other._rows

    def __repr__(self) -> str:
        return f"Table({self.relation.name!r}, {len(self._rows)} rows)"

    def pretty(self, limit: int = 20) -> str:
        """A fixed-width rendering of up to ``limit`` rows (for examples)."""
        names = self.relation.attribute_names
        shown = [tuple(str(v) for v in values) for values in self._rows[:limit]]
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
        if len(self._rows) > limit:
            lines.append(f"... ({len(self._rows) - limit} more rows)")
        return "\n".join(lines)
