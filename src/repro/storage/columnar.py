"""Columnar storage: typed column arrays with explicit null masks.

The by-tuple algorithms are per-tuple folds; evaluating them over
row-major Python tuples pays interpreter overhead per (tuple, mapping)
pair.  :class:`ColumnarTable` is the storage-layer answer: a build-once,
immutable column-major snapshot of a :class:`~repro.storage.table.Table`
that every array body (the numpy kernels of :mod:`repro.core.vectorized`,
the array-backed prepared queries of :mod:`repro.core.common`) consumes.

Conversion contract (from ``storage/table.Table``)
--------------------------------------------------

One numpy column array plus one optional boolean null mask per attribute:

========= ======================= ===========
SQL type  column array            NULL fill
========= ======================= ===========
INT       ``float64``             ``0.0``
REAL      ``float64``             ``0.0``
DATE      ``int64`` ordinals      ``0``
TEXT      unicode (``np.str_``)   ``""``
========= ======================= ===========

NULL cells are *only* distinguishable through the null mask
(:meth:`ColumnarTable.nulls`): the fill values above are dummies that keep
the arrays dense, and consumers must mask them out.  ``nulls(name)``
returns ``None`` for a column with no NULLs, so the common all-certain
case costs nothing.  INT columns ride in float64, which is exact for
integers up to 2**53; a column holding a larger magnitude is flagged
(:meth:`ColumnarTable.exact`) and the array kernels decline it, leaving
such data to the exact row walks.

Build-once semantics: a :class:`ColumnarTable` is a snapshot of the rows
at construction time and is never mutated afterwards; mutating the source
:class:`~repro.storage.table.Table` requires a fresh build (the engine's
columnar cache drops its entries on ``invalidate()``/``close()``).
"""

from __future__ import annotations

import datetime

import numpy as np

from repro.exceptions import StorageError
from repro.schema.model import AttributeType, Relation
from repro.storage.table import Table

__all__ = ["ColumnarError", "ColumnarTable"]


class ColumnarError(StorageError):
    """The columnar layer cannot serve a request (an unknown column)."""


def _null_mask(raw, row_count: int):
    """The boolean NULL mask of a raw column, or None when it has none."""
    if not any(value is None for value in raw):
        return None
    return np.fromiter((value is None for value in raw), dtype=bool, count=row_count)


def _numeric_store(raw, row_count: int):
    """(values, nulls) for an INT/REAL column; nulls is None when clean."""
    nulls = _null_mask(raw, row_count)
    if nulls is not None:
        raw = [0.0 if value is None else float(value) for value in raw]
    return np.asarray(raw, dtype=np.float64), nulls


def _date_store(raw, row_count: int):
    """(values, nulls) for a DATE column as proleptic-Gregorian ordinals."""
    ordinals = [0 if value is None else value.toordinal() for value in raw]
    return np.asarray(ordinals, dtype=np.int64), _null_mask(raw, row_count)


def _text_store(raw, row_count: int):
    """(values, nulls) for a TEXT column (empty-string dummy for NULL)."""
    filled = ["" if value is None else str(value) for value in raw]
    return np.asarray(filled, dtype=np.str_), _null_mask(raw, row_count)


class ColumnarTable:
    """A build-once column-major snapshot of one relation instance.

    Parameters
    ----------
    table:
        The row-major source.  Cell values are assumed coerced to the
        relation's attribute types (``Table`` guarantees this).

    Instances are picklable and immutable by convention: no method
    mutates the arrays after construction.
    """

    __slots__ = (
        "relation",
        "row_count",
        "_columns",
        "_nulls",
        "_inexact",
    )

    def __init__(self, table: Table) -> None:
        self._build(
            table.relation,
            {
                attribute.name: table.column(attribute.name)
                for attribute in table.relation
            },
            len(table),
        )

    @classmethod
    def from_rows(cls, relation: Relation, rows: list[tuple]) -> "ColumnarTable":
        """Build directly from raw row tuples (same contract as a Table)."""
        instance = object.__new__(cls)
        instance._build(
            relation,
            {
                attribute.name: tuple(values[index] for values in rows)
                for index, attribute in enumerate(relation)
            },
            len(rows),
        )
        return instance

    def _build(
        self,
        relation: Relation,
        raw_columns: dict[str, tuple],
        row_count: int,
    ) -> None:
        self.relation = relation
        self.row_count = row_count
        self._columns: dict[str, object] = {}
        self._nulls: dict[str, object] = {}
        self._inexact: frozenset[str] = frozenset()
        inexact = set()
        for attribute in relation:
            raw = raw_columns[attribute.name]
            if attribute.type in (AttributeType.INT, AttributeType.REAL):
                if attribute.type is AttributeType.INT and any(
                    value is not None and not -(2**53) <= value <= 2**53
                    for value in raw
                ):
                    inexact.add(attribute.name)
                values, nulls = _numeric_store(raw, row_count)
            elif attribute.type is AttributeType.DATE:
                values, nulls = _date_store(raw, row_count)
            else:
                values, nulls = _text_store(raw, row_count)
            self._columns[attribute.name] = values
            if nulls is not None:
                self._nulls[attribute.name] = nulls
        self._inexact = frozenset(inexact)

    # -- access ------------------------------------------------------------

    def __len__(self) -> int:
        return self.row_count

    def column(self, name: str):
        """The dense array backing one column (dummy-filled at NULLs)."""
        try:
            return self._columns[name]
        except KeyError:
            raise ColumnarError(
                f"relation {self.relation.name!r} has no column {name!r}"
            ) from None

    def nulls(self, name: str):
        """The column's boolean null mask, or ``None`` when NULL-free."""
        if name not in self._columns:
            raise ColumnarError(
                f"relation {self.relation.name!r} has no column {name!r}"
            )
        return self._nulls.get(name)

    def has_nulls(self, name: str) -> bool:
        """True when the column contains at least one NULL."""
        return self.nulls(name) is not None

    def exact(self, name: str) -> bool:
        """True when the column's array holds every value exactly.

        False only for an INT column with a magnitude beyond 2**53 (the
        float64 integer-exactness limit); consumers needing exact
        arithmetic must decline such a column to the scalar lane.
        """
        if name not in self._columns:
            raise ColumnarError(
                f"relation {self.relation.name!r} has no column {name!r}"
            )
        return name not in self._inexact

    def python_value(self, column_name: str, value: object) -> object:
        """Convert one array cell back to the column's Python type."""
        attribute = self.relation.attribute(column_name)
        if attribute.type is AttributeType.INT:
            return int(value)
        if attribute.type is AttributeType.REAL:
            return float(value)
        if attribute.type is AttributeType.DATE:
            return datetime.date.fromordinal(int(value))
        return str(value)

    def __repr__(self) -> str:
        return f"ColumnarTable({self.relation.name!r}, rows={self.row_count})"
