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

The snapshot is built from the table's typed columns
(:meth:`~repro.storage.table.Table.typed_columns`: a CSV-loaded table's
own buffers, or columns converted from a row-built table's rows).  REAL
and DATE columns are already in the form above: the snapshot wraps those
buffers and their masks without a copy, and converts INT and TEXT.

NULL cells are *only* distinguishable through the null mask
(:meth:`ColumnarTable.nulls`): the fill values above are dummies that keep
the arrays dense, and consumers must mask them out.  ``nulls(name)``
returns ``None`` for a column with no NULLs, so the common all-certain
case costs nothing.  INT columns ride in float64, which is exact for
integers up to 2**53; a column holding a larger magnitude is flagged
(:meth:`ColumnarTable.exact`) and the array kernels decline it, leaving
such data to the exact row walks.

Build-once semantics: a :class:`ColumnarTable` is a snapshot of the table
at construction time and is never mutated afterwards; a table's mutation
never writes into a buffer a snapshot wraps (it drops the table's
columns instead), and mutating the source requires a fresh build (the
engine's columnar cache drops its entries on ``invalidate()``/``close()``).
"""

from __future__ import annotations

import datetime

import numpy as np

from repro.exceptions import StorageError
from repro.schema.model import AttributeType
from repro.storage.table import Table, TypedColumns

__all__ = ["ColumnarError", "ColumnarTable"]


class ColumnarError(StorageError):
    """The columnar layer cannot serve a request (an unknown column)."""


def _wrap(attribute_type: AttributeType, typed: TypedColumns, index: int):
    """(values, nulls, exact) of column ``index``: the REAL and DATE
    buffers as they are, INT as float64, TEXT as a unicode array."""
    values, nulls = typed.columns[index]
    if attribute_type is AttributeType.TEXT:
        return np.asarray(values, dtype=np.str_), nulls, True
    if attribute_type is AttributeType.INT:
        if not isinstance(values, np.ndarray):  # beyond int64: Python ints
            return np.asarray(values, dtype=np.float64), nulls, False
        exact = not values.size or (
            -(2**53) <= int(values.min()) and int(values.max()) <= 2**53
        )
        return values.astype(np.float64), nulls, exact
    return values, nulls, True


class ColumnarTable:
    """A build-once column-major snapshot of one relation instance.

    Parameters
    ----------
    table:
        The source, column-backed or row-built.  Cell values are assumed
        coerced to the relation's attribute types (``Table`` guarantees
        this).

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
        self.relation = table.relation
        self.row_count = len(table)
        self._columns: dict[str, object] = {}
        self._nulls: dict[str, object] = {}
        typed = table.typed_columns()
        inexact = set()
        for index, attribute in enumerate(self.relation):
            values, nulls, exact = _wrap(attribute.type, typed, index)
            if not exact:
                inexact.add(attribute.name)
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
