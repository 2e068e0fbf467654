"""Typed relational catalog: attributes, relations, schemas.

The catalog is deliberately small — just enough structure for the paper's
setting: relations are flat, attributes are typed (int/real/text/date), and a
schema is a named collection of relations.  Everything is immutable so that
mappings and queries can safely hold references.
"""

from __future__ import annotations

import datetime
import enum
from collections.abc import Callable, Iterable, Iterator

from repro.exceptions import SchemaError


class AttributeType(enum.Enum):
    """The value domain of an attribute.

    ``DATE`` values are represented as :class:`datetime.date`; comparisons in
    WHERE clauses work on them natively (the paper's Q1 compares dates).
    """

    INT = "int"
    REAL = "real"
    TEXT = "text"
    DATE = "date"

    def python_type(self) -> type:
        """The Python type used to store values of this attribute type."""
        return {
            AttributeType.INT: int,
            AttributeType.REAL: float,
            AttributeType.TEXT: str,
            AttributeType.DATE: datetime.date,
        }[self]

    @property
    def parse(self) -> Callable[[str], object]:
        """This type's one string-to-value function (``int``, ``float``,
        ISO date; TEXT keeps the string); it raises :class:`SchemaError`
        on a malformed string.  :meth:`coerce` reads strings through it,
        and the CSV loader picks it once per column."""
        return _PARSERS[self]

    def coerce(self, value: object) -> object:
        """Convert ``value`` into this type's Python representation.

        Accepts the obvious widenings (int -> float for REAL, ISO strings
        for DATE) and raises :class:`SchemaError` otherwise.
        """
        if value is None:
            return None
        if isinstance(value, str):
            return self.parse(value)
        if self is AttributeType.INT:
            if isinstance(value, bool):
                raise SchemaError(f"cannot store boolean {value!r} in INT column")
            if isinstance(value, int):
                return value
            if isinstance(value, float) and value.is_integer():
                return int(value)
        elif self is AttributeType.REAL:
            if isinstance(value, bool):
                raise SchemaError(f"cannot store boolean {value!r} in REAL column")
            if isinstance(value, (int, float)):
                return float(value)
        elif self is AttributeType.TEXT:
            return str(value)
        elif self is AttributeType.DATE:
            if isinstance(value, datetime.datetime):
                return value.date()
            if isinstance(value, datetime.date):
                return value
        raise SchemaError(f"cannot coerce {value!r} to {self.value.upper()}")


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise SchemaError(f"cannot coerce {text!r} to INT") from exc


def _parse_real(text: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise SchemaError(f"cannot coerce {text!r} to REAL") from exc


def _parse_date(text: str) -> datetime.date:
    try:
        return datetime.date.fromisoformat(text)
    except ValueError as exc:
        raise SchemaError(
            f"cannot coerce {text!r} to DATE (expected ISO format)"
        ) from exc


_PARSERS: dict[AttributeType, Callable[[str], object]] = {
    AttributeType.INT: _parse_int,
    AttributeType.REAL: _parse_real,
    AttributeType.TEXT: str,
    AttributeType.DATE: _parse_date,
}


class Attribute:
    """A named, typed column of a relation.

    Examples
    --------
    >>> Attribute("price", AttributeType.REAL)
    Attribute('price', REAL)
    """

    __slots__ = ("name", "type")

    def __init__(self, name: str, type: AttributeType = AttributeType.REAL) -> None:
        if not name or not isinstance(name, str):
            raise SchemaError(f"attribute name must be a non-empty string, got {name!r}")
        if not isinstance(type, AttributeType):
            raise SchemaError(f"attribute type must be an AttributeType, got {type!r}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "type", type)

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError("Attribute instances are immutable")

    def __reduce__(self):
        # __slots__ plus the immutability guard breaks default pickling
        # (unpickling would call __setattr__); reconstruct through the
        # validating constructor instead.
        return (Attribute, (self.name, self.type))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Attribute):
            return NotImplemented
        return self.name == other.name and self.type == other.type

    def __hash__(self) -> int:
        return hash((self.name, self.type))

    def __repr__(self) -> str:
        return f"Attribute({self.name!r}, {self.type.name})"


class Relation:
    """A named relation (table) schema: an ordered list of attributes.

    Attribute names are unique within a relation; lookup by name is O(1).

    Examples
    --------
    >>> r = Relation("S1", [Attribute("ID", AttributeType.INT),
    ...                     Attribute("price", AttributeType.REAL)])
    >>> r.attribute("price").type
    <AttributeType.REAL: 'real'>
    >>> "ID" in r
    True
    """

    __slots__ = ("name", "attributes", "_by_name")

    def __init__(self, name: str, attributes: Iterable[Attribute]) -> None:
        if not name or not isinstance(name, str):
            raise SchemaError(f"relation name must be a non-empty string, got {name!r}")
        attrs = tuple(attributes)
        if not attrs:
            raise SchemaError(f"relation {name!r} must have at least one attribute")
        by_name: dict[str, Attribute] = {}
        for attr in attrs:
            if not isinstance(attr, Attribute):
                raise SchemaError(f"expected Attribute, got {attr!r}")
            if attr.name in by_name:
                raise SchemaError(
                    f"duplicate attribute {attr.name!r} in relation {name!r}"
                )
            by_name[attr.name] = attr
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "attributes", attrs)
        object.__setattr__(self, "_by_name", by_name)

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError("Relation instances are immutable")

    def __reduce__(self):
        return (Relation, (self.name, self.attributes))

    @property
    def attribute_names(self) -> tuple[str, ...]:
        """Names of all attributes, in declaration order."""
        return tuple(attr.name for attr in self.attributes)

    def attribute(self, name: str) -> Attribute:
        """Look up an attribute by name, raising :class:`SchemaError` if absent."""
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(
                f"relation {self.name!r} has no attribute {name!r} "
                f"(has: {', '.join(self.attribute_names)})"
            ) from None

    def index_of(self, name: str) -> int:
        """Positional index of the named attribute."""
        for i, attr in enumerate(self.attributes):
            if attr.name == name:
                return i
        raise SchemaError(f"relation {self.name!r} has no attribute {name!r}")

    def __contains__(self, name: object) -> bool:
        return name in self._by_name

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self.attributes)

    def __len__(self) -> int:
        return len(self.attributes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self.name == other.name and self.attributes == other.attributes

    def __hash__(self) -> int:
        return hash((self.name, self.attributes))

    def __repr__(self) -> str:
        cols = ", ".join(f"{a.name}:{a.type.value}" for a in self.attributes)
        return f"Relation({self.name!r}, [{cols}])"


class Schema:
    """A named collection of relations (a source schema or mediated schema)."""

    __slots__ = ("name", "relations", "_by_name")

    def __init__(self, name: str, relations: Iterable[Relation]) -> None:
        if not name or not isinstance(name, str):
            raise SchemaError(f"schema name must be a non-empty string, got {name!r}")
        rels = tuple(relations)
        by_name: dict[str, Relation] = {}
        for rel in rels:
            if not isinstance(rel, Relation):
                raise SchemaError(f"expected Relation, got {rel!r}")
            if rel.name in by_name:
                raise SchemaError(f"duplicate relation {rel.name!r} in schema {name!r}")
            by_name[rel.name] = rel
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "relations", rels)
        object.__setattr__(self, "_by_name", by_name)

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError("Schema instances are immutable")

    def __reduce__(self):
        return (Schema, (self.name, self.relations))

    def relation(self, name: str) -> Relation:
        """Look up a relation by name, raising :class:`SchemaError` if absent."""
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(
                f"schema {self.name!r} has no relation {name!r} "
                f"(has: {', '.join(r.name for r in self.relations)})"
            ) from None

    def __contains__(self, name: object) -> bool:
        return name in self._by_name

    def __iter__(self) -> Iterator[Relation]:
        return iter(self.relations)

    def __len__(self) -> int:
        return len(self.relations)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self.name == other.name and self.relations == other.relations

    def __hash__(self) -> int:
        return hash((self.name, self.relations))

    def __repr__(self) -> str:
        return f"Schema({self.name!r}, {len(self.relations)} relations)"
