"""Abstract syntax tree for the aggregate-SQL subset.

The tree is immutable; transformations (column renaming during
reformulation) build new nodes via :meth:`Condition.map_columns` /
:meth:`AggregateQuery.map_columns`.  Every node renders itself back to SQL
through ``to_sql()``; the rendering is also valid SQLite SQL, which is how
the by-table path ships reformulated queries to the
:class:`~repro.storage.sqlite_backend.SQLiteBackend` (DATE values appear as
ISO-8601 strings there, matching the backend's storage format).
"""

from __future__ import annotations

import datetime
import enum
import re
from collections.abc import Callable, Iterator, Sequence

from repro.exceptions import SQLSyntaxError, UnsupportedQueryError


class AggregateOp(enum.Enum):
    """The five aggregate operators covered by the paper."""

    COUNT = "COUNT"
    SUM = "SUM"
    AVG = "AVG"
    MIN = "MIN"
    MAX = "MAX"


_DATE_LITERAL = re.compile(r"^(\d{4})-(\d{1,2})-(\d{1,2})$")


def parse_flexible_date(text: str) -> datetime.date | None:
    """Parse ``YYYY-M-D`` with or without zero padding, else ``None``.

    The paper writes dates like ``'2008-1-20'``; ISO parsing alone would
    reject them, so WHERE-clause comparison against DATE columns accepts
    this looser form.
    """
    match = _DATE_LITERAL.match(text.strip())
    if not match:
        return None
    year, month, day = (int(g) for g in match.groups())
    try:
        return datetime.date(year, month, day)
    except ValueError:
        return None


def _render_value(value: object) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    if isinstance(value, datetime.date):
        return f"'{value.isoformat()}'"
    if isinstance(value, float):
        return repr(value)
    return str(value)


class ColumnRef:
    """A possibly-qualified column reference (``price`` or ``R2.price``)."""

    __slots__ = ("name", "qualifier")

    def __init__(self, name: str, qualifier: str | None = None) -> None:
        self.name = name
        self.qualifier = qualifier

    def to_sql(self) -> str:
        if self.qualifier:
            return f"{self.qualifier}.{self.name}"
        return self.name

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColumnRef):
            return NotImplemented
        return self.name == other.name and self.qualifier == other.qualifier

    def __hash__(self) -> int:
        return hash((self.name, self.qualifier))

    def __repr__(self) -> str:
        return f"ColumnRef({self.to_sql()!r})"


class Literal:
    """A constant in a WHERE clause: number, string, or date."""

    __slots__ = ("value",)

    def __init__(self, value: object) -> None:
        self.value = value

    def to_sql(self) -> str:
        return _render_value(self.value)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Literal):
            return NotImplemented
        return self.value == other.value and type(self.value) is type(other.value)

    def __hash__(self) -> int:
        return hash((type(self.value), self.value))

    def __repr__(self) -> str:
        return f"Literal({self.value!r})"


Operand = ColumnRef | Literal


def _map_operand(operand: Operand, fn: Callable[[ColumnRef], ColumnRef]) -> Operand:
    if isinstance(operand, ColumnRef):
        return fn(operand)
    return operand


class Condition:
    """Base class for WHERE-clause conditions."""

    __slots__ = ()

    def to_sql(self) -> str:
        raise NotImplementedError

    def map_columns(self, fn: Callable[[ColumnRef], ColumnRef]) -> "Condition":
        """A copy of the condition with every column ref passed through ``fn``."""
        raise NotImplementedError

    def columns(self) -> Iterator[ColumnRef]:
        """All column references in the condition (with repetition)."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.to_sql()!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Condition):
            return NotImplemented
        return type(self) is type(other) and self.to_sql() == other.to_sql()

    def __hash__(self) -> int:
        return hash((type(self), self.to_sql()))


COMPARISON_OPERATORS = ("=", "<>", "<", "<=", ">", ">=")


class Comparison(Condition):
    """A binary comparison, e.g. ``date < '2008-1-20'``."""

    __slots__ = ("left", "operator", "right")

    def __init__(self, left: Operand, operator: str, right: Operand) -> None:
        if operator not in COMPARISON_OPERATORS:
            raise SQLSyntaxError(f"unknown comparison operator {operator!r}")
        self.left = left
        self.operator = operator
        self.right = right

    def to_sql(self) -> str:
        return f"{self.left.to_sql()} {self.operator} {self.right.to_sql()}"

    def map_columns(self, fn: Callable[[ColumnRef], ColumnRef]) -> "Comparison":
        return Comparison(
            _map_operand(self.left, fn), self.operator, _map_operand(self.right, fn)
        )

    def columns(self) -> Iterator[ColumnRef]:
        for operand in (self.left, self.right):
            if isinstance(operand, ColumnRef):
                yield operand


class BooleanCondition(Condition):
    """An AND / OR of two or more sub-conditions."""

    __slots__ = ("operator", "operands")

    def __init__(self, operator: str, operands: Sequence[Condition]) -> None:
        if operator not in ("AND", "OR"):
            raise SQLSyntaxError(f"unknown boolean operator {operator!r}")
        if len(operands) < 2:
            raise SQLSyntaxError(f"{operator} needs at least two operands")
        self.operator = operator
        self.operands = tuple(operands)

    def to_sql(self) -> str:
        joined = f" {self.operator} ".join(
            f"({operand.to_sql()})" for operand in self.operands
        )
        return joined

    def map_columns(self, fn: Callable[[ColumnRef], ColumnRef]) -> "BooleanCondition":
        return BooleanCondition(
            self.operator, [operand.map_columns(fn) for operand in self.operands]
        )

    def columns(self) -> Iterator[ColumnRef]:
        for operand in self.operands:
            yield from operand.columns()


class NotCondition(Condition):
    """Negation of a condition."""

    __slots__ = ("operand",)

    def __init__(self, operand: Condition) -> None:
        self.operand = operand

    def to_sql(self) -> str:
        return f"NOT ({self.operand.to_sql()})"

    def map_columns(self, fn: Callable[[ColumnRef], ColumnRef]) -> "NotCondition":
        return NotCondition(self.operand.map_columns(fn))

    def columns(self) -> Iterator[ColumnRef]:
        yield from self.operand.columns()


class BetweenPredicate(Condition):
    """``x BETWEEN low AND high`` (inclusive on both ends)."""

    __slots__ = ("operand", "low", "high", "negated")

    def __init__(
        self, operand: Operand, low: Operand, high: Operand, negated: bool = False
    ) -> None:
        self.operand = operand
        self.low = low
        self.high = high
        self.negated = negated

    def to_sql(self) -> str:
        keyword = "NOT BETWEEN" if self.negated else "BETWEEN"
        return (
            f"{self.operand.to_sql()} {keyword} "
            f"{self.low.to_sql()} AND {self.high.to_sql()}"
        )

    def map_columns(self, fn: Callable[[ColumnRef], ColumnRef]) -> "BetweenPredicate":
        return BetweenPredicate(
            _map_operand(self.operand, fn),
            _map_operand(self.low, fn),
            _map_operand(self.high, fn),
            self.negated,
        )

    def columns(self) -> Iterator[ColumnRef]:
        for operand in (self.operand, self.low, self.high):
            if isinstance(operand, ColumnRef):
                yield operand


class InPredicate(Condition):
    """``x IN (v1, v2, ...)`` over literal values."""

    __slots__ = ("operand", "values", "negated")

    def __init__(
        self, operand: Operand, values: Sequence[Literal], negated: bool = False
    ) -> None:
        if not values:
            raise SQLSyntaxError("IN list must not be empty")
        self.operand = operand
        self.values = tuple(values)
        self.negated = negated

    def to_sql(self) -> str:
        keyword = "NOT IN" if self.negated else "IN"
        inner = ", ".join(value.to_sql() for value in self.values)
        return f"{self.operand.to_sql()} {keyword} ({inner})"

    def map_columns(self, fn: Callable[[ColumnRef], ColumnRef]) -> "InPredicate":
        return InPredicate(
            _map_operand(self.operand, fn), self.values, self.negated
        )

    def columns(self) -> Iterator[ColumnRef]:
        if isinstance(self.operand, ColumnRef):
            yield self.operand


class IsNullPredicate(Condition):
    """``x IS [NOT] NULL``."""

    __slots__ = ("operand", "negated")

    def __init__(self, operand: Operand, negated: bool = False) -> None:
        self.operand = operand
        self.negated = negated

    def to_sql(self) -> str:
        keyword = "IS NOT NULL" if self.negated else "IS NULL"
        return f"{self.operand.to_sql()} {keyword}"

    def map_columns(self, fn: Callable[[ColumnRef], ColumnRef]) -> "IsNullPredicate":
        return IsNullPredicate(_map_operand(self.operand, fn), self.negated)

    def columns(self) -> Iterator[ColumnRef]:
        if isinstance(self.operand, ColumnRef):
            yield self.operand


class LikePredicate(Condition):
    """``x LIKE pattern`` with SQL ``%`` and ``_`` wildcards."""

    __slots__ = ("operand", "pattern", "negated")

    def __init__(self, operand: Operand, pattern: str, negated: bool = False) -> None:
        self.operand = operand
        self.pattern = pattern
        self.negated = negated

    def to_sql(self) -> str:
        keyword = "NOT LIKE" if self.negated else "LIKE"
        return f"{self.operand.to_sql()} {keyword} {_render_value(self.pattern)}"

    def map_columns(self, fn: Callable[[ColumnRef], ColumnRef]) -> "LikePredicate":
        return LikePredicate(_map_operand(self.operand, fn), self.pattern, self.negated)

    def columns(self) -> Iterator[ColumnRef]:
        if isinstance(self.operand, ColumnRef):
            yield self.operand


class AggregateCall:
    """The SELECT item: ``Agg([DISTINCT] column)`` or ``COUNT(*)``.

    ``argument`` is ``None`` exactly for ``COUNT(*)``.
    """

    __slots__ = ("op", "argument", "distinct")

    def __init__(
        self,
        op: AggregateOp,
        argument: ColumnRef | None,
        distinct: bool = False,
    ) -> None:
        if argument is None and op is not AggregateOp.COUNT:
            raise UnsupportedQueryError(f"{op.value}(*) is not valid SQL")
        if argument is None and distinct:
            raise UnsupportedQueryError("COUNT(DISTINCT *) is not valid SQL")
        self.op = op
        self.argument = argument
        self.distinct = distinct

    def to_sql(self) -> str:
        if self.argument is None:
            return f"{self.op.value}(*)"
        inner = self.argument.to_sql()
        if self.distinct:
            inner = f"DISTINCT {inner}"
        return f"{self.op.value}({inner})"

    def map_columns(self, fn: Callable[[ColumnRef], ColumnRef]) -> "AggregateCall":
        argument = fn(self.argument) if self.argument is not None else None
        return AggregateCall(self.op, argument, self.distinct)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AggregateCall):
            return NotImplemented
        return (
            self.op == other.op
            and self.argument == other.argument
            and self.distinct == other.distinct
        )

    def __hash__(self) -> int:
        return hash((self.op, self.argument, self.distinct))

    def __repr__(self) -> str:
        return f"AggregateCall({self.to_sql()!r})"


class TableSource:
    """A FROM clause naming a base relation, with an optional alias."""

    __slots__ = ("name", "alias")

    def __init__(self, name: str, alias: str | None = None) -> None:
        self.name = name
        self.alias = alias

    @property
    def binding_name(self) -> str:
        """The name column qualifiers resolve against."""
        return self.alias or self.name

    def to_sql(self) -> str:
        if self.alias:
            return f"{self.name} AS {self.alias}"
        return self.name

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TableSource):
            return NotImplemented
        return self.name == other.name and self.alias == other.alias

    def __hash__(self) -> int:
        return hash((self.name, self.alias))

    def __repr__(self) -> str:
        return f"TableSource({self.to_sql()!r})"


class SubquerySource:
    """A FROM clause wrapping a nested aggregate query (paper's Q2 shape)."""

    __slots__ = ("query", "alias")

    def __init__(self, query: "AggregateQuery", alias: str) -> None:
        if not alias:
            raise SQLSyntaxError("a FROM subquery requires an alias")
        self.query = query
        self.alias = alias

    @property
    def binding_name(self) -> str:
        """The name column qualifiers resolve against."""
        return self.alias

    def to_sql(self) -> str:
        return f"({self.query.to_sql()}) AS {self.alias}"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SubquerySource):
            return NotImplemented
        return self.query == other.query and self.alias == other.alias

    def __hash__(self) -> int:
        return hash((self.query, self.alias))

    def __repr__(self) -> str:
        return f"SubquerySource({self.to_sql()!r})"


class AggregateQuery:
    """A full aggregate query over one (possibly nested) source.

    Examples
    --------
    >>> from repro.sql.parser import parse_query
    >>> q = parse_query("SELECT COUNT(*) FROM T1 WHERE date < '2008-1-20'")
    >>> q.aggregate.op
    <AggregateOp.COUNT: 'COUNT'>
    >>> q.to_sql()
    "SELECT COUNT(*) FROM T1 WHERE date < '2008-1-20'"
    """

    __slots__ = ("aggregate", "source", "where", "group_by")

    def __init__(
        self,
        aggregate: AggregateCall,
        source: TableSource | SubquerySource,
        where: Condition | None = None,
        group_by: ColumnRef | None = None,
    ) -> None:
        self.aggregate = aggregate
        self.source = source
        self.where = where
        self.group_by = group_by

    @property
    def is_nested(self) -> bool:
        """True when the FROM clause is a subquery."""
        return isinstance(self.source, SubquerySource)

    def to_sql(self) -> str:
        parts = [f"SELECT {self.aggregate.to_sql()}", f"FROM {self.source.to_sql()}"]
        if self.where is not None:
            parts.append(f"WHERE {self.where.to_sql()}")
        if self.group_by is not None:
            parts.append(f"GROUP BY {self.group_by.to_sql()}")
        return " ".join(parts)

    def map_columns(
        self, fn: Callable[[ColumnRef], ColumnRef]
    ) -> "AggregateQuery":
        """A copy with every column ref of *this level* passed through ``fn``.

        A nested subquery is left untouched: its columns live in a different
        scope (reformulation rewrites each level against its own relation).
        """
        return AggregateQuery(
            self.aggregate.map_columns(fn),
            self.source,
            self.where.map_columns(fn) if self.where is not None else None,
            fn(self.group_by) if self.group_by is not None else None,
        )

    def with_source(
        self, source: TableSource | SubquerySource
    ) -> "AggregateQuery":
        """A copy reading from a different source."""
        return AggregateQuery(self.aggregate, source, self.where, self.group_by)

    def columns(self) -> Iterator[ColumnRef]:
        """All column refs at this level (not inside a nested subquery)."""
        if self.aggregate.argument is not None:
            yield self.aggregate.argument
        if self.where is not None:
            yield from self.where.columns()
        if self.group_by is not None:
            yield self.group_by

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AggregateQuery):
            return NotImplemented
        return self.to_sql() == other.to_sql()

    def __hash__(self) -> int:
        return hash(self.to_sql())

    def __repr__(self) -> str:
        return f"AggregateQuery({self.to_sql()!r})"
