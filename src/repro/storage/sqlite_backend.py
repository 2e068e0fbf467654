"""SQLite-backed relational engine for the by-table execution path.

The paper's prototype ran by-table queries on PostgreSQL and observed that
"the greater scalability of the by-table algorithms ... is in large part due
to the fact that [they are] taking advantage of the optimizations implemented
by the DBMS".  This module is our substitute DBMS: the stdlib ``sqlite3``
engine, with tables materialized from :class:`~repro.storage.table.Table`
instances.

DATE columns are stored as ISO-8601 TEXT, which makes SQL comparison
operators order dates correctly without custom collations.
"""

from __future__ import annotations

import datetime
import random
import sqlite3
import time
from collections.abc import Iterable, Sequence

from repro.exceptions import StorageError
from repro.obs import metrics
from repro.schema.model import Attribute, AttributeType, Relation
from repro.storage.table import Table
from repro.testing import faults

#: Retry policy for transient SQLite errors ("database is locked"/"busy"):
#: up to :data:`MAX_RETRIES` re-attempts with capped, jittered exponential
#: backoff starting at :data:`RETRY_BASE_DELAY` seconds.
MAX_RETRIES = 4
RETRY_BASE_DELAY = 0.005
RETRY_MAX_DELAY = 0.1


def _is_transient(error: sqlite3.Error) -> bool:
    """True for lock/busy contention, which a short retry usually clears."""
    if not isinstance(error, sqlite3.OperationalError):
        return False
    message = str(error).lower()
    return "locked" in message or "busy" in message


def _retry_delay(attempt: int, rng=random.random) -> float:
    """Capped exponential backoff with full jitter for retry ``attempt``."""
    ceiling = min(RETRY_MAX_DELAY, RETRY_BASE_DELAY * (2 ** attempt))
    return ceiling * rng()

_SQLITE_TYPE = {
    AttributeType.INT: "INTEGER",
    AttributeType.REAL: "REAL",
    AttributeType.TEXT: "TEXT",
    AttributeType.DATE: "TEXT",
}


def _to_sqlite_value(attr: Attribute, value: object) -> object:
    if value is None:
        return None
    if attr.type is AttributeType.DATE:
        assert isinstance(value, datetime.date)
        return value.isoformat()
    return value


def _from_sqlite_value(attr: Attribute, value: object) -> object:
    if value is None:
        return None
    if attr.type is AttributeType.DATE:
        return datetime.date.fromisoformat(str(value))
    return value


def _quote_identifier(name: str) -> str:
    """Quote an identifier for SQLite, escaping embedded quotes."""
    escaped = name.replace('"', '""')
    return f'"{escaped}"'


class SQLiteBackend:
    """An in-process SQLite database holding materialized source tables.

    Examples
    --------
    >>> backend = SQLiteBackend()
    >>> backend.materialize(my_table)                     # doctest: +SKIP
    >>> backend.query("SELECT COUNT(*) FROM S1")          # doctest: +SKIP
    [(4,)]
    """

    def __init__(self, path: str = ":memory:") -> None:
        self._connection = sqlite3.connect(path)
        self._relations: dict[str, Relation] = {}

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Close the underlying connection."""
        self._connection.close()

    def __enter__(self) -> "SQLiteBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- schema / data -----------------------------------------------------

    @property
    def relation_names(self) -> tuple[str, ...]:
        """Names of all materialized relations."""
        return tuple(self._relations)

    def relation(self, name: str) -> Relation:
        """The schema of a materialized relation."""
        try:
            return self._relations[name]
        except KeyError:
            raise StorageError(f"no materialized relation named {name!r}") from None

    def materialize(self, table: Table, *, replace: bool = False) -> None:
        """Create a SQLite table for ``table`` and bulk-load its rows."""
        relation = table.relation
        if relation.name in self._relations and not replace:
            raise StorageError(
                f"relation {relation.name!r} is already materialized; "
                "pass replace=True to overwrite"
            )
        quoted = _quote_identifier(relation.name)
        columns = ", ".join(
            f"{_quote_identifier(attr.name)} {_SQLITE_TYPE[attr.type]}"
            for attr in relation
        )
        cursor = self._connection.cursor()
        cursor.execute(f"DROP TABLE IF EXISTS {quoted}")
        cursor.execute(f"CREATE TABLE {quoted} ({columns})")
        placeholders = ", ".join("?" for _ in relation.attributes)
        insert_sql = f"INSERT INTO {quoted} VALUES ({placeholders})"
        cursor.executemany(
            insert_sql,
            (
                tuple(
                    _to_sqlite_value(attr, value)
                    for attr, value in zip(relation.attributes, values)
                )
                for values in table.row_tuples()
            ),
        )
        self._connection.commit()
        self._relations[relation.name] = relation

    def insert_rows(self, relation_name: str, rows: Iterable[Sequence]) -> None:
        """Append already-typed rows to a materialized relation."""
        relation = self.relation(relation_name)
        placeholders = ", ".join("?" for _ in relation.attributes)
        sql = (
            f"INSERT INTO {_quote_identifier(relation.name)} "
            f"VALUES ({placeholders})"
        )
        self._connection.cursor().executemany(
            sql,
            (
                tuple(
                    _to_sqlite_value(attr, value)
                    for attr, value in zip(relation.attributes, value_row)
                )
                for value_row in rows
            ),
        )
        self._connection.commit()

    def fetch_table(self, relation_name: str) -> Table:
        """Read a materialized relation back into an in-memory Table."""
        relation = self.relation(relation_name)
        cursor = self._connection.execute(
            f"SELECT * FROM {_quote_identifier(relation.name)}"
        )
        table = Table(relation)
        for raw in cursor:
            table.append(
                tuple(
                    _from_sqlite_value(attr, value)
                    for attr, value in zip(relation.attributes, raw)
                )
            )
        return table

    # -- querying ----------------------------------------------------------

    def query(self, sql: str, parameters: Sequence = ()) -> list[tuple]:
        """Run raw SQL and return all result rows.

        The by-table algorithm renders each reformulated query to SQLite SQL
        (see :meth:`repro.sql.ast.AggregateQuery.to_sql`) and executes it
        here, one query per candidate mapping — exactly the paper's Figure 1.
        """
        metrics.inc("sqlite.queries")
        cursor = self._execute_with_retry(sql, tuple(parameters))
        return cursor.fetchall()

    def _execute_with_retry(self, sql: str, parameters: tuple):
        """Execute, retrying transient lock/busy errors with backoff.

        Non-transient SQLite errors (syntax, missing table, type mismatch)
        raise :class:`~repro.exceptions.StorageError` immediately; the
        transient ones retry up to :data:`MAX_RETRIES` times with capped,
        jittered exponential backoff, counting ``sqlite.retries`` so
        contention is visible in EXPLAIN ANALYZE.
        """
        attempt = 0
        while True:
            try:
                faults.maybe_fire("sqlite.cursor")
                return self._connection.execute(sql, parameters)
            except sqlite3.Error as exc:
                if _is_transient(exc) and attempt < MAX_RETRIES:
                    metrics.inc("sqlite.retries")
                    time.sleep(_retry_delay(attempt))
                    attempt += 1
                    continue
                if _is_transient(exc):
                    metrics.inc("sqlite.retries.exhausted")
                    raise StorageError(
                        f"SQLite stayed locked after {MAX_RETRIES} retries: "
                        f"{exc}\n  SQL: {sql}"
                    ) from exc
                raise StorageError(
                    f"SQLite rejected query: {exc}\n  SQL: {sql}"
                ) from exc

    def scalar(self, sql: str, parameters: Sequence = ()) -> object:
        """Run raw SQL expected to return a single value."""
        rows = self.query(sql, parameters)
        if len(rows) != 1 or len(rows[0]) != 1:
            raise StorageError(
                f"expected a single scalar from query, got {len(rows)} rows"
            )
        return rows[0][0]
