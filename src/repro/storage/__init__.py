"""Storage substrates.

Two execution substrates back the query algorithms:

* :class:`~repro.storage.table.Table` — an in-memory table used by the
  by-tuple algorithms, which need to visit each tuple and evaluate it under
  every candidate mapping (rows built in code, or typed columns loaded from
  CSV whose row tuples are built only when a row reader asks);
* :class:`~repro.storage.sqlite_backend.SQLiteBackend` — a stdlib
  ``sqlite3``-backed engine used by the by-table algorithms, which issue one
  ordinary SQL aggregate query per mapping.  This stands in for the paper's
  PostgreSQL instance and supplies the "DBMS optimizations" that make the
  by-table path scale.
"""

from repro.storage.csv_io import load_table_csv, save_table_csv
from repro.storage.sqlite_backend import SQLiteBackend
from repro.storage.table import Table

__all__ = ["SQLiteBackend", "Table", "load_table_csv", "save_table_csv"]
