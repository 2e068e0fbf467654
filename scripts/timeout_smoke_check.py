#!/usr/bin/env python
"""CI smoke check: guardrail deadlines abort exponential work fast.

A by-tuple SUM query under the distribution semantics has no PTIME
algorithm (Figure 6): exact evaluation enumerates ``m^n`` mapping
sequences, which for the 12-tuple/3-mapping instance below is ~531k
world evaluations — minutes of work.  This check asserts the
robustness contract instead of waiting:

1. with a 50 ms deadline the query aborts with
   :class:`~repro.exceptions.QueryTimeoutError` in well under 2 s,
   reporting structured partial progress;
2. with degradation enabled, the same breach reruns on the sampling
   lane and returns an answer with a recorded accuracy contract; the
   execution record is the query log's last entry, with status
   ``degraded`` and the degradation's epsilon;
3. the CLI surfaces the timeout as exit code 10 with a one-line error.

Run from the repository root::

    PYTHONPATH=src python scripts/timeout_smoke_check.py
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
import time
from pathlib import Path

from repro import AggregationEngine, QueryTimeoutError
from repro.data import synthetic
from repro.schema.serialize import save_pmapping
from repro.storage.csv_io import save_table_csv

NUM_TUPLES = 12
NUM_MAPPINGS = 3
DEADLINE_MS = 50.0
MAX_SECONDS = 2.0
QUERY = "SELECT SUM(value) FROM MED WHERE value < 500"


def build_problem():
    table = synthetic.generate_source_table(NUM_TUPLES, NUM_MAPPINGS, seed=0)
    pmapping = synthetic.generate_pmapping(
        table.relation, NUM_MAPPINGS, seed=0
    )
    return table, pmapping


def check_abort(table, pmapping) -> bool:
    engine = AggregationEngine(
        [table], pmapping, allow_exponential=True, timeout_ms=DEADLINE_MS
    )
    started = time.perf_counter()
    try:
        engine.answer(QUERY, "by-tuple", "distribution")
    except QueryTimeoutError as error:
        elapsed = time.perf_counter() - started
        if elapsed >= MAX_SECONDS:
            print(f"FAIL abort: took {elapsed:.2f}s (limit {MAX_SECONDS}s)")
            return False
        print(
            f"ok   abort: QueryTimeoutError after {elapsed * 1e3:.0f} ms "
            f"(worlds enumerated: {error.progress.get('worlds')})"
        )
        return True
    print("FAIL abort: the deadline never fired")
    return False


def check_degrade(table, pmapping) -> bool:
    engine = AggregationEngine(
        [table],
        pmapping,
        allow_exponential=True,
        timeout_ms=DEADLINE_MS,
        degrade=True,
        samples=500,
        seed=0,
    )
    started = time.perf_counter()
    answer = engine.answer(QUERY, "by-tuple", "distribution")
    elapsed = time.perf_counter() - started
    record = engine.context.last_record
    event = record.degraded if record is not None else None
    if event is None or event.get("to") != "sampling":
        print(f"FAIL degrade: no sampling degradation recorded ({record})")
        return False
    if engine.recent_queries()[-1] is not record:
        print("FAIL degrade: last_record is not the query log's last record")
        return False
    if record.status != "degraded" or record.epsilon != event["epsilon"]:
        print(
            f"FAIL degrade: query-log record has status {record.status!r} "
            f"and epsilon {record.epsilon} (expected 'degraded' and "
            f"{event['epsilon']})"
        )
        return False
    print(
        f"ok   degrade: {event['from']} -> {event['to']} in "
        f"{elapsed * 1e3:.0f} ms, {event['samples']} samples "
        f"(epsilon={event['epsilon']:.3f}), answer {answer!r:.60}"
    )
    return True


def check_cli_exit_code(table, pmapping) -> bool:
    from repro.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        csv_path = str(Path(tmp) / "data.csv")
        map_path = str(Path(tmp) / "mapping.json")
        save_table_csv(table, csv_path)
        save_pmapping(pmapping, map_path)
        argv = [
            "query", "--data", csv_path, "--mapping", map_path,
            "--query", QUERY,
            "--mapping-semantics", "by-tuple",
            "--aggregate-semantics", "distribution",
            "--allow-exponential",
            "--timeout-ms", str(DEADLINE_MS),
        ]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(argv)
    message = stderr.getvalue().strip()
    if code != 10:
        print(f"FAIL cli: exit code {code} (expected 10); stderr: {message}")
        return False
    if "\n" in message or not message.startswith("error:"):
        print(f"FAIL cli: stderr is not one clean line: {message!r}")
        return False
    print(f"ok   cli: exit code 10, stderr {message!r:.70}")
    return True


def run() -> int:
    table, pmapping = build_problem()
    passed = check_abort(table, pmapping)
    passed = check_degrade(table, pmapping) and passed
    passed = check_cli_exit_code(table, pmapping) and passed
    if not passed:
        return 1
    print("timeout smoke check passed")
    return 0


if __name__ == "__main__":
    sys.exit(run())
