#!/usr/bin/env python
"""CI smoke check: the query log persists and the exporter emits valid text.

Answers a handful of queries on an engine whose slow-query threshold is
``0`` (every record persists), then asserts:

1. the slow-query JSONL file has one parseable record per query, each
   carrying the required fields of the schema in
   ``docs/observability.md`` (including an ``error`` record for a failing
   query and the DKW ``epsilon`` for a sampled one);
2. ``engine.recent_queries()`` agrees with the file;
3. the Prometheus exposition over the engine's registry is well-formed:
   every sample line parses as ``name[{labels}] value``, every family has
   a ``# TYPE``, counters end in ``_total``, and the plan-cache miss
   counter matches the engine registry.

Run from the repository root::

    PYTHONPATH=src python scripts/telemetry_check.py
"""

from __future__ import annotations

import json
import re
import sys
import tempfile
from pathlib import Path

from repro.core.engine import AggregationEngine
from repro.core.guard import Budget
from repro.data import synthetic
from repro.exceptions import ReproError
from repro.obs import export
from repro.sql.ast import AggregateOp

REQUIRED_FIELDS = (
    "ts", "query", "digest", "mapping_semantics", "aggregate_semantics",
    "lane", "status", "seconds", "rows", "error", "epsilon",
)

SAMPLE_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? "
    r"(-?\d+(\.\d+)?([eE][+-]?\d+)?|NaN|[+-]Inf)$"
)

failures = 0


def check(ok: bool, label: str) -> None:
    global failures
    print(("ok   " if ok else "FAIL ") + label)
    if not ok:
        failures += 1


def check_query_log(slow_path: Path, engine: AggregationEngine) -> None:
    lines = slow_path.read_text().splitlines()
    records = [json.loads(line) for line in lines]
    check(len(records) == len(engine.recent_queries()),
          f"slow log has all {len(records)} records")
    for record in records:
        missing = [f for f in REQUIRED_FIELDS if f not in record]
        check(not missing,
              f"record {record.get('digest')} has required fields"
              + (f" (missing {missing})" if missing else ""))
    statuses = {record["status"] for record in records}
    check("ok" in statuses, "a successful query was recorded")
    check("error" in statuses, "an errored query was recorded")
    sampled = [r for r in records if r["lane"] == "sampling"]
    check(bool(sampled) and all(r["epsilon"] for r in sampled),
          "sampled queries carry a DKW epsilon")
    in_memory = [r.to_dict() for r in engine.recent_queries()]
    check(in_memory == records, "recent_queries() matches the slow log")


def check_prometheus(text: str, misses: int) -> None:
    check(text.endswith("\n"), "exposition ends with a newline")
    typed: dict[str, str] = {}
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ")
            typed[name] = kind
            continue
        if line.startswith("#"):
            continue
        check(bool(SAMPLE_LINE.match(line)), f"sample line parses: {line}")
        name = re.split(r"[{ ]", line, maxsplit=1)[0]
        family = re.sub(r"_(sum|count)$", "", name)
        check(name in typed or family in typed, f"{name} has a # TYPE")
    counters = [n for n, kind in typed.items() if kind == "counter"]
    check(bool(counters) and all(n.endswith("_total") for n in counters),
          "counters end in _total")
    match = re.search(
        r"^repro_plan_cache_miss_total (\d+)$", text, re.MULTILINE
    )
    check(match is not None and int(match.group(1)) == misses,
          "exposition agrees with the registry on plan-cache misses "
          f"({match and match.group(1)} vs {misses})")


def run() -> int:
    workload = synthetic.generate_workload(4000, 6, 4, seed=0)
    query = workload.query(AggregateOp.SUM)
    with tempfile.TemporaryDirectory() as tmp:
        slow_path = Path(tmp) / "slow.jsonl"
        engine = AggregationEngine(
            workload.table,
            workload.pmapping,
            allow_sampling=True,
            slow_query_ms=0,
            slow_query_path=str(slow_path),
        )
        with engine:
            engine.answer(query, "by-tuple", "range")
            engine.answer(query, "by-tuple", "distribution")  # sampling
            try:
                engine.answer(
                    query, "by-tuple", "expected-value",
                    budget=Budget(max_rows=10),
                )
            except ReproError:
                pass  # the error record is the point
            misses = int(engine.metrics_snapshot()["plan.cache.miss"])
            check_query_log(slow_path, engine)
            check_prometheus(
                export.render_prometheus(engine.context.metrics), misses
            )
    if failures:
        print(f"{failures} telemetry check(s) failed")
        return 1
    print("telemetry smoke checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(run())
