"""Prepared-plan reuse: one-shot ``answer()`` vs ``prepare()`` + re-execution.

The compile/plan/execute pipeline amortizes three costs across repeated
executions of the same query: parsing + resolution (the compiled-query
cache), lane selection (the plan cache), and — the dominant one at
Figure 9 scale — per-row predicate evaluation, which
:meth:`~repro.core.execute.PreparedQuery.answer` skips entirely after the
first execution pins the contribution vectors.

This benchmark measures both paths over 1, 10, and 100 repeats at the
Figure 9 instance size (2000 tuples x 20 mappings, ``vectorize=False`` so
the scalar kernels are what is amortized) and reports the amortized
speedup.  Run as a script for the full table and shape check (the issue's
acceptance bar: >= 3x at 100 repeats); under ``pytest --benchmark-only``
the two 100-repeat variants register as benchmark cases.
"""

from __future__ import annotations

from repro.core.engine import AggregationEngine
from repro.core.semantics import AggregateSemantics, MappingSemantics
from repro.data import synthetic
from repro.obs.timers import Stopwatch
from repro.sql.ast import AggregateOp

NUM_TUPLES = 2000
NUM_ATTRIBUTES = 50
NUM_MAPPINGS = 20
REPEATS = (1, 10, 100)

#: (op, aggregate semantics, gated): the O(n * m) scalar kernels are where
#: pinning the contribution vectors pays off, so they carry the >= 3x shape
#: check.  The expected-COUNT row is informational: its O(n^2) Figure 3 DP
#: dominates per-execution cost, so amortizing predicate evaluation cannot
#: speed it up much — included to show the pipeline never *hurts*.
CELLS = [
    (AggregateOp.COUNT, AggregateSemantics.RANGE, True),
    (AggregateOp.SUM, AggregateSemantics.RANGE, True),
    (AggregateOp.AVG, AggregateSemantics.RANGE, True),
    (AggregateOp.COUNT, AggregateSemantics.EXPECTED_VALUE, False),
]


def _workload() -> synthetic.Workload:
    return synthetic.generate_workload(
        NUM_TUPLES, NUM_ATTRIBUTES, NUM_MAPPINGS, seed=0
    )


def _engine(workload: synthetic.Workload) -> AggregationEngine:
    return AggregationEngine(
        [workload.table], workload.pmapping, vectorize=False
    )


def time_oneshot(engine, query, cell, repeats: int) -> float:
    """Total seconds for ``repeats`` independent ``answer()`` calls."""
    with Stopwatch() as watch:
        for _ in range(repeats):
            engine.answer(query, MappingSemantics.BY_TUPLE, cell)
    return watch.elapsed


def time_prepared(engine, query, cell, repeats: int) -> float:
    """Total seconds for prepare-once + ``repeats`` plan executions."""
    with Stopwatch() as watch:
        prepared = engine.prepare(query)
        for _ in range(repeats):
            prepared.answer(MappingSemantics.BY_TUPLE, cell)
    return watch.elapsed


def run(check: bool = True, json_path: str | None = None) -> bool:
    workload = _workload()
    print(
        f"prepared-plan reuse, {NUM_TUPLES} tuples x {NUM_MAPPINGS} mappings "
        "(Figure 9 scale), vectorize=False"
    )
    header = (
        f"{'query':<12}{'semantics':<16}{'repeats':>8}"
        f"{'answer() [s]':>14}{'prepared [s]':>14}{'speedup':>9}"
    )
    print(header)
    print("-" * len(header))
    passed = True
    rows = []
    for op, cell, gated in CELLS:
        query = workload.query(op)
        for repeats in REPEATS:
            # Fresh engines per row: no cache leaks between measurements.
            oneshot = time_oneshot(_engine(workload), query, cell, repeats)
            prepared = time_prepared(_engine(workload), query, cell, repeats)
            speedup = oneshot / prepared if prepared > 0 else float("inf")
            note = "" if gated else "  (DP-bound, informational)"
            print(
                f"{op.value:<12}{cell.value:<16}{repeats:>8}"
                f"{oneshot:>14.4f}{prepared:>14.4f}{speedup:>8.1f}x{note}"
            )
            rows.append({
                "op": op.value,
                "aggregate_semantics": cell.value,
                "repeats": repeats,
                "oneshot_seconds": oneshot,
                "prepared_seconds": prepared,
                "speedup": speedup,
                "gated": gated,
            })
            if check and gated and repeats == 100 and speedup < 3.0:
                passed = False
                print(f"  !! expected >= 3x amortized speedup, got {speedup:.1f}x")
    if json_path is not None:
        import json
        from pathlib import Path

        from repro.bench import harness

        Path(json_path).write_text(json.dumps({
            "schema_version": harness.SCHEMA_VERSION,
            "benchmark": "bench_prepared_reuse",
            "environment": harness.fingerprint(),
            "parameters": {
                "num_tuples": NUM_TUPLES,
                "num_attributes": NUM_ATTRIBUTES,
                "num_mappings": NUM_MAPPINGS,
            },
            "rows": rows,
            "passed": passed,
        }, indent=2) + "\n")
        print(f"wrote {json_path}")
    return passed


def bench_oneshot_count_range_100(benchmark):
    workload = _workload()
    engine = _engine(workload)
    query = workload.query(AggregateOp.COUNT)
    benchmark.pedantic(
        time_oneshot,
        args=(engine, query, AggregateSemantics.RANGE, 100),
        rounds=1,
        iterations=1,
    )


def bench_prepared_count_range_100(benchmark):
    workload = _workload()
    engine = _engine(workload)
    query = workload.query(AggregateOp.COUNT)
    benchmark.pedantic(
        time_prepared,
        args=(engine, query, AggregateSemantics.RANGE, 100),
        rounds=1,
        iterations=1,
    )


if __name__ == "__main__":
    import argparse
    _parser = argparse.ArgumentParser(description=__doc__)
    _parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the speedup table as schema-versioned JSON",
    )
    _args = _parser.parse_args()
    raise SystemExit(0 if run(json_path=_args.json) else 1)
