"""Aggregate a CSV that never fits in memory — streaming by-tuple answers.

The PTIME by-tuple algorithms fold tuples left to right, so they run in a
single pass with bounded state.  This example writes 200,000 synthetic
real-estate listings to disk, then answers the paper's Q1 and a SUM query
by *streaming* the file: rows are parsed, classified under every candidate
mapping, folded by the same row-walk kernel the engine runs, and dropped.

Run with::

    python examples/streaming_csv.py
"""

from __future__ import annotations

import resource
import tempfile
import time
from pathlib import Path

from repro.core.semantics import AggregateSemantics
from repro.core.streaming import answer_stream
from repro.data import realestate
from repro.sql.parser import parse_query
from repro.storage.csv_io import iter_csv_rows, save_table_csv


def write_big_csv(path: Path, listings: int) -> None:
    print(f"Writing {listings:,} synthetic listings to {path} ...")
    start = time.perf_counter()
    table = realestate.generate_listings(listings, seed=2024)
    save_table_csv(table, path)
    size_mb = path.stat().st_size / 1e6
    print(f"  {size_mb:.1f} MB in {time.perf_counter() - start:.1f}s")


def stream_answers(path: Path) -> None:
    pmapping = realestate.paper_pmapping()
    total_price = "SELECT SUM(listPrice) FROM T1 WHERE date < '2008-1-20'"
    cases = [
        (realestate.Q1, AggregateSemantics.RANGE,
         "how many long-listed properties (range)"),
        (realestate.Q1, AggregateSemantics.EXPECTED_VALUE,
         "... their expected count"),
        (total_price, AggregateSemantics.RANGE,
         "total price of long-listed stock (range)"),
        (total_price, AggregateSemantics.EXPECTED_VALUE,
         "... its expected value"),
    ]
    # (The full count *distribution* is also streamable, but its dynamic
    # program is O(n^2) in the qualifying rows, the very cost the paper's
    # Figure 9 demonstrates; run it on tens of thousands of qualifying
    # rows, not hundreds of thousands.)
    for text, semantics, label in cases:
        start = time.perf_counter()
        answer = answer_stream(
            iter_csv_rows(pmapping.source, path),
            pmapping,
            parse_query(text),
            semantics,
        )
        elapsed = time.perf_counter() - start
        if hasattr(answer, "distribution") and answer.distribution is not None:
            summary = (
                f"{len(answer.distribution)} outcomes, "
                f"E={answer.to_expected_value().value:,.1f}, "
                f"range={answer.to_range()!r}"
            )
        else:
            summary = repr(answer)
        print(f"  {label}:")
        print(f"    {summary}   ({elapsed:.1f}s, single pass)")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "listings.csv"
        write_big_csv(path, 200_000)
        print()
        print("Streaming answers (the table is never materialized):")
        stream_answers(path)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print()
        print(f"Peak resident memory: {peak_mb:.0f} MB "
              "(bounded regardless of file size)")


if __name__ == "__main__":
    main()
