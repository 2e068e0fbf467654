"""A tour of the engine's policy surface: planning, fallbacks, fast paths.

Shows what happens *around* answering a query: how the planner maps each
of the thirty (operator x mapping-semantics x aggregate-semantics) cells
to an algorithm, how the engine refuses intractable cells unless a policy
opts in, how sampling reports its statistical error, how the numpy fast
path is engaged, and how p-mappings round-trip through JSON for sharing.

Run with::

    python examples/engine_tour.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import AggregationEngine, IntractableError
from repro.core.planner import Planner, format_complexity_matrix
from repro.core.sampling import estimate_expected_value
from repro.core.semantics import AggregateOp, AggregateSemantics, MappingSemantics
from repro.data import ebay
from repro.schema.serialize import load_pmapping, save_pmapping
from repro.sql.parser import parse_query


def show_planner() -> None:
    print("1. The planner is the paper's Figure 6, executable:")
    print()
    print(format_complexity_matrix())
    print()
    planner = Planner(allow_sampling=True, use_extensions=True)
    for op, mapping_sem, aggregate_sem in [
        (AggregateOp.COUNT, MappingSemantics.BY_TUPLE,
         AggregateSemantics.DISTRIBUTION),
        (AggregateOp.SUM, MappingSemantics.BY_TUPLE,
         AggregateSemantics.EXPECTED_VALUE),
        (AggregateOp.MAX, MappingSemantics.BY_TUPLE,
         AggregateSemantics.DISTRIBUTION),
        (AggregateOp.AVG, MappingSemantics.BY_TUPLE,
         AggregateSemantics.DISTRIBUTION),
    ]:
        spec = planner.algorithm_for(op, mapping_sem, aggregate_sem)
        exactness = "exact" if spec.exact else "approximate"
        print(
            f"  {op.value:<6} {mapping_sem.value}/{aggregate_sem.value:<15}"
            f" -> {spec.name} ({spec.complexity}, {exactness};"
            f" {spec.paper_reference})"
        )
    print()


def show_policies() -> None:
    print("2. Open cells refuse politely until a policy opts in:")
    table = ebay.paper_instance()
    pmapping = ebay.paper_pmapping()
    strict = AggregationEngine([table], pmapping)
    query = "SELECT AVG(price) FROM T2 WHERE auctionID = 34"
    try:
        strict.answer(query, "by-tuple", "distribution")
    except IntractableError as error:
        print(f"  strict engine: {error}")
    exact = AggregationEngine([table], pmapping, allow_exponential=True)
    print("  allow_exponential:",
          exact.answer(query, "by-tuple", "distribution"))
    sampled = AggregationEngine([table], pmapping, allow_sampling=True, seed=0)
    print("  allow_sampling:  ",
          sampled.answer(query, "by-tuple", "distribution", samples=2000))
    estimate = estimate_expected_value(
        table, pmapping, parse_query(query), samples=2000, seed=0
    )
    print(f"  ... with error bars: {estimate!r} "
          f"(95% CI {estimate.confidence_interval()})")
    print()


def show_fast_paths() -> None:
    print("3. The numpy array body is a flag, not an API change:")
    trace = ebay.generate_auctions(2000, mean_bids=30, seed=5)
    import time

    for vectorize in (False, True):
        engine = AggregationEngine(
            [trace], ebay.paper_pmapping(), vectorize=vectorize
        )
        query = "SELECT SUM(price) FROM T2"
        # Warm up: the columnar view is built once per engine and cached.
        engine.answer(query, "by-tuple", "range")
        start = time.perf_counter()
        answer = engine.answer(query, "by-tuple", "range")
        elapsed = time.perf_counter() - start
        label = "array kernel" if vectorize else "row walk    "
        print(f"  {label}: {answer!r}  ({elapsed * 1000:.1f} ms, "
              f"{len(trace):,} bids)")
    print()


def show_serialization() -> None:
    print("4. P-mappings are files — share them between match and query:")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ebay_mapping.json"
        save_pmapping(ebay.paper_pmapping(), path)
        print(f"  wrote {path.stat().st_size} bytes of JSON")
        restored = load_pmapping(path)
        print(f"  restored: {restored}")
        engine = AggregationEngine([ebay.paper_instance()], restored)
        print("  answers as before:",
              engine.answer(ebay.Q2_PRIME, "by-tuple", "expected-value"))


def main() -> None:
    show_planner()
    show_policies()
    show_fast_paths()
    show_serialization()


if __name__ == "__main__":
    main()
