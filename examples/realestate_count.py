"""Walk through the paper's Example 1 / Tables III-V, with algorithm traces.

Shows the machinery under the engine facade: per-mapping reformulation
(Q1 -> Q11/Q12), the ByTupleRangeCOUNT one-pass bounds (Table IV) and the
ByTuplePDCOUNT dynamic program (Table V) — each the engine's row-walk
kernel, run here with a trace — and how the six-semantics answer table
(Table III) is assembled.  Then scales the same query to a generated
instance of 100k listings.

Run with::

    python examples/realestate_count.py
"""

from __future__ import annotations

import time
from functools import partial

from repro import AggregationEngine, parse_query
from repro.core.bytuple_count import distribution_count_kernel, range_count_kernel
from repro.core.common import run_possibly_grouped
from repro.data import realestate
from repro.sql.reformulate import reformulations


def show_reformulations() -> None:
    print("Step 1 — reformulate Q1 once per candidate mapping:")
    query = parse_query(realestate.Q1)
    for reformulated, probability in reformulations(
        query, realestate.paper_pmapping()
    ):
        print(f"  p={probability:.1f}  {reformulated.to_sql()}")
    print()


def show_range_trace() -> None:
    print("Step 2 — ByTupleRangeCOUNT (paper Figure 2 / Table IV):")
    trace: list[dict] = []
    answer = run_possibly_grouped(
        realestate.paper_instance(),
        realestate.paper_pmapping(),
        parse_query(realestate.Q1),
        partial(range_count_kernel, trace=trace),
    )
    print("  tuple   low   up")
    for step in trace:
        print(f"  {step['tuple_index'] + 1:>5} {step['low']:>5} {step['up']:>4}")
    print(f"  answer: [{answer.low}, {answer.high}]")
    print()


def show_distribution_trace() -> None:
    print("Step 3 — ByTuplePDCOUNT (paper Figure 3 / Table V):")
    trace: list[dict] = []
    answer = run_possibly_grouped(
        realestate.paper_instance(),
        realestate.paper_pmapping(),
        parse_query(realestate.Q1),
        partial(distribution_count_kernel, trace=trace),
    )
    for step in trace:
        cells = "  ".join(f"{p:.2f}" for p in step["probabilities"])
        print(f"  after tuple {step['tuple_index'] + 1}:  {cells}")
    print(f"  answer: {answer!r}")
    print(f"  expected value: {answer.to_expected_value().value:.1f}")
    print()


def show_six_semantics() -> None:
    print("Step 4 — the full Table III:")
    engine = AggregationEngine(
        [realestate.paper_instance()],
        realestate.paper_pmapping(),
        allow_exponential=True,
    )
    for (mapping_sem, aggregate_sem), answer in engine.answer_six(
        realestate.Q1
    ).items():
        print(f"  {mapping_sem.value:>9} / {aggregate_sem.value:<15} {answer!r}")
    print()


def scale_up() -> None:
    print("Step 5 — the same query on 100,000 generated listings:")
    table = realestate.generate_listings(100_000, seed=42)
    engine = AggregationEngine([table], realestate.paper_pmapping())
    # The paper derives the by-tuple expected count from the O(m n^2)
    # ByTuplePDCOUNT distribution, minutes of row walking at this size (its
    # Figure 9); the engine answers it by linearity of expectation, O(m n).
    for cell in (("by-tuple", "range"), ("by-tuple", "expected-value"),
                 ("by-table", "distribution"), ("by-table", "expected-value")):
        start = time.perf_counter()
        answer = engine.answer(realestate.Q1, *cell)
        elapsed = time.perf_counter() - start
        print(f"  {cell[0]:>9} / {cell[1]:<15} {answer!r}   ({elapsed:.2f}s)")


def main() -> None:
    show_reformulations()
    show_range_trace()
    show_distribution_trace()
    show_six_semantics()
    scale_up()


if __name__ == "__main__":
    main()
