"""The paper's Example 2 at scale: auction analytics under price ambiguity.

A second-price auction simulator stands in for the paper's real eBay trace
(1,129 auctions / 155,688 bids).  The mediated ``price`` attribute may mean
the submitted ``bid`` (p=0.3) or the listed ``currentPrice`` (p=0.7) — the
ambiguity at the heart of Example 2.  We answer:

1. Q2' — total price of one auction — under all six semantics (Theorem 4's
   expected value included);
2. the nested Q2 — average closing price across auctions — by-table and
   by-tuple/range;
3. a per-auction GROUP BY MAX with exact by-tuple distributions (the
   library's order-statistics extension) and sampling estimates.

Run with::

    python examples/ebay_auctions.py
"""

from __future__ import annotations

import time

from repro import AggregationEngine
from repro.data import ebay
from repro.sql.parser import parse_query


def paper_instance_demo() -> None:
    print("Paper Table II (two auctions, four bids each):")
    table = ebay.paper_instance()
    print(table.pretty())
    engine = AggregationEngine(
        [table], ebay.paper_pmapping(), allow_exponential=True
    )
    print()
    print(f"Q2' = {ebay.Q2_PRIME}")
    for (mapping_sem, aggregate_sem), answer in engine.answer_six(
        ebay.Q2_PRIME
    ).items():
        print(f"  {mapping_sem.value:>9} / {aggregate_sem.value:<15} {answer!r}")
    print("  (Theorem 4: the two expected values agree at 975.437)")
    print()
    print(f"Q2  = {ebay.Q2}")
    print("  by-table distribution:",
          engine.answer(ebay.Q2, "by-table", "distribution"))
    print("  by-tuple range:       ",
          engine.answer(ebay.Q2, "by-tuple", "range"))
    print()


def simulated_trace_demo() -> None:
    print("Simulated trace: 300 second-price auctions "
          "(~paper-like bid volumes, scaled down):")
    start = time.perf_counter()
    trace = ebay.generate_auctions(300, mean_bids=30, seed=7)
    print(f"  generated {len(trace)} bids in "
          f"{time.perf_counter() - start:.2f}s")
    engine = AggregationEngine([trace], ebay.paper_pmapping(),
                               backend="sqlite")

    print("  Q2 (average closing price), by-table distribution:")
    answer = engine.answer(ebay.Q2, "by-table", "distribution")
    for value, probability in answer.distribution.items():
        print(f"    {value:10.2f} with probability {probability:.1f}")

    print("  Q2, by-tuple range (per-group range composition):")
    print("   ", engine.answer(ebay.Q2, "by-tuple", "range"))

    total = parse_query("SELECT SUM(price) FROM T2")
    print("  total price over all bids, by-tuple expected value "
          "(Theorem 4, on SQLite):")
    print("   ", engine.answer(total, "by-tuple", "expected-value"))
    engine.close()
    print()


def closing_price_distributions() -> None:
    print("Exact per-auction closing-price distributions "
          "(beyond the paper: order-statistics extension):")
    table = ebay.paper_instance()
    pmapping = ebay.paper_pmapping()
    query = parse_query("SELECT MAX(price) FROM T2 GROUP BY auctionID")
    exact = AggregationEngine([table], pmapping, use_extensions=True)
    grouped = exact.answer(query, "by-tuple", "distribution")
    for auction, answer in grouped:
        cells = ", ".join(
            f"{value:.2f}@{probability:.3f}"
            for value, probability in answer.distribution.items()
        )
        print(f"  auction {auction}: {cells}")

    print("Sampling estimate of the same distributions "
          "(paper Sec. VII future work):")
    estimator = AggregationEngine(
        [table], pmapping, allow_sampling=True, samples=2000, seed=0
    )
    sampled = estimator.answer(query, "by-tuple", "distribution")
    for auction, answer in sampled:
        top = max(answer.distribution.items(), key=lambda vp: vp[1])
        print(f"  auction {auction}: mode {top[0]:.2f} "
              f"(estimated p={top[1]:.3f})")


def main() -> None:
    paper_instance_demo()
    simulated_trace_demo()
    closing_price_distributions()


if __name__ == "__main__":
    main()
