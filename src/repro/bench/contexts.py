"""Ready-made benchmark contexts used by the pytest-benchmark suite."""

from __future__ import annotations

from repro.bench.algorithms import BenchContext
from repro.data import ebay, synthetic


def make_synthetic_context(
    num_tuples: int,
    num_attributes: int,
    num_mappings: int,
    *,
    seed: int = 0,
    use_vectorized: bool = False,
    prematerialize: bool = False,
) -> BenchContext:
    """One Section V synthetic workload wrapped in a bench context.

    ``prematerialize`` builds the SQLite engine up front, so benchmarks
    time only the algorithms.
    """
    workload = synthetic.generate_workload(
        num_tuples, num_attributes, num_mappings, seed=seed
    )
    context = BenchContext(
        workload.table,
        workload.pmapping,
        workload.queries,
        use_vectorized=use_vectorized,
    )
    if prematerialize:
        context.engine("sqlite")
    return context


def make_ebay_context(num_tuples: int, *, seed: int = 0) -> BenchContext:
    """A small eBay prefix context (Figure 7 style)."""
    from repro.bench.experiments import EBAY_QUERIES

    stream = ebay.generate_auctions(8, mean_bids=4, seed=seed)
    return BenchContext(
        ebay.auction_prefix(stream, num_tuples),
        ebay.paper_pmapping(),
        EBAY_QUERIES,
    )
