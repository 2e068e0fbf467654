"""Shared fixtures for the benchmark suite.

Each ``bench_figNN_*.py`` file measures the algorithms of one paper figure
at a single laptop-friendly size under ``pytest --benchmark-only``; the
full parameter sweeps (the actual figure series, with shape checks) run via
``repro-bench figNN`` or each file's ``python benchmarks/bench_figNN_*.py``.
"""

from __future__ import annotations

import pytest

from repro.bench.algorithms import BenchContext
from repro.bench.contexts import make_ebay_context, make_synthetic_context
from repro.data import synthetic


@pytest.fixture(scope="session")
def small_ebay_context():
    """12 tuples, 2 mappings: 4096 sequences — exponential but measurable."""
    context = make_ebay_context(12)
    yield context
    context.close()


@pytest.fixture(scope="session")
def small_mappings_context():
    """6 tuples, 6 mappings: 6^6 sequences (Figure 8's regime)."""
    table = synthetic.generate_source_table(6, 20, seed=0)
    pmapping = synthetic.generate_pmapping(table.relation, 6, seed=1)
    queries = synthetic.Workload(table, pmapping).queries
    context = BenchContext(table, pmapping, queries)
    yield context
    context.close()


@pytest.fixture(scope="session")
def medium_context():
    """2k tuples x 20 mappings (Figure 9's regime, scaled)."""
    context = make_synthetic_context(2000, 50, 20, prematerialize=True)
    yield context
    context.close()


@pytest.fixture(scope="session")
def wide_context():
    """5k tuples x 110 attributes x 100 mappings (Figure 10's regime)."""
    context = make_synthetic_context(
        5000, 110, 100, use_vectorized=True,
        prematerialize=True,
    )
    yield context
    context.close()


@pytest.fixture(scope="session")
def large_context():
    """50k tuples x 20 mappings, scalar loops (Figure 11's regime)."""
    context = make_synthetic_context(50000, 50, 20, prematerialize=True)
    yield context
    context.close()


@pytest.fixture(scope="session")
def xlarge_context():
    """1M tuples x 5 mappings, vectorized (Figure 12's regime)."""
    context = make_synthetic_context(
        1_000_000, 20, 5, use_vectorized=True,
        prematerialize=True,
    )
    yield context
    context.close()
