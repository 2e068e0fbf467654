"""Schema matcher cost: similarity scoring, assignment, and top-K ranking.

The matcher is the upstream stage the paper assumes; these benchmarks
establish that producing a p-mapping is cheap relative to answering
queries with it, even for wide schemas.
"""

from __future__ import annotations

import random

import pytest

from repro.data import realestate
from repro.schema.correspondence import AttributeCorrespondence
from repro.schema.matcher import MatcherConfig, SchemaMatcher
from repro.schema.matcher.hungarian import solve_assignment
from repro.schema.matcher.murty import top_k_assignments
from repro.schema.model import Attribute, AttributeType, Relation


@pytest.fixture(scope="module")
def wide_pair():
    """Two 30-attribute relations with loosely related names."""
    rng = random.Random(3)
    stems = [
        "price", "date", "phone", "name", "status", "area", "tax", "year",
        "rooms", "agent", "city", "zip", "lot", "floor", "garage",
    ]
    source = Relation(
        "WS",
        [
            Attribute(f"{rng.choice(stems)}_{i}", AttributeType.REAL)
            for i in range(30)
        ],
    )
    target = Relation(
        "WT",
        [
            Attribute(f"{rng.choice(stems)}{i}", AttributeType.REAL)
            for i in range(30)
        ],
    )
    return source, target


def bench_paper_scenario_pmapping(benchmark):
    matcher = SchemaMatcher(
        realestate.paper_instance(),
        realestate.T1_RELATION,
        known=[
            AttributeCorrespondence("ID", "propertyID"),
            AttributeCorrespondence("price", "listPrice"),
            AttributeCorrespondence("agentPhone", "phone"),
        ],
        config=MatcherConfig(top_k=3),
    )
    pmapping = benchmark(matcher.pmapping)
    assert len(pmapping) >= 2


def bench_wide_schema_similarity_matrix(benchmark, wide_pair):
    source, target = wide_pair
    matcher = SchemaMatcher(source, target, config=MatcherConfig(top_k=5))
    targets, sources, matrix = benchmark(matcher.similarity_matrix)
    assert len(matrix) == 30 and len(matrix[0]) == 30


def bench_wide_schema_pmapping(benchmark, wide_pair):
    source, target = wide_pair
    matcher = SchemaMatcher(source, target, config=MatcherConfig(top_k=5))
    pmapping = benchmark.pedantic(
        matcher.pmapping, rounds=3, iterations=1
    )
    assert len(pmapping) >= 1


def bench_hungarian_50x50(benchmark):
    rng = random.Random(11)
    cost = [[rng.random() for _ in range(50)] for _ in range(50)]
    assignment, total = benchmark(solve_assignment, cost)
    assert len(assignment) == 50


def bench_murty_top20_of_20x20(benchmark):
    rng = random.Random(13)
    cost = [[rng.random() for _ in range(20)] for _ in range(20)]

    def run():
        return list(top_k_assignments(cost, 20))

    results = benchmark(run)
    totals = [t for _, t in results]
    assert totals == sorted(totals)
