"""Tests for the Hungarian solver and Murty's top-K ranking."""

from __future__ import annotations

import itertools
import random

import pytest

from repro.exceptions import ReproError
from repro.schema.matcher.hungarian import (
    FORBIDDEN,
    InfeasibleAssignmentError,
    solve_assignment,
)
from repro.schema.matcher.murty import top_k_assignments

# The Hungarian solver is compared against scipy's reference solver; an
# install without scipy (an optional test tool) skips the module at collection.
linear_sum_assignment = pytest.importorskip(
    "scipy.optimize"
).linear_sum_assignment


def brute_force_costs(cost):
    n, m = len(cost), len(cost[0])
    return sorted(
        sum(cost[i][p[i]] for i in range(n))
        for p in itertools.permutations(range(m), n)
    )


class TestHungarian:
    def test_identity(self):
        assignment, total = solve_assignment([[0, 9], [9, 0]])
        assert assignment == [0, 1]
        assert total == 0.0

    def test_documented_example(self):
        assert solve_assignment([[4, 1, 3], [2, 0, 5], [3, 2, 2]]) == (
            [1, 0, 2], 5.0,
        )

    def test_rectangular(self):
        assignment, total = solve_assignment([[5, 1, 9]])
        assert assignment == [1]
        assert total == 1.0

    def test_empty(self):
        assert solve_assignment([]) == ([], 0.0)

    def test_more_rows_than_columns_rejected(self):
        with pytest.raises(ReproError, match="columns"):
            solve_assignment([[1], [2]])

    def test_ragged_matrix_rejected(self):
        with pytest.raises(ReproError, match="unequal"):
            solve_assignment([[1, 2], [3]])

    def test_infeasible(self):
        with pytest.raises(InfeasibleAssignmentError):
            solve_assignment([[FORBIDDEN, FORBIDDEN]])

    def test_negative_costs(self):
        assignment, total = solve_assignment([[-5, 0], [0, -5]])
        assert total == -10.0

    def test_matches_brute_force(self):
        rng = random.Random(13)
        for _ in range(100):
            n = rng.randint(1, 5)
            m = rng.randint(n, 6)
            cost = [[rng.uniform(-5, 10) for _ in range(m)] for _ in range(n)]
            _, total = solve_assignment(cost)
            assert total == pytest.approx(brute_force_costs(cost)[0])

    def test_matches_scipy(self):
        rng = random.Random(29)
        for _ in range(50):
            n = rng.randint(2, 8)
            m = rng.randint(n, 9)
            cost = [[rng.uniform(0, 100) for _ in range(m)] for _ in range(n)]
            _, ours = solve_assignment(cost)
            rows, cols = linear_sum_assignment(cost)
            theirs = sum(cost[r][c] for r, c in zip(rows, cols))
            assert ours == pytest.approx(theirs)


class TestMurty:
    def test_documented_example(self):
        assert list(top_k_assignments([[0, 1], [1, 0]], 2)) == [
            ([0, 1], 0.0),
            ([1, 0], 2.0),
        ]

    def test_orders_match_brute_force(self):
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randint(1, 4)
            m = rng.randint(n, 5)
            cost = [
                [round(rng.uniform(0, 10), 3) for _ in range(m)]
                for _ in range(n)
            ]
            expected = brute_force_costs(cost)
            k = min(5, len(expected))
            got = [total for _, total in top_k_assignments(cost, k)]
            assert got == pytest.approx(expected[:k])

    def test_assignments_distinct(self):
        cost = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
        assignments = [tuple(a) for a, _ in top_k_assignments(cost, 6)]
        assert len(assignments) == len(set(assignments)) == 6

    def test_k_larger_than_solution_space(self):
        cost = [[1, 2], [3, 4]]
        assert len(list(top_k_assignments(cost, 99))) == 2

    def test_k_zero(self):
        assert list(top_k_assignments([[1]], 0)) == []

    def test_empty_matrix(self):
        assert list(top_k_assignments([], 3)) == []

    def test_costs_nondecreasing(self):
        rng = random.Random(37)
        cost = [[rng.uniform(0, 9) for _ in range(5)] for _ in range(4)]
        totals = [t for _, t in top_k_assignments(cost, 20)]
        assert totals == sorted(totals)
