"""Tests for the Monte-Carlo estimators (:mod:`repro.core.sampling`)."""

from __future__ import annotations

import itertools
import random
import sys
import threading

import pytest

from repro.core import guard as guardmod
from repro.core import sampling
from repro.core.answers import DistributionAnswer, GroupedAnswer, RangeAnswer
from repro.core.common import PreparedTupleQuery
from repro.core.guard import Budget
from repro.core.naive import naive_by_tuple_answer
from repro.core.sampling import dkw_epsilon, sample_by_tuple
from repro.core.semantics import AggregateSemantics
from repro.exceptions import BudgetExceededError, EvaluationError
from repro.schema.mapping import AttributeCorrespondence, PMapping, RelationMapping
from repro.schema.model import Attribute, AttributeType, Relation
from repro.sql.parser import parse_query
from repro.storage.columnar import ColumnarTable
from repro.storage.table import Table
from tests.test_bytuple_sum import _two_column_problem


class TestDKW:
    def test_epsilon_shrinks_with_samples(self):
        assert dkw_epsilon(10000) < dkw_epsilon(100)

    def test_epsilon_value(self):
        import math

        assert dkw_epsilon(2000, alpha=0.05) == pytest.approx(
            math.sqrt(math.log(40.0) / 4000.0)
        )

    def test_rejects_no_samples(self):
        with pytest.raises(EvaluationError):
            dkw_epsilon(0)


class TestFlatSampling:
    def test_deterministic_under_seed(self, ds2, q2_prime, pm2):
        a = sample_by_tuple(
            ds2, pm2, q2_prime, AggregateSemantics.DISTRIBUTION,
            samples=200, seed=7,
        )
        b = sample_by_tuple(
            ds2, pm2, q2_prime, AggregateSemantics.DISTRIBUTION,
            samples=200, seed=7,
        )
        assert a.approx_equal(b)

    def test_expected_sum_converges(self, ds2, q2_prime, pm2):
        estimate = sample_by_tuple(
            ds2, pm2, q2_prime, AggregateSemantics.EXPECTED_VALUE,
            samples=4000, seed=1,
        )
        # True value 975.437 with per-world spread < 150: a 4000-sample
        # mean is within a few units with overwhelming probability.
        assert estimate.value == pytest.approx(975.437, abs=10.0)

    def test_distribution_close_to_naive(self, ds2, q2_prime, pm2):
        naive = naive_by_tuple_answer(
            ds2, pm2, q2_prime, AggregateSemantics.DISTRIBUTION
        )
        sampled = sample_by_tuple(
            ds2, pm2, q2_prime, AggregateSemantics.DISTRIBUTION,
            samples=5000, seed=2,
        )
        epsilon = dkw_epsilon(5000, alpha=1e-6)
        for value in naive.distribution.support:
            assert sampled.distribution.cdf(value) == pytest.approx(
                naive.distribution.cdf(value), abs=epsilon
            )

    def test_undefined_mass_estimated(self):
        table, pm = _two_column_problem([(5.0, 50.0)], p1=0.4)
        q = parse_query("SELECT MAX(value) FROM MED WHERE value < 10")
        sampled = sample_by_tuple(
            table, pm, q, AggregateSemantics.DISTRIBUTION,
            samples=4000, seed=3,
        )
        assert sampled.undefined_probability == pytest.approx(0.6, abs=0.05)

    def test_range_estimate_is_subset_of_true_range(self, ds2, q2_prime, pm2):
        sampled = sample_by_tuple(
            ds2, pm2, q2_prime, AggregateSemantics.RANGE, samples=50, seed=4
        )
        assert 931.94 - 1e-9 <= sampled.low
        assert sampled.high <= 1076.93 + 1e-9

    def test_rejects_zero_samples(self, ds2, q2_prime, pm2):
        with pytest.raises(EvaluationError):
            sample_by_tuple(
                ds2, pm2, q2_prime, AggregateSemantics.RANGE, samples=0
            )


class TestExpectedValueEstimate:
    def test_true_value_within_interval(self, ds2, q2_prime, pm2):
        from repro.core.sampling import estimate_expected_value

        estimate = estimate_expected_value(
            ds2, pm2, q2_prime, samples=4000, seed=11
        )
        low, high = estimate.confidence_interval(z=4.0)  # ~99.99%
        assert low <= 975.437 <= high
        assert estimate.defined_fraction == pytest.approx(1.0)

    def test_error_shrinks_with_samples(self, ds2, q2_prime, pm2):
        from repro.core.sampling import estimate_expected_value

        small = estimate_expected_value(ds2, pm2, q2_prime, samples=100, seed=1)
        large = estimate_expected_value(
            ds2, pm2, q2_prime, samples=10000, seed=1
        )
        assert large.standard_error < small.standard_error

    def test_undefined_when_nothing_qualifies(self):
        from repro.core.sampling import estimate_expected_value

        table, pm = _two_column_problem([(50.0, 60.0)])
        q = parse_query("SELECT MAX(value) FROM MED WHERE value < 10")
        estimate = estimate_expected_value(table, pm, q, samples=50, seed=2)
        assert not estimate.is_defined
        with pytest.raises(EvaluationError):
            estimate.confidence_interval()

    def test_grouped_query_rejected(self, ds2, pm2):
        from repro.core.sampling import estimate_expected_value

        q = parse_query("SELECT MAX(price) FROM T2 GROUP BY auctionID")
        with pytest.raises(EvaluationError, match="scalar"):
            estimate_expected_value(ds2, pm2, q, samples=50, seed=3)

    def test_repr(self, ds2, q2_prime, pm2):
        from repro.core.sampling import estimate_expected_value

        estimate = estimate_expected_value(
            ds2, pm2, q2_prime, samples=200, seed=4
        )
        assert "se" in repr(estimate)


class TestWorldSampling:
    def test_nested_query(self, ds2, q2, pm2):
        naive = naive_by_tuple_answer(
            ds2, pm2, q2, AggregateSemantics.EXPECTED_VALUE
        )
        sampled = sample_by_tuple(
            ds2, pm2, q2, AggregateSemantics.EXPECTED_VALUE,
            samples=3000, seed=5,
        )
        assert sampled.value == pytest.approx(naive.value, abs=2.0)

    def test_grouped_query(self, ds2, pm2):
        q = parse_query("SELECT MAX(price) FROM T2 GROUP BY auctionID")
        sampled = sample_by_tuple(
            ds2, pm2, q, AggregateSemantics.DISTRIBUTION, samples=3000, seed=6
        )
        assert isinstance(sampled, GroupedAnswer)
        assert sampled[34].distribution.probability_of(349.99) == pytest.approx(
            0.3, abs=0.05
        )

    def test_flat_and_world_sampling_agree(self, ds2, q2_prime, pm2):
        flat = sample_by_tuple(
            ds2, pm2, q2_prime, AggregateSemantics.EXPECTED_VALUE,
            samples=3000, seed=8,
        )
        # Force the world-materializing path via an equivalent grouped
        # query restricted to one group.
        grouped = sample_by_tuple(
            ds2,
            pm2,
            parse_query("SELECT SUM(price) FROM T2 GROUP BY auctionID"),
            AggregateSemantics.EXPECTED_VALUE,
            samples=3000,
            seed=8,
        )
        assert isinstance(flat, type(grouped[34]))
        assert flat.value == pytest.approx(grouped[34].value, abs=15.0)


# -- array-backed sampler vs the row walk -------------------------------------

_SOURCE = Relation(
    "S",
    [
        Attribute("id", AttributeType.INT),
        Attribute("a", AttributeType.REAL),
        Attribute("b", AttributeType.REAL),
        Attribute("c", AttributeType.REAL),
        Attribute("k", AttributeType.INT),
    ],
)
_TARGET = Relation(
    "T",
    [
        Attribute("id", AttributeType.INT),
        Attribute("value", AttributeType.REAL),
        Attribute("score", AttributeType.REAL),
    ],
)

#: Candidate mappings of ``value``/``score``; the third leaves ``score``
#: unmapped (its WHERE references read NULL).
_MAPPINGS = [
    RelationMapping(
        _SOURCE,
        _TARGET,
        [AttributeCorrespondence("id", "id")]
        + [AttributeCorrespondence(s, t) for s, t in pairs],
        name=f"m{i}",
    )
    for i, pairs in enumerate(
        [
            [("a", "value"), ("b", "score")],
            [("b", "value"), ("a", "score")],
            [("c", "value")],
            [("k", "value"), ("c", "score")],
        ]
    )
]

_PROBABILITIES = {
    "plain": [0.4, 0.3, 0.2, 0.1],
    "zero-probability mapping": [0.5, 0.0, 0.3, 0.2],
    "sum just below one": [0.7, 0.1, 0.1, 0.1],
}


def _mixed_table(rows: int, seed: int = 0) -> Table:
    """Values with NULLs, signed zeros, negatives, and an INT column."""
    rng = random.Random(seed)

    def real():
        roll = rng.random()
        if roll < 0.15:
            return None
        if roll < 0.25:
            return rng.choice([0.0, -0.0])
        return rng.uniform(-50.0, 100.0)

    def integer():
        return None if rng.random() < 0.15 else rng.randint(-20, 90)

    return Table(
        _SOURCE,
        [(i, real(), real(), real(), integer()) for i in range(rows)],
    )


def _untemper(word: int) -> int:
    """The Mersenne Twister key word that tempers to ``word``."""
    word ^= word >> 18
    word ^= (word << 15) & 0xEFC60000
    shifted = word
    for _ in range(5):  # 7 more low bits recovered per pass
        shifted = word ^ ((shifted << 7) & 0x9D2C5680)
    return (shifted ^ (shifted >> 11) ^ (shifted >> 22)) & 0xFFFFFFFF


def _pmapping(probabilities) -> PMapping:
    return PMapping(_SOURCE, _TARGET, list(zip(_MAPPINGS, probabilities)))


def _bits(answer):
    """An answer's exact float bits (sign of zero included)."""

    def hexed(value):
        return None if value is None else float(value).hex()

    if isinstance(answer, DistributionAnswer):
        if answer.distribution is None:
            return ("undefined",)
        return (
            sorted(
                (hexed(value), hexed(probability))
                for value, probability in answer.distribution.items()
            ),
            hexed(answer.undefined_probability),
        )
    if isinstance(answer, RangeAnswer):
        return (hexed(answer.low), hexed(answer.high))
    return (hexed(answer.value),)


def _sampler_input(table, pmapping, query, arrays):
    """The flat sampler's prepared input: the query's array-backed problem
    (building it fails outside the array fragment), or the row walk's
    pinned vectors."""
    if arrays:
        from repro.core.vectorized import VectorizedProblem

        return VectorizedProblem(ColumnarTable(table), pmapping, query)
    return PreparedTupleQuery(table, pmapping, query).materialize()


def _both_samplers(table, pmapping, text, semantics, *, samples, seed):
    """``(array answer, row-walk answer)`` for one query."""
    query = parse_query(text)
    arrays = _sampler_input(table, pmapping, query, arrays=True)
    rows = _sampler_input(table, pmapping, query, arrays=False)
    return tuple(
        sample_by_tuple(
            table, pmapping, query, semantics,
            samples=samples, seed=seed, prepared=prepared,
        )
        for prepared in (arrays, rows)
    )


_AGGREGATES = [
    "COUNT(*)", "COUNT(value)", "SUM(value)", "AVG(value)",
    "MIN(value)", "MAX(value)",
]
_WHERES = ["", " WHERE score > 10", " WHERE value > 1000"]


class TestArraySamplerDifferential:
    def test_batched_draw_matches_random_stream(self):
        # Counts around the 624-word twist (312 doubles per twist), from
        # fresh and part-consumed states.
        for count in (1, 2, 3, 64, 311, 312, 313, 4097):
            for consumed in (0, 1, 311):
                batched, scalar = random.Random(count), random.Random(count)
                for stream in (batched, scalar):
                    for _ in range(consumed):
                        stream.random()
                with sampling.continued_stream(batched) as generator:
                    drawn = generator.random(count).tolist()
                assert drawn == [scalar.random() for _ in range(count)]
                assert batched.getstate() == scalar.getstate()
                assert batched.random() == scalar.random()

    @pytest.mark.parametrize("case", sorted(_PROBABILITIES))
    @pytest.mark.parametrize("semantics", list(AggregateSemantics))
    @pytest.mark.parametrize("aggregate", _AGGREGATES)
    def test_answers_bit_identical(self, aggregate, semantics, case):
        table = _mixed_table(60, seed=len(case))
        pmapping = _pmapping(_PROBABILITIES[case])
        for where in _WHERES:
            text = f"SELECT {aggregate} FROM T{where}"
            arrays, rows = _both_samplers(
                table, pmapping, text, semantics, samples=150, seed=17
            )
            assert arrays == rows, text
            assert _bits(arrays) == _bits(rows), text

    def test_no_qualifying_rows_is_undefined(self):
        arrays, rows = _both_samplers(
            _mixed_table(30), _pmapping(_PROBABILITIES["plain"]),
            "SELECT SUM(value) FROM T WHERE value > 1000",
            AggregateSemantics.DISTRIBUTION, samples=40, seed=3,
        )
        assert arrays == rows
        assert not arrays.is_defined

    @pytest.mark.parametrize(
        "rows, samples", [(10, 20), (10, 6), (64, 5), (100, 3), (0, 4)]
    )
    def test_block_boundaries(self, monkeypatch, rows, samples):
        # 64-cell blocks: 6 samples of 10 rows, exactly one of 64, and a
        # single sample wider than a block.
        monkeypatch.setattr(sampling, "BLOCK_CELLS", 64)
        table = _mixed_table(rows, seed=rows)
        pmapping = _pmapping(_PROBABILITIES["plain"])
        for aggregate in _AGGREGATES:
            for semantics in AggregateSemantics:
                text = f"SELECT {aggregate} FROM T WHERE score > 0"
                arrays, rows_answer = _both_samplers(
                    table, pmapping, text, semantics,
                    samples=samples, seed=rows + samples,
                )
                assert _bits(arrays) == _bits(rows_answer), text

    @pytest.mark.parametrize(
        "aggregate, other", [("MIN(value)", 2.5), ("MAX(value)", -2.5)]
    )
    def test_signed_zero_ties_follow_tuple_order(self, aggregate, other):
        """MIN/MAX over a mix of 0.0 and -0.0 return whichever the row
        walk meets first, as Python's ``min``/``max`` do."""
        rng = random.Random(4)
        table = Table(
            _SOURCE,
            [
                tuple([i] + [rng.choice([0.0, -0.0, other]) for _ in range(3)]
                      + [None])
                for i in range(12)
            ],
        )
        # The distribution keeps the sign of the first zero drawn, so many
        # short runs compare the per-sample signs.
        for seed in range(40):
            arrays, rows = _both_samplers(
                table, _pmapping(_PROBABILITIES["plain"]),
                f"SELECT {aggregate} FROM T",
                AggregateSemantics.DISTRIBUTION, samples=2, seed=seed,
            )
            assert _bits(arrays) == _bits(rows), seed

    def test_draws_above_the_last_cumulative_clamp(self, monkeypatch):
        """Probabilities summing to just under one (inside the p-mapping
        tolerance) leave draws above the last cumulative bound; both
        samplers clamp them to the last mapping."""
        probabilities = [0.5, 0.2, 0.2, 0.1 - 5e-10]
        assert sum(probabilities) < 1.0 - 2**-53
        # A state at position 0 emits its 624 key words, tempered, before
        # the first twist.  Untempered so that most of them come out as
        # 0xFFFFFFFF, most draws land at 1 - 2**-53; the query below
        # draws rows * samples doubles, all from those 624 words.
        words = random.Random(5)
        key = tuple(
            _untemper(0xFFFFFFFF if words.random() < 0.8 else words.getrandbits(32))
            for _ in range(624)
        )
        Random = random.Random

        def crafted(seed=None):
            stream = Random()
            stream.setstate((3, key + (0,), None))
            return stream

        rows, samples = 12, 26
        assert rows * samples <= 624 // 2
        stream = crafted()
        draws = [stream.random() for _ in range(rows * samples)]
        last_bound = list(itertools.accumulate(probabilities))[-1]
        assert sum(u > last_bound for u in draws) > rows

        monkeypatch.setattr(sampling.random, "Random", crafted)
        for aggregate in ("COUNT(value)", "SUM(value)", "MAX(value)"):
            arrays, rows_answer = _both_samplers(
                _mixed_table(rows), _pmapping(probabilities),
                f"SELECT {aggregate} FROM T",
                AggregateSemantics.DISTRIBUTION, samples=samples, seed=5,
            )
            assert _bits(arrays) == _bits(rows_answer), aggregate

    def test_draws_spanning_blocks_at_the_real_block_size(self):
        table = _mixed_table(150, seed=9)
        pmapping = _pmapping(_PROBABILITIES["zero-probability mapping"])
        per_block = sampling.BLOCK_CELLS // len(table)
        samples = 3 * per_block + 7  # three full blocks and a partial one
        for aggregate in _AGGREGATES:
            text = f"SELECT {aggregate} FROM T WHERE score > 0"
            arrays, rows = _both_samplers(
                table, pmapping, text, AggregateSemantics.DISTRIBUTION,
                samples=samples, seed=21,
            )
            assert _bits(arrays) == _bits(rows), text

    def test_the_stream_ends_where_the_row_walk_leaves_it(self):
        table = _mixed_table(40, seed=2)
        pmapping = _pmapping(_PROBABILITIES["plain"])
        query = parse_query("SELECT AVG(value) FROM T")
        cumulative = list(itertools.accumulate(pmapping.probabilities))
        states, answers = [], []
        for arrays in (True, False):
            prepared = _sampler_input(table, pmapping, query, arrays)
            sample = sampling._sample_columnar if arrays else sampling._sample_rows
            rng = random.Random(8)
            values = sample(prepared, query.aggregate.op, cumulative, 333, rng)
            answers.append(
                sampling.fold_outcomes(((value, 1) for value in values), 333)
            )
            states.append(rng.getstate())
        assert states[0] == states[1]
        assert _bits(answers[0]) == _bits(answers[1])

    def test_concurrent_draws_equal_sequential_ones(self):
        table = _mixed_table(120, seed=4)
        pmapping = _pmapping(_PROBABILITIES["plain"])
        query = parse_query("SELECT SUM(value) FROM T WHERE score > 5")
        prepared = _sampler_input(table, pmapping, query, arrays=True)
        seeds = range(4)

        def draws(seed):
            return [
                _bits(
                    sample_by_tuple(
                        table, pmapping, query, AggregateSemantics.DISTRIBUTION,
                        samples=150, seed=seed * 100 + round, prepared=prepared,
                    )
                )
                for round in range(15)
            ]

        expected = [draws(seed) for seed in seeds]
        barrier = threading.Barrier(len(seeds), timeout=30)
        got = [None] * len(seeds)

        def worker(index, seed):
            barrier.wait()
            got[index] = draws(seed)

        threads = [
            threading.Thread(target=worker, args=(index, seed))
            for index, seed in enumerate(seeds)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads mid-draw
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == expected

    def test_world_budget_breaches_at_the_same_count(self):
        table = _mixed_table(50)
        pmapping = _pmapping(_PROBABILITIES["plain"])
        query = parse_query("SELECT SUM(value) FROM T")
        progress = []
        for arrays in (True, False):
            prepared = _sampler_input(table, pmapping, query, arrays)
            with guardmod.guarded(Budget(max_worlds=37)):
                with pytest.raises(BudgetExceededError) as raised:
                    sample_by_tuple(
                        table, pmapping, query,
                        AggregateSemantics.DISTRIBUTION,
                        samples=200, seed=1, prepared=prepared,
                    )
            progress.append((raised.value.used, raised.value.progress))
        assert progress[0] == progress[1]
        assert progress[0][0] == 38

    def test_world_budget_of_exactly_the_samples_holds(self):
        table = _mixed_table(50)
        pmapping = _pmapping(_PROBABILITIES["plain"])
        query = parse_query("SELECT AVG(value) FROM T")
        answers = []
        for arrays in (True, False):
            prepared = _sampler_input(table, pmapping, query, arrays)
            with guardmod.guarded(Budget(max_worlds=200)):
                answers.append(
                    sample_by_tuple(
                        table, pmapping, query,
                        AggregateSemantics.EXPECTED_VALUE,
                        samples=200, seed=2, prepared=prepared,
                    )
                )
        assert _bits(answers[0]) == _bits(answers[1])
