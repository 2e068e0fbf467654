"""Monte-Carlo estimation of by-tuple answers (paper Section VII).

The paper leaves MIN, MAX, and AVG under the by-tuple/distribution (and
expected value) semantics without a PTIME algorithm and names "sampling
methods to provide efficient answers" as future work.  This module
implements that: each sample draws one mapping per tuple according to the
p-mapping's probabilities — i.e. samples a mapping *sequence* — evaluates
the aggregate in the induced world, and the empirical distribution of the
results estimates the true one.

For flat queries the per-tuple contribution vectors are precomputed once
and each sample costs O(n); when the prepared query pinned an array-backed
problem, whole blocks of samples are drawn and reduced as arrays, with the
same seeded stream and bit-identical values.  Nested or grouped queries
fall back to full world materialization per sample.  Estimation error for the expected value
shrinks as O(1/sqrt(samples)); for the distribution, the
Dvoretzky-Kiefer-Wolfowitz bound gives a uniform CDF error of
``sqrt(ln(2/alpha) / (2 * samples))`` with confidence ``1 - alpha``.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from collections.abc import Iterator

from repro.core import guard as guardmod
from repro.core.answers import (
    AggregateAnswer,
    DistributionAnswer,
    GroupedAnswer,
)
from repro.core.common import PreparedTupleQuery
from repro.core.eval import apply_aggregate, evaluate_certain
from repro.core.naive import _projected_rows, _target_relation_name
from repro.core.semantics import AggregateSemantics
from repro.exceptions import EvaluationError, UnsupportedQueryError
from repro.obs import metrics
from repro.prob.distribution import DiscreteDistribution
from repro.schema.mapping import PMapping
from repro.sql.ast import AggregateOp, AggregateQuery, SubquerySource
from repro.storage.table import Table

try:  # pragma: no cover - exercised by the no-numpy CI job
    import numpy as np
except ImportError:  # pragma: no cover
    np = None

#: Default number of sampled mapping sequences.
DEFAULT_SAMPLES = 2000

#: Cap on the (samples x tuples) cells of one block drawn by the
#: array-backed sampler: its uniform, index, and gather arrays stay in
#: the tens of kilobytes whatever the sample count.
BLOCK_CELLS = 2048


def dkw_epsilon(samples: int, alpha: float = 0.05) -> float:
    """The DKW uniform CDF error bound for ``samples`` draws at level ``alpha``."""
    if samples <= 0:
        raise EvaluationError("need at least one sample")
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * samples))


def _empirical_answer(
    outcomes: dict[float, int], undefined: int, samples: int
) -> DistributionAnswer:
    if not outcomes:
        return DistributionAnswer(None, undefined_probability=1.0)
    distribution = DiscreteDistribution(
        {value: count for value, count in outcomes.items()}, normalize=True
    )
    return DistributionAnswer(
        distribution, undefined_probability=undefined / samples
    )


def _project(
    answer: DistributionAnswer | GroupedAnswer, semantics: AggregateSemantics
) -> AggregateAnswer:
    if isinstance(answer, GroupedAnswer):
        return GroupedAnswer(
            {key: _project(group, semantics) for key, group in answer}
        )
    if semantics is AggregateSemantics.DISTRIBUTION:
        return answer
    if semantics is AggregateSemantics.RANGE:
        return answer.to_range()
    if semantics is AggregateSemantics.EXPECTED_VALUE:
        return answer.to_expected_value()
    raise EvaluationError(f"unknown aggregate semantics {semantics!r}")


class ExpectedValueEstimate:
    """A sampled expected value with its statistical error.

    ``standard_error`` is the sample standard deviation divided by
    ``sqrt(samples)``; ``confidence_interval(z)`` returns the symmetric
    normal-approximation interval (z = 1.96 for ~95%).  ``defined_fraction``
    is the share of sampled worlds where the aggregate was defined — the
    estimate conditions on those, matching the library's expected-value
    semantics.
    """

    __slots__ = ("value", "standard_error", "samples", "defined_fraction")

    def __init__(
        self,
        value: float | None,
        standard_error: float,
        samples: int,
        defined_fraction: float,
    ) -> None:
        self.value = value
        self.standard_error = standard_error
        self.samples = samples
        self.defined_fraction = defined_fraction

    @property
    def is_defined(self) -> bool:
        """False when no sampled world had a defined aggregate."""
        return self.value is not None

    def confidence_interval(self, z: float = 1.96) -> tuple[float, float]:
        """``value ± z * standard_error`` (normal approximation)."""
        if self.value is None:
            raise EvaluationError("the estimate is undefined")
        margin = z * self.standard_error
        return (self.value - margin, self.value + margin)

    def __repr__(self) -> str:
        if self.value is None:
            return "ExpectedValueEstimate(undefined)"
        return (
            f"ExpectedValueEstimate({self.value:g} "
            f"± {self.standard_error:g} se, n={self.samples})"
        )


def estimate_expected_value(
    table: Table,
    pmapping: PMapping,
    query: AggregateQuery,
    *,
    samples: int = DEFAULT_SAMPLES,
    seed: int | None = None,
) -> ExpectedValueEstimate:
    """Monte-Carlo expected value with an explicit standard error.

    Unlike :func:`sample_by_tuple` (which returns the bare answer types the
    engine uses), this reports how much to trust the number — useful when
    budgeting samples for the open cells of Figure 6.

    Examples
    --------
    >>> estimate_expected_value(ds2, pm2, q2_prime,
    ...                         samples=4000, seed=0)      # doctest: +SKIP
    ExpectedValueEstimate(975.2 ± 0.72 se, n=4000)
    """
    answer = sample_by_tuple(
        table,
        pmapping,
        query,
        AggregateSemantics.DISTRIBUTION,
        samples=samples,
        seed=seed,
    )
    if isinstance(answer, GroupedAnswer):
        raise EvaluationError(
            "estimate_expected_value is for scalar queries; answer grouped "
            "queries with sample_by_tuple and project per group"
        )
    assert isinstance(answer, DistributionAnswer)
    if not answer.is_defined:
        return ExpectedValueEstimate(None, 0.0, samples, 0.0)
    defined_fraction = 1.0 - answer.undefined_probability
    effective = max(1, round(samples * defined_fraction))
    mean = answer.distribution.expected_value()
    variance = answer.distribution.variance()
    standard_error = math.sqrt(variance / effective)
    return ExpectedValueEstimate(mean, standard_error, samples, defined_fraction)


def sample_by_tuple(
    table: Table,
    pmapping: PMapping,
    query: AggregateQuery,
    semantics: AggregateSemantics,
    *,
    samples: int = DEFAULT_SAMPLES,
    seed: int | None = None,
    prepared: PreparedTupleQuery | None = None,
) -> AggregateAnswer:
    """Estimate a by-tuple answer by sampling mapping sequences.

    ``prepared`` optionally reuses an already-compiled (possibly
    materialized) :class:`PreparedTupleQuery` for the flat path, skipping
    predicate compilation; it must have been built from the same
    ``(table, pmapping, query)`` triple.

    Note that under the *range* semantics the estimate is the range of the
    sampled worlds, a subset of the true range; prefer the exact PTIME
    range algorithms, which exist for every aggregate.

    Inside one ``answer_six`` request the empirical answer of a
    ``(query, samples, seed)`` draw is computed once and projected per
    cell (see :func:`repro.core.guard.shared`).
    """
    if samples <= 0:
        raise EvaluationError("need at least one sample")

    def draw() -> DistributionAnswer | GroupedAnswer:
        rng = random.Random(seed)
        if isinstance(query.source, SubquerySource) or query.group_by is not None:
            return _sample_worlds(table, pmapping, query, samples, rng)
        return _sample_flat(table, pmapping, query, samples, rng, prepared=prepared)

    answer = guardmod.shared(
        ("sampled", id(query), samples, seed), draw, worlds=samples
    )
    return _project(answer, semantics)


def _sample_flat(
    table: Table,
    pmapping: PMapping,
    query: AggregateQuery,
    samples: int,
    rng: random.Random,
    *,
    prepared: PreparedTupleQuery | None = None,
) -> DistributionAnswer:
    if prepared is None:
        prepared = PreparedTupleQuery(table, pmapping, query)
    metrics.inc("sampling.iterations", samples)
    cumulative = list(itertools.accumulate(prepared.probabilities))
    op = prepared.op
    guard = guardmod.current_guard()
    problem = prepared.columnar_problem
    if problem is not None:
        metrics.inc("tuples.scanned", problem.row_count)
        values = _sample_columnar(problem, op, cumulative, samples, rng, guard)
    else:
        values = _sample_rows(prepared, op, cumulative, samples, rng, guard)
    outcomes: dict[float, int] = {}
    undefined = 0
    for value in values:
        if value is None:
            undefined += 1
        else:
            outcomes[value] = outcomes.get(value, 0) + 1
    return _empirical_answer(outcomes, undefined, samples)


def _sample_rows(
    prepared: PreparedTupleQuery,
    op: AggregateOp,
    cumulative: list[float],
    samples: int,
    rng: random.Random,
    guard: guardmod.ExecutionGuard | None,
) -> Iterator[float | None]:
    """Per-sample aggregate values, drawn one tuple at a time."""
    vectors = list(prepared.contribution_vectors())
    for _ in range(samples):
        if guard is not None:
            guard.add_worlds(1)
        contributions = []
        for vector in vectors:
            j = bisect.bisect_left(cumulative, rng.random())
            if j >= len(vector):  # guard against float edge at exactly 1.0
                j = len(vector) - 1
            contribution = vector[j]
            if contribution is not None:
                contributions.append(contribution)
        yield apply_aggregate(op, contributions)


def uniform_block(rng: random.Random, count: int):
    """``count`` uniforms as a float64 array, in one draw from ``rng``.

    Equal element for element to ``[rng.random() for _ in range(count)]``
    and leaves ``rng`` in the same state: ``random()`` builds each double
    from two consecutive 32-bit Mersenne Twister words as
    ``((w0 >> 5) * 2**26 + (w1 >> 6)) / 2**53``, and ``getrandbits`` emits
    the same words least-significant first.
    """
    words = np.frombuffer(
        rng.getrandbits(64 * count).to_bytes(8 * count, "little"),
        dtype="<u4",
    )
    high = (words[0::2] >> 5).astype(np.float64)
    low = (words[1::2] >> 6).astype(np.float64)
    return (high * 67108864.0 + low) * (1.0 / 9007199254740992.0)


def _sample_columnar(
    problem,
    op: AggregateOp,
    cumulative: list[float],
    samples: int,
    rng: random.Random,
    guard: guardmod.ExecutionGuard | None,
) -> list[float | None]:
    """Per-sample aggregate values over a pinned array-backed problem.

    Draws blocks of whole samples from the same stream the row walk
    consumes (sample-major, tuple-minor) and picks each tuple's mapping
    as the row walk's clamped ``bisect_left`` does: the count of
    cumulative probabilities below the draw, all but the last.  It then
    gathers participation and values for the block at once and reduces
    per sample through the same float primitives as
    :func:`~repro.core.eval.apply_aggregate` (``fsum`` for SUM/AVG,
    ``min``/``max`` with ties and NaNs settled in tuple order), so every
    value is bit-identical to the row walk over the problem's
    contribution vectors.
    """
    n = problem.row_count
    bounds = cumulative[:-1]
    columns = np.arange(n)
    participation = problem.participation_matrix().ravel()
    value_flat = None if op is AggregateOp.COUNT else problem.value_matrix().ravel()
    per_block = max(1, BLOCK_CELLS // max(n, 1))
    out: list[float | None] = []
    done = 0
    while done < samples:
        block = min(per_block, samples - done)
        if guard is not None:
            for _ in range(block):
                guard.add_worlds(1)
        done += block
        uniforms = uniform_block(rng, block * n).reshape(block, n)
        chosen = np.zeros((block, n), dtype=np.intp)
        for bound in bounds:
            chosen += uniforms > bound
        index = chosen * n + columns
        selected = participation.take(index)
        counts = selected.sum(axis=1).tolist()
        if value_flat is None:
            out.extend(counts)
            continue
        if op is AggregateOp.SUM or op is AggregateOp.AVG:
            flat = value_flat.take(index[selected]).tolist()
            start = 0
            for count in counts:
                if count:
                    total = math.fsum(flat[start:start + count])
                    out.append(total if op is AggregateOp.SUM else total / count)
                else:
                    out.append(None)
                start += count
            continue
        values = value_flat.take(index)
        if op is AggregateOp.MIN:
            extremes = values.min(axis=1, where=selected, initial=np.inf)
            fold = min
        else:
            extremes = values.max(axis=1, where=selected, initial=-np.inf)
            fold = max
        for row, (count, extreme) in enumerate(zip(counts, extremes.tolist())):
            if not count:
                out.append(None)
            elif extreme == 0.0 or extreme != extreme:
                # +-0.0 ties and NaNs depend on fold order: redo it in
                # tuple order, as the row walk does.
                out.append(fold(values[row][selected[row]].tolist()))
            else:
                out.append(extreme)
    return out


def _sample_worlds(
    table: Table,
    pmapping: PMapping,
    query: AggregateQuery,
    samples: int,
    rng: random.Random,
) -> DistributionAnswer | GroupedAnswer:
    target = pmapping.target
    if _target_relation_name(query) != target.name:
        raise UnsupportedQueryError(
            f"query reads from {_target_relation_name(query)!r} but the "
            f"p-mapping targets {target.name!r}"
        )
    metrics.inc("sampling.iterations", samples)
    projections = _projected_rows(table, pmapping)
    cumulative = list(itertools.accumulate(pmapping.probabilities))
    mapping_count = len(pmapping)
    scalar_outcomes: dict[float, int] = {}
    scalar_undefined = 0
    grouped_outcomes: dict[object, dict[float, int]] = {}
    grouped_defined: dict[object, int] = {}
    saw_grouped = False
    guard = guardmod.current_guard()
    for _ in range(samples):
        if guard is not None:
            guard.add_worlds(1)
        world_rows = []
        for per_mapping in projections:
            j = bisect.bisect_left(cumulative, rng.random())
            if j >= mapping_count:
                j = mapping_count - 1
            world_rows.append(per_mapping[j])
        world = Table.from_prepared_rows(target, world_rows)
        result = evaluate_certain(query, {target.name: world})
        if isinstance(result, dict):
            saw_grouped = True
            for key, value in result.items():
                if value is None:
                    continue
                bucket = grouped_outcomes.setdefault(key, {})
                bucket[value] = bucket.get(value, 0) + 1
                grouped_defined[key] = grouped_defined.get(key, 0) + 1
        elif result is None:
            scalar_undefined += 1
        else:
            scalar_outcomes[result] = scalar_outcomes.get(result, 0) + 1
    if saw_grouped or query.group_by is not None:
        return GroupedAnswer(
            {
                key: _empirical_answer(
                    bucket, samples - grouped_defined.get(key, 0), samples
                )
                for key, bucket in grouped_outcomes.items()
            }
        )
    return _empirical_answer(scalar_outcomes, scalar_undefined, samples)
