"""Monte-Carlo estimation of by-tuple answers (paper Section VII).

The paper leaves MIN, MAX, and AVG under the by-tuple/distribution (and
expected value) semantics without a PTIME algorithm and names "sampling
methods to provide efficient answers" as future work.  This module
implements that: each sample draws one mapping per tuple according to the
p-mapping's probabilities — i.e. samples a mapping *sequence* — evaluates
the aggregate in the induced world, and the empirical distribution of the
results estimates the true one.

For flat queries the per-tuple contribution vectors are precomputed once
and each sample costs O(n); given the query's array-backed problem, whole
blocks of samples are drawn and reduced as arrays instead, with the same
seeded stream and bit-identical values.  Nested or grouped queries
materialize each sampled world through
:func:`repro.core.naive.fold_worlds`, the fold naive enumeration runs
over every world.  Estimation error for the expected value
shrinks as O(1/sqrt(samples)); for the distribution, the
Dvoretzky-Kiefer-Wolfowitz bound gives a uniform CDF error of
``sqrt(ln(2/alpha) / (2 * samples))`` with confidence ``1 - alpha``.
"""

from __future__ import annotations

import bisect
import contextlib
import itertools
import math
import random
import threading
from collections.abc import Iterator

import numpy as np

from repro.core import guard as guardmod
from repro.core.answers import (
    AggregateAnswer,
    DistributionAnswer,
    GroupedAnswer,
    project,
)
from repro.core.common import PreparedTupleQuery, charge_rows
from repro.core.eval import apply_aggregate
from repro.core.naive import fold_outcomes, fold_worlds
from repro.core.semantics import AggregateSemantics
from repro.core.vectorized import VectorizedProblem, segment_sums
from repro.exceptions import EvaluationError
from repro.obs import metrics
from repro.schema.mapping import PMapping
from repro.sql.ast import AggregateOp, AggregateQuery, SubquerySource
from repro.storage.table import Table

#: Default number of sampled mapping sequences.
DEFAULT_SAMPLES = 2000

#: Cap on the (samples x tuples) cells of one block drawn by the
#: array-backed sampler: its reused uniform and index buffers stay near
#: 64 KiB, small enough to come from the heap rather than fresh pages,
#: whatever the sample count.
BLOCK_CELLS = 8192


def dkw_epsilon(samples: int, alpha: float = 0.05) -> float:
    """The DKW uniform CDF error bound for ``samples`` draws at level ``alpha``."""
    if samples <= 0:
        raise EvaluationError("need at least one sample")
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * samples))


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
    prepared: PreparedTupleQuery | VectorizedProblem | None = None,
) -> AggregateAnswer:
    """Estimate a by-tuple answer by sampling mapping sequences.

    ``prepared`` optionally reuses the flat path's input, built from the
    same ``(table, pmapping, query)`` triple: a (possibly materialized)
    :class:`PreparedTupleQuery`, whose row walk skips predicate
    compilation, or the query's
    :class:`~repro.core.vectorized.VectorizedProblem`, which draws and
    reduces blocks of samples as arrays.

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
        source = prepared
        if source is None:
            source = PreparedTupleQuery(table, pmapping, query)
        metrics.inc("sampling.iterations", samples)
        cumulative = list(itertools.accumulate(pmapping.probabilities))
        sample = (
            _sample_columnar
            if isinstance(source, VectorizedProblem)
            else _sample_rows
        )
        values = sample(source, query.aggregate.op, cumulative, samples, rng)
        return fold_outcomes(((value, 1) for value in values), samples)

    answer = guardmod.shared(
        ("sampled", id(query), samples, seed), draw, worlds=samples
    )
    return project(answer, semantics)


def _sample_rows(
    prepared: PreparedTupleQuery,
    op: AggregateOp,
    cumulative: list[float],
    samples: int,
    rng: random.Random,
) -> Iterator[float | None]:
    """Per-sample aggregate values, drawn one tuple at a time."""
    guard = guardmod.current_guard()
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


_streams = threading.local()


@contextlib.contextmanager
def continued_stream(rng: random.Random):
    """A ``numpy.random.Generator`` whose ``random()`` continues ``rng``.

    The generator starts from ``rng``'s exact Mersenne Twister state (key
    and position).  ``Generator.random`` builds each double from two
    consecutive 32-bit words as ``((a >> 5) * 2**26 + (b >> 6)) / 2**53``,
    exactly as ``random.random()`` does, so ``generator.random(k)`` is
    element for element ``[rng.random() for _ in range(k)]``.  When the
    ``with`` block ends without an error, the generator's state is
    written back to ``rng``, which then stands where those
    ``rng.random()`` calls would have left it.  The generator is this
    thread's own: concurrent draws on other threads use theirs.
    """
    generator = getattr(_streams, "generator", None)
    if generator is None:
        # Building an MT19937 seeds it from OS entropy (about 0.2 ms), so
        # each thread builds one, at its first array-sampled draw, and
        # reuses it: its state is overwritten below every time.
        from numpy.random import MT19937, Generator

        generator = _streams.generator = Generator(MT19937())
    bits = generator.bit_generator
    version, internal, gauss = rng.getstate()
    bits.state = {
        "bit_generator": "MT19937",
        "state": {"key": internal[:-1], "pos": internal[-1]},
    }
    yield generator
    state = bits.state["state"]
    rng.setstate((version, (*state["key"].tolist(), state["pos"]), gauss))


def _sample_columnar(
    problem: VectorizedProblem,
    op: AggregateOp,
    cumulative: list[float],
    samples: int,
    rng: random.Random,
) -> list[float | None]:
    """Per-sample aggregate values over an array-backed problem.

    Draws blocks of whole samples from the stream the row walk consumes
    (sample-major, tuple-minor; see :func:`continued_stream`) into reused
    buffers, and picks each tuple's mapping as the row walk's clamped
    ``bisect_left`` does: the count of cumulative probabilities below the
    draw, all but the last.  It then gathers participation and values for
    the block at once and reduces per sample to what
    :func:`~repro.core.eval.apply_aggregate` returns: exact sums for
    SUM/AVG (:func:`~repro.core.vectorized.segment_sums`, ``==`` to
    ``fsum``), ``min``/``max`` with ties and NaNs settled in tuple order.
    Every value is bit-identical to the row walk over the problem's
    contribution vectors.  The rows are charged once, before the first
    draw, as the row walk charges them when it lists its vectors.
    """
    n = problem.row_count
    charge_rows(n)
    guard = guardmod.current_guard()
    bounds = cumulative[:-1]
    participation = problem.participation_matrix().ravel()
    value_flat = None if op is AggregateOp.COUNT else problem.value_matrix().ravel()
    per_block = min(samples, max(1, BLOCK_CELLS // max(n, 1)))
    uniform_buffer = np.empty((per_block, n))
    index_buffer = np.empty((per_block, n), dtype=np.intp)
    columns = np.arange(n)
    out: list[float | None] = []
    with continued_stream(rng) as generator:
        for done in range(0, samples, per_block):
            block = min(per_block, samples - done)
            if guard is not None:
                for _ in range(block):
                    guard.add_worlds(1)
            uniforms = generator.random(out=uniform_buffer[:block])
            index = index_buffer[:block]
            index.fill(0)
            for bound in bounds:
                index += uniforms > bound
            index *= n
            index += columns
            selected = participation.take(index)
            counts = selected.sum(axis=1)
            if value_flat is None:
                out.extend(counts.tolist())
                continue
            if op is AggregateOp.SUM or op is AggregateOp.AVG:
                totals = segment_sums(
                    [value_flat.take(index[selected])], np.cumsum(counts) - counts
                )
                for count, total in zip(counts.tolist(), totals):
                    if not count:
                        out.append(None)
                    else:
                        out.append(total if op is AggregateOp.SUM else total / count)
                continue
            values = value_flat.take(index)
            if op is AggregateOp.MIN:
                extremes = values.min(axis=1, where=selected, initial=np.inf)
                fold = min
            else:
                extremes = values.max(axis=1, where=selected, initial=-np.inf)
                fold = max
            for row, (count, extreme) in enumerate(
                zip(counts.tolist(), extremes.tolist())
            ):
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
    metrics.inc("sampling.iterations", samples)
    cumulative = list(itertools.accumulate(pmapping.probabilities))
    last = len(cumulative) - 1
    rows = range(len(table))

    def draw() -> tuple[int, ...]:
        # Clamp against a float edge at exactly 1.0, as the flat path does.
        return tuple(
            min(bisect.bisect_left(cumulative, rng.random()), last) for _ in rows
        )

    draws = ((draw(), 1) for _ in range(samples))
    return fold_worlds(table, pmapping, query, draws, total=samples)
