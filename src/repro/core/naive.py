"""Naive by-tuple evaluation by enumerating all mapping sequences.

This is the paper's baseline (and the only *exact* route for the semantics
cells without a PTIME algorithm): with ``n`` tuples and ``m`` mappings,
enumerate all ``m^n`` sequences, materialize the possible world each
sequence induces on the target schema, evaluate the query in that world,
and fold the results into a probability distribution (Example 3/4 of the
paper, and the Section IV-B opening argument for why this blows up).

Because each world is an ordinary (certain) database instance, this module
handles *every* supported query shape — nested aggregates, GROUP BY,
DISTINCT — which makes it the reference implementation the PTIME
algorithms are tested against.

The cost is Theta(m^n) query evaluations; :data:`DEFAULT_MAX_SEQUENCES`
guards against accidental explosions.  :func:`fold_worlds` is the one
possible-worlds fold: enumeration passes it every sequence with its
probability, :mod:`repro.core.sampling` the drawn sequences with weight 1.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Iterator

from repro.core import guard as guardmod
from repro.core.answers import (
    AggregateAnswer,
    DistributionAnswer,
    GroupedAnswer,
    project,
)
from repro.core.eval import evaluate_certain
from repro.core.semantics import AggregateSemantics
from repro.exceptions import EvaluationError, UnsupportedQueryError
from repro.prob.distribution import DiscreteDistribution
from repro.schema.mapping import PMapping
from repro.sql.ast import AggregateQuery, SubquerySource
from repro.storage.table import Table

#: Refuse to enumerate more sequences than this unless overridden.
DEFAULT_MAX_SEQUENCES = 1 << 22


def _target_relation_name(query: AggregateQuery) -> str:
    source = query.source
    while isinstance(source, SubquerySource):
        source = source.query.source
    return source.name


def _projected_rows(
    table: Table, pmapping: PMapping, query: AggregateQuery
) -> list[list[tuple]]:
    """``rows[i][j]``: tuple ``i`` projected onto the target schema by mapping ``j``.

    Target attributes without a correspondence under a mapping become NULL.
    """
    target = pmapping.target
    target_name = _target_relation_name(query)
    if target_name != target.name:
        raise UnsupportedQueryError(
            f"query reads from {target_name!r} but the p-mapping targets "
            f"{target.name!r}"
        )
    projections: list[list[tuple]] = []
    per_mapping_indexes: list[list[int | None]] = []
    for mapping, _ in pmapping:
        indexes: list[int | None] = []
        for attribute in target:
            if mapping.maps_target(attribute.name):
                indexes.append(
                    table.relation.index_of(mapping.source_for(attribute.name))
                )
            else:
                indexes.append(None)
        per_mapping_indexes.append(indexes)
    for values in table.row_tuples():
        projections.append(
            [
                tuple(
                    values[index] if index is not None else None
                    for index in indexes
                )
                for indexes in per_mapping_indexes
            ]
        )
    return projections


def sequence_count(table: Table, pmapping: PMapping) -> int:
    """``m ** n``: the number of mapping sequences for this instance."""
    return len(pmapping) ** len(table)


def _world_results(
    pmapping: PMapping,
    projections: list[list[tuple]],
    query: AggregateQuery,
    weighted_sequences: Iterable[tuple[tuple[int, ...], float]],
) -> Iterator[tuple[tuple[int, ...], object, float]]:
    target = pmapping.target
    guard = guardmod.current_guard()
    for sequence, weight in weighted_sequences:
        if guard is not None:
            # Each sequence is one possible world: an O(n) materialization
            # plus a full query evaluation, so check every iteration.
            guard.add_worlds(1)
        world = Table.from_prepared_rows(
            target,
            [projections[i][j] for i, j in enumerate(sequence)],
        )
        yield sequence, evaluate_certain(query, {target.name: world}), weight


def _enumerated(
    table: Table, pmapping: PMapping, max_sequences: int
) -> Iterator[tuple[tuple[int, ...], float]]:
    total = sequence_count(table, pmapping)
    if total > max_sequences:
        raise EvaluationError(
            f"naive enumeration would visit {total} mapping sequences "
            f"(> {max_sequences}); use the PTIME algorithms where available, "
            "repro.core.sampling for an estimate, or raise max_sequences"
        )
    probabilities = list(pmapping.probabilities)
    return (
        (sequence, math.prod(probabilities[j] for j in sequence))
        for sequence in itertools.product(range(len(pmapping)), repeat=len(table))
    )


def iter_sequence_results(
    table: Table,
    pmapping: PMapping,
    query: AggregateQuery,
    *,
    max_sequences: int = DEFAULT_MAX_SEQUENCES,
) -> Iterator[tuple[tuple[int, ...], object, float]]:
    """Yield ``(sequence, query_result, probability)`` for every sequence.

    ``sequence`` assigns a mapping index to each tuple; ``query_result`` is
    whatever :func:`~repro.core.eval.evaluate_certain` returns for the
    possible world the sequence induces (a scalar, ``None`` for an
    undefined aggregate, or a per-group dict).

    This generator lists the paper's Table VII (the 16 sequences of query
    Q2'); :func:`naive_by_tuple_distribution` folds the same worlds.
    """
    sequences = _enumerated(table, pmapping, max_sequences)
    projections = _projected_rows(table, pmapping, query)
    yield from _world_results(pmapping, projections, query, sequences)


def fold_outcomes(
    weighted_values: Iterable[tuple[object, float]], total: float = 1.0
) -> DistributionAnswer:
    """The distribution of weighted aggregate values (``None``: undefined).

    ``total`` is the weight of all worlds: 1 for probabilities, the draw
    count for sampled worlds weighted 1 each (integer counts, so a seeded
    estimate never depends on summation order).
    """
    outcomes: dict[object, float] = {}
    undefined = 0
    for value, weight in weighted_values:
        if value is None:
            undefined += weight
        else:
            outcomes[value] = outcomes.get(value, 0) + weight
    return _distribution(outcomes, undefined, total)


def _distribution(
    outcomes: dict[object, float], undefined: float, total: float
) -> DistributionAnswer:
    if not outcomes:
        return DistributionAnswer(None, undefined_probability=1.0)
    return DistributionAnswer(
        DiscreteDistribution(outcomes, normalize=True),
        undefined_probability=undefined / total,
    )


def fold_worlds(
    table: Table,
    pmapping: PMapping,
    query: AggregateQuery,
    weighted_sequences: Iterable[tuple[tuple[int, ...], float]],
    *,
    total: float = 1.0,
) -> DistributionAnswer | GroupedAnswer:
    """Fold the possible worlds of weighted mapping sequences into an answer.

    The one possible-worlds fold behind naive enumeration (every sequence,
    weighted by its probability) and sampling (drawn sequences, weighted
    1 of ``total``).  Each sequence's world is materialized on the target
    schema and the query evaluated in it.  A group's undefined weight is
    summed over the worlds where the group is absent or its aggregate is
    NULL; groups come out in first-occurrence order, walking the table's
    rows and, within each row, the candidate mappings in order, and a
    group is listed once some world carries it.
    """
    projections = _projected_rows(table, pmapping, query)
    results = _world_results(pmapping, projections, query, weighted_sequences)
    if query.group_by is None:
        return fold_outcomes(
            ((result, weight) for _, result, weight in results), total
        )
    group_index = pmapping.target.index_of(query.group_by.name)
    keys = list(
        dict.fromkeys(
            projected[group_index]
            for per_mapping in projections
            for projected in per_mapping
        )
    )
    outcomes: dict[object, dict[object, float]] = {key: {} for key in keys}
    undefined: dict[object, float] = dict.fromkeys(keys, 0)
    seen: set[object] = set()
    for _, result, weight in results:
        seen.update(result)
        for key in keys:
            value = result.get(key)
            if value is None:
                undefined[key] += weight
            else:
                bucket = outcomes[key]
                bucket[value] = bucket.get(value, 0) + weight
    return GroupedAnswer(
        {
            key: _distribution(outcomes[key], undefined[key], total)
            for key in keys
            if key in seen
        }
    )


def naive_by_tuple_distribution(
    table: Table,
    pmapping: PMapping,
    query: AggregateQuery,
    *,
    max_sequences: int = DEFAULT_MAX_SEQUENCES,
) -> AggregateAnswer:
    """The exact by-tuple distribution by full sequence enumeration.

    For grouped queries, a group missing from a world (no qualifying tuple
    carried its key) counts toward that group's undefined mass.
    """
    return fold_worlds(
        table, pmapping, query, _enumerated(table, pmapping, max_sequences)
    )


def naive_by_tuple_answer(
    table: Table,
    pmapping: PMapping,
    query: AggregateQuery,
    semantics: AggregateSemantics,
    *,
    max_sequences: int = DEFAULT_MAX_SEQUENCES,
) -> AggregateAnswer:
    """Exact by-tuple answer for any aggregate semantics, via enumeration."""
    return project(
        naive_by_tuple_distribution(
            table, pmapping, query, max_sequences=max_sequences
        ),
        semantics,
    )
