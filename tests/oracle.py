"""A brute-force possible-worlds oracle, written from first principles.

This module re-derives the six semantics of the paper directly from their
definitions, sharing **no** evaluation code with ``repro.core``: it walks
the WHERE-clause AST with its own three-valued-logic interpreter, applies
the aggregates with its own NULL handling, and enumerates every possible
world explicitly —

* **by-table**: one world per candidate mapping (``m`` worlds), each the
  whole source table projected onto the target schema under that mapping;
* **by-tuple**: one world per mapping *sequence* (``m ** n`` worlds), each
  tuple independently projected under its assigned mapping, the world's
  probability the product of the per-tuple mapping probabilities.

The per-world aggregate values fold into the library's answer conventions
(documented on :mod:`repro.core.answers`): the range is the min/max over
worlds where the aggregate is defined, the distribution is conditioned on
it being defined with the undefined mass reported separately, and the
expected value conditions on definedness.

Only the instance *size* limits apply (``MAX_WORLDS`` guards ``m ** n``);
any flat or GROUP BY query over one relation is supported.  The
conformance tests (:mod:`tests.test_oracle_conformance`) pit every
execution lane against this oracle.
"""

from __future__ import annotations

import datetime
import math
import re

from repro.core.answers import (
    AggregateAnswer,
    DistributionAnswer,
    ExpectedValueAnswer,
    GroupedAnswer,
    RangeAnswer,
)
from repro.core.semantics import AggregateSemantics, MappingSemantics
from repro.prob.distribution import DiscreteDistribution
from repro.schema.mapping import PMapping
from repro.schema.model import Relation
from repro.sql.ast import (
    AggregateOp,
    AggregateQuery,
    BetweenPredicate,
    BooleanCondition,
    ColumnRef,
    Comparison,
    Condition,
    InPredicate,
    IsNullPredicate,
    LikePredicate,
    Literal,
    NotCondition,
    SubquerySource,
)
from repro.storage.table import Table

#: Refuse to enumerate more by-tuple worlds than this.
MAX_WORLDS = 1 << 16


# -- three-valued logic over the WHERE-clause AST ---------------------------


def _operand_value(operand, row: tuple, relation: Relation):
    if isinstance(operand, ColumnRef):
        return row[relation.index_of(operand.name)]
    if isinstance(operand, Literal):
        return operand.value
    raise TypeError(f"unsupported operand {operand!r}")


def _as_date(text: str) -> datetime.date:
    """A ``'Y-M-D'`` date literal; month and day may drop their leading
    zero, as in the paper's ``'2008-1-20'``."""
    year, month, day = (int(part) for part in text.strip().split("-"))
    return datetime.date(year, month, day)


def _compare(operator: str, a, b):
    # A date literal reaches the AST as a string; compare it as a date.
    if isinstance(a, datetime.date) and isinstance(b, str):
        b = _as_date(b)
    elif isinstance(b, datetime.date) and isinstance(a, str):
        a = _as_date(a)
    if operator == "=":
        return a == b
    if operator in ("<>", "!="):
        return a != b
    if operator == "<":
        return a < b
    if operator == "<=":
        return a <= b
    if operator == ">":
        return a > b
    if operator == ">=":
        return a >= b
    raise ValueError(f"unknown comparison operator {operator!r}")


def _like_matches(value: str, pattern: str) -> bool:
    regex = "".join(
        ".*" if ch == "%" else "." if ch == "_" else re.escape(ch)
        for ch in pattern
    )
    return re.match(f"^{regex}$", value, re.DOTALL) is not None


def tri_eval(
    condition: Condition | None, row: tuple, relation: Relation
) -> bool | None:
    """SQL three-valued truth of ``condition`` on one world row.

    ``None`` is *unknown* (a NULL reached a comparison); a WHERE clause
    keeps only rows evaluating to ``True``.
    """
    if condition is None:
        return True
    if isinstance(condition, Comparison):
        a = _operand_value(condition.left, row, relation)
        b = _operand_value(condition.right, row, relation)
        if a is None or b is None:
            return None
        if isinstance(a, int) and isinstance(b, float) or (
            isinstance(a, float) and isinstance(b, int)
        ):
            a, b = float(a), float(b)
        return _compare(condition.operator, a, b)
    if isinstance(condition, BooleanCondition):
        truths = [
            tri_eval(operand, row, relation) for operand in condition.operands
        ]
        if condition.operator == "AND":
            if any(t is False for t in truths):
                return False
            return None if any(t is None for t in truths) else True
        if any(t is True for t in truths):
            return True
        return None if any(t is None for t in truths) else False
    if isinstance(condition, NotCondition):
        truth = tri_eval(condition.operand, row, relation)
        return None if truth is None else not truth
    if isinstance(condition, BetweenPredicate):
        value = _operand_value(condition.operand, row, relation)
        low = _operand_value(condition.low, row, relation)
        high = _operand_value(condition.high, row, relation)
        if value is None or low is None or high is None:
            return None
        inside = low <= value <= high
        return not inside if condition.negated else inside
    if isinstance(condition, InPredicate):
        value = _operand_value(condition.operand, row, relation)
        if value is None:
            return None
        member = any(value == literal.value for literal in condition.values)
        return not member if condition.negated else member
    if isinstance(condition, IsNullPredicate):
        value = _operand_value(condition.operand, row, relation)
        null = value is None
        return not null if condition.negated else null
    if isinstance(condition, LikePredicate):
        value = _operand_value(condition.operand, row, relation)
        if value is None:
            return None
        matches = _like_matches(str(value), condition.pattern)
        return not matches if condition.negated else matches
    raise TypeError(f"unsupported condition node {condition!r}")


# -- aggregates over one certain world --------------------------------------


def apply_aggregate_oracle(
    op: AggregateOp, values: list, *, distinct: bool = False
) -> float | None:
    """One SQL aggregate over the qualifying argument values of a world.

    NULL arguments are dropped; ``COUNT`` of nothing is 0 while the other
    aggregates are undefined (``None``) — standard SQL.
    """
    collected = [v for v in values if v is not None]
    if distinct:
        deduplicated: dict[object, None] = {}
        for value in collected:
            deduplicated.setdefault(value, None)
        collected = list(deduplicated)
    if op is AggregateOp.COUNT:
        return len(collected)
    if not collected:
        return None
    if op is AggregateOp.SUM:
        if any(isinstance(v, float) for v in collected):
            return math.fsum(collected)
        return sum(collected)
    if op is AggregateOp.AVG:
        return math.fsum(collected) / len(collected)
    if op is AggregateOp.MIN:
        return min(collected)
    if op is AggregateOp.MAX:
        return max(collected)
    raise ValueError(f"unknown aggregate operator {op!r}")


def evaluate_world(
    query: AggregateQuery, world_rows: list[tuple], target: Relation
):
    """Evaluate a flat (possibly GROUP BY) query over one possible world.

    Returns a scalar (``None`` for an undefined aggregate) or, for GROUP
    BY queries, a ``{group_key: value}`` dict containing only the groups
    present in the world.
    """
    if isinstance(query.source, SubquerySource):
        raise TypeError("the oracle handles flat queries only")
    qualifying = [
        row
        for row in world_rows
        if tri_eval(query.where, row, target) is True
    ]
    argument = query.aggregate.argument
    count_star = argument is None

    def value_of(row: tuple):
        # COUNT(*) counts rows regardless of NULLs: stand in a sentinel.
        return 1 if count_star else row[target.index_of(argument.name)]

    if query.group_by is None:
        return apply_aggregate_oracle(
            query.aggregate.op,
            [value_of(row) for row in qualifying],
            distinct=query.aggregate.distinct,
        )
    group_index = target.index_of(query.group_by.name)
    groups: dict[object, list] = {}
    for row in qualifying:
        groups.setdefault(row[group_index], []).append(value_of(row))
    return {
        key: apply_aggregate_oracle(
            query.aggregate.op, values, distinct=query.aggregate.distinct
        )
        for key, values in groups.items()
    }


# -- possible worlds --------------------------------------------------------


def _project(row: tuple, mapping, source: Relation, target: Relation) -> tuple:
    return tuple(
        row[source.index_of(mapping.source_for(attribute.name))]
        if mapping.maps_target(attribute.name)
        else None
        for attribute in target
    )


def iter_by_table_worlds(table: Table, pmapping: PMapping):
    """Yield ``(world_rows, probability)``: one world per candidate mapping."""
    source = pmapping.source
    target = pmapping.target
    for mapping, probability in pmapping:
        yield (
            [_project(row, mapping, source, target) for row in table.rows],
            probability,
        )


def iter_by_tuple_worlds(table: Table, pmapping: PMapping):
    """Yield ``(world_rows, probability)`` over all ``m ** n`` sequences."""
    source = pmapping.source
    target = pmapping.target
    mappings = [mapping for mapping, _ in pmapping]
    probabilities = list(pmapping.probabilities)
    rows = list(table.rows)
    total = len(mappings) ** len(rows)
    if total > MAX_WORLDS:
        raise ValueError(
            f"{total} by-tuple worlds exceed the oracle cap ({MAX_WORLDS})"
        )
    projected = [
        [_project(row, mapping, source, target) for mapping in mappings]
        for row in rows
    ]

    def recurse(index: int, world: list[tuple], probability: float):
        if index == len(rows):
            yield list(world), probability
            return
        for j, mapping_probability in enumerate(probabilities):
            world.append(projected[index][j])
            yield from recurse(
                index + 1, world, probability * mapping_probability
            )
            world.pop()

    yield from recurse(0, [], 1.0)


# -- folding worlds into answers --------------------------------------------


def _combine_scalar(
    outcomes: dict[float, float],
    undefined_mass: float,
    semantics: AggregateSemantics,
) -> AggregateAnswer:
    if semantics is AggregateSemantics.RANGE:
        if not outcomes:
            return RangeAnswer(None, None)
        return RangeAnswer(min(outcomes), max(outcomes))
    if semantics is AggregateSemantics.DISTRIBUTION:
        if not outcomes:
            return DistributionAnswer(None, undefined_probability=1.0)
        return DistributionAnswer(
            DiscreteDistribution(outcomes, normalize=True),
            undefined_probability=undefined_mass,
        )
    if semantics is AggregateSemantics.EXPECTED_VALUE:
        if not outcomes:
            return ExpectedValueAnswer(None)
        defined_mass = math.fsum(outcomes.values())
        return ExpectedValueAnswer(
            math.fsum(v * p for v, p in outcomes.items()) / defined_mass
        )
    raise ValueError(f"unknown aggregate semantics {semantics!r}")


def oracle_answer(
    table: Table,
    pmapping: PMapping,
    query: AggregateQuery,
    mapping_semantics: MappingSemantics,
    aggregate_semantics: AggregateSemantics,
) -> AggregateAnswer:
    """The ground-truth answer for any of the paper's six semantics cells."""
    if mapping_semantics is MappingSemantics.BY_TABLE:
        worlds = iter_by_table_worlds(table, pmapping)
    elif mapping_semantics is MappingSemantics.BY_TUPLE:
        worlds = iter_by_tuple_worlds(table, pmapping)
    else:
        raise ValueError(f"unknown mapping semantics {mapping_semantics!r}")

    target = pmapping.target
    scalar_outcomes: dict[float, float] = {}
    scalar_undefined = 0.0
    grouped_outcomes: dict[object, dict[float, float]] = {}
    total_mass = 0.0
    grouped = query.group_by is not None
    for world_rows, probability in worlds:
        total_mass += probability
        result = evaluate_world(query, world_rows, target)
        if grouped:
            for key, value in result.items():
                if value is not None:
                    bucket = grouped_outcomes.setdefault(key, {})
                    bucket[value] = bucket.get(value, 0.0) + probability
        elif result is None:
            scalar_undefined += probability
        else:
            scalar_outcomes[result] = (
                scalar_outcomes.get(result, 0.0) + probability
            )
    if grouped:
        # A world where the group never appears (or its aggregate is NULL)
        # contributes to that group's undefined mass.
        return GroupedAnswer(
            {
                key: _combine_scalar(
                    outcomes,
                    total_mass - math.fsum(outcomes.values()),
                    aggregate_semantics,
                )
                for key, outcomes in grouped_outcomes.items()
            }
        )
    return _combine_scalar(
        scalar_outcomes, scalar_undefined, aggregate_semantics
    )
