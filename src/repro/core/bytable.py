"""The generic by-table algorithm (paper Figure 1).

Under by-table semantics one mapping applies to the whole relation, so the
algorithm is: reformulate the query once per candidate mapping, answer each
reformulation as an ordinary (certain) aggregate query, and combine the
per-mapping results according to the chosen aggregate semantics
(``CombineResults`` in the paper).  The engine's by-table lane
(:func:`repro.core.execute._by_table_results`) runs that loop; this module
holds its executors and :func:`combine_results`.

Reformulated queries can be answered by either substrate:

* :func:`memory_executor` — the in-memory evaluator
  (:mod:`repro.core.eval`);
* :func:`sqlite_executor` — the SQLite backend, which is what gives the
  by-table path the "DBMS optimizations" scalability the paper reports.

Both produce identical answers (a tested invariant).
"""

from __future__ import annotations

import datetime
import math
from collections.abc import Callable, Mapping

from repro.core import guard as guardmod
from repro.core.answers import (
    AggregateAnswer,
    DistributionAnswer,
    ExpectedValueAnswer,
    GroupedAnswer,
    RangeAnswer,
)
from repro.core.eval import evaluate_certain
from repro.core.semantics import AggregateSemantics
from repro.exceptions import EvaluationError, UnsupportedQueryError
from repro.prob.distribution import DiscreteDistribution
from repro.schema.model import AttributeType, Relation
from repro.sql.ast import AggregateOp, AggregateQuery, SubquerySource
from repro.sql.render import executable_sql
from repro.storage.sqlite_backend import SQLiteBackend
from repro.storage.table import Table

#: A certain-query executor: reformulated query -> scalar or {group: value}.
CertainExecutor = Callable[[AggregateQuery], object]


def memory_executor(tables: Mapping[str, Table]) -> CertainExecutor:
    """An executor answering reformulated queries over in-memory tables."""

    def execute(query: AggregateQuery) -> object:
        return evaluate_certain(query, tables)

    return execute


def sqlite_executor(backend: SQLiteBackend) -> CertainExecutor:
    """An executor shipping reformulated queries to the SQLite backend.

    Dates come back as ISO TEXT from SQLite; group keys and MIN/MAX results
    over DATE columns are converted back to :class:`datetime.date` so both
    executors return identical values.
    """

    def execute(query: AggregateQuery) -> object:
        catalog = {
            name: backend.relation(name) for name in backend.relation_names
        }
        sql = executable_sql(query, catalog)
        rows = backend.query(sql)
        flat = query.source.query if isinstance(query.source, SubquerySource) else query
        relation = catalog[flat.source.name]
        convert_value = _value_converter(flat, relation)
        if isinstance(query.source, SubquerySource) or flat.group_by is None:
            if not rows:
                return None
            return convert_value(rows[0][-1])
        convert_key = _key_converter(flat, relation)
        return {convert_key(row[0]): convert_value(row[1]) for row in rows}

    return execute


def _value_converter(flat: AggregateQuery, relation: Relation):
    argument = flat.aggregate.argument
    needs_date = (
        argument is not None
        and flat.aggregate.op in (AggregateOp.MIN, AggregateOp.MAX)
        and argument.name in relation
        and relation.attribute(argument.name).type is AttributeType.DATE
    )

    def convert(value: object) -> object:
        if value is None:
            return None
        if needs_date:
            return datetime.date.fromisoformat(str(value))
        return value

    return convert


def _key_converter(flat: AggregateQuery, relation: Relation):
    group = flat.group_by
    is_date = (
        group is not None
        and group.name in relation
        and relation.attribute(group.name).type is AttributeType.DATE
    )

    def convert(key: object) -> object:
        if key is None or not is_date:
            return key
        return datetime.date.fromisoformat(str(key))

    return convert


def columnar_results(problem) -> list[tuple[object, float]] | None:
    """Steps 1-4 of Figure 1 read off an array-backed problem.

    ``problem`` is the :class:`~repro.core.vectorized.VectorizedProblem`
    of the same flat, ungrouped, non-DISTINCT query: its
    ``participation[j]`` mask holds exactly the rows whose reformulation
    under mapping ``j`` qualifies with a non-NULL argument, so each
    certain answer is one fold over the masked values — the same
    ``len``/``fsum``/``min``/``max`` :func:`repro.core.eval.apply_aggregate`
    applies, giving answers ``==`` to :func:`memory_executor`'s and of the
    same Python type.  Returns ``None`` (use an executor) when an INT
    column's SUM leaves the range where float64 holds it exactly.
    """
    guard = guardmod.current_guard()
    relation = problem.ctable.relation
    op = problem.op
    results: list[tuple[object, float]] = []
    for probability, mask, values, argument in zip(
        problem.probability_list,
        problem.participation,
        problem.values,
        problem.arguments,
    ):
        if guard is not None:
            guard.check_deadline()
        if op is AggregateOp.COUNT:
            results.append((int(mask.sum()), probability))
            continue
        selected = values[mask].tolist()
        if not selected:
            results.append((None, probability))
            continue
        if op is AggregateOp.AVG:
            results.append((math.fsum(selected) / len(selected), probability))
            continue
        if op is AggregateOp.SUM:
            value = math.fsum(selected)
        elif op is AggregateOp.MIN:
            value = min(selected)
        else:
            value = max(selected)
        if relation.attribute(argument).type is AttributeType.INT:
            if abs(value) >= _FLOAT_EXACT_LIMIT:
                return None
            value = int(value)
        results.append((value, probability))
    return results


#: Integers of smaller magnitude survive a float64 round trip exactly.
_FLOAT_EXACT_LIMIT = 2.0**53


def combine_scalar_results(
    results: list[tuple[float | None, float]],
    semantics: AggregateSemantics,
) -> AggregateAnswer:
    """``CombineResults`` of Figure 1 for one scalar answer per mapping.

    A ``None`` per-mapping value means the aggregate was undefined under
    that mapping (no qualifying tuples); the range/distribution report the
    defined values and record the undefined probability mass, and the
    expected value conditions on the aggregate being defined.
    """
    defined = [(v, p) for v, p in results if v is not None]
    undefined_mass = math.fsum(p for v, p in results if v is None)
    if semantics is AggregateSemantics.RANGE:
        if not defined:
            return RangeAnswer(None, None)
        values = [v for v, _ in defined]
        return RangeAnswer(min(values), max(values))
    if semantics is AggregateSemantics.DISTRIBUTION:
        if not defined:
            return DistributionAnswer(None, undefined_probability=1.0)
        distribution = DiscreteDistribution(defined, normalize=True)
        return DistributionAnswer(
            distribution, undefined_probability=undefined_mass
        )
    if semantics is AggregateSemantics.EXPECTED_VALUE:
        if not defined:
            return ExpectedValueAnswer(None)
        for v, _ in defined:
            if not isinstance(v, (int, float)):
                raise UnsupportedQueryError(
                    "the expected value needs a numeric aggregate, got "
                    f"{type(v).__name__}; use the range or distribution "
                    "semantics"
                )
        defined_mass = math.fsum(p for _, p in defined)
        value = math.fsum(v * p for v, p in defined) / defined_mass
        return ExpectedValueAnswer(value)
    raise EvaluationError(f"unknown aggregate semantics {semantics!r}")


def combine_results(
    results: list[tuple[object, float]],
    semantics: AggregateSemantics,
) -> AggregateAnswer:
    """``CombineResults`` for scalar or grouped per-mapping answers.

    For grouped answers the combination happens per group over the union of
    group keys; a mapping under which a group has no qualifying tuples (SQL
    omits the group entirely) contributes an undefined value for that group.
    """
    if not results:
        raise EvaluationError("no per-mapping results to combine")
    if not isinstance(results[0][0], dict):
        return combine_scalar_results(results, semantics)
    keys: dict[object, None] = {}
    for result, _ in results:
        if not isinstance(result, dict):
            raise EvaluationError(
                "cannot combine grouped and ungrouped per-mapping results"
            )
        for key in result:
            keys.setdefault(key, None)
    combined: dict[object, AggregateAnswer] = {}
    for key in keys:
        per_mapping = [(result.get(key), probability) for result, probability in results]
        combined[key] = combine_scalar_results(per_mapping, semantics)
    return GroupedAnswer(combined)
