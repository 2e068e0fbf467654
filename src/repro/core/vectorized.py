"""Vectorized (numpy) implementations of the PTIME by-tuple algorithms.

The paper's prototype was Java over PostgreSQL; a pure-Python per-tuple
loop pays ~1 microsecond of interpreter overhead per (tuple, mapping)
pair, which would cap the large-scale experiments (Figures 11-12 run to
millions of tuples) at unrealistic sizes.  This module reimplements the
by-tuple algorithms over the columnar storage layer
(:class:`~repro.storage.columnar.ColumnarTable`): conditions compile to
Kleene three-valued ``(true, unknown)`` mask pairs, contributions to
``(mappings x tuples)`` matrices, and the per-tuple folds to array
reductions.

It is an *optimization*, not a semantic variant: every kernel here is
**bit-identical** to its scalar counterpart in
:mod:`repro.core.bytuple_count` / ``bytuple_sum`` / ``bytuple_avg`` /
``bytuple_minmax`` (cross-checked by the lane-differential and oracle
suites).  The probability-weighted folds reach bit-identity by factoring
every per-row float reduction through the same primitives as the scalar
lane — ``math.fsum`` over identical addend multisets, the shared
:func:`~repro.core.bytuple_avg._greedy_extreme_mean` greedy, and a
participation-pattern dedup (rows with the same qualification pattern
share one exactly-computed occurrence probability).

Queries or data outside the vectorizable fragment — non-numeric or DATE
aggregate arguments, nested queries, a missing numpy — raise
:class:`VectorizationError` (a :class:`~repro.storage.columnar.ColumnarError`);
the by-tuple PTIME lane (:mod:`repro.core.execute`) then runs the row
walk instead.  NULLs and GROUP BY are *inside* the fragment: null masks
feed the three-valued compiler, and a grouped query sorts its arrays once
by the group key, so that each kernel answers every group in one call
over contiguous segments.
"""

from __future__ import annotations

import functools
import itertools
import math

from repro.core import guard as guardmod
from repro.core.answers import (
    DistributionAnswer,
    ExpectedValueAnswer,
    GroupedAnswer,
    RangeAnswer,
)
from repro.core.bytuple_avg import _greedy_extreme_mean
from repro.core.common import certain_group_source
from repro.core.semantics import AggregateSemantics
from repro.exceptions import EvaluationError, UnsupportedQueryError
from repro.obs import metrics
from repro.prob.distribution import DiscreteDistribution
from repro.schema.mapping import PMapping
from repro.schema.model import AttributeType
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
from repro.sql.conditions import _coerce_literal, _like_to_regex
from repro.sql.reformulate import reformulate_query
from repro.storage.columnar import HAVE_NUMPY, ColumnarError, ColumnarTable

try:  # pragma: no cover - exercised by the no-numpy CI job
    import numpy as np
except ImportError:  # pragma: no cover
    np = None

__all__ = [
    "ColumnarTable",
    "ColumnarError",
    "HAVE_NUMPY",
    "VectorizationError",
    "VectorizedProblem",
    "PROBLEM_KERNELS",
    "answer_problem",
    "run_grouped_vectorized",
]


class VectorizationError(ColumnarError):
    """The query or data falls outside the vectorizable fragment."""


# -- three-valued condition compiler ----------------------------------------
#
# Each helper returns a ``(true_mask, unknown_mask)`` pair mirroring the
# Kleene logic of the scalar tri-state predicates in
# :mod:`repro.sql.conditions`: a row is *true*, *unknown* (some NULL made
# the comparison undecidable), or *false* (neither mask set).  Masks are
# never mutated in place — subexpressions may share arrays.


def _bool_pair(ctable, true: bool, unknown: bool):
    n = ctable.row_count
    return (
        np.full(n, true, dtype=bool),
        np.full(n, unknown, dtype=bool),
    )


def _resolve_column(operand, ctable: ColumnarTable, binding: str):
    """The (values, nulls) arrays of a column operand."""
    if not isinstance(operand, ColumnRef):
        raise VectorizationError("expected a column operand")
    if operand.qualifier is not None and operand.qualifier != binding:
        raise VectorizationError(
            f"qualifier {operand.qualifier!r} does not match {binding!r}"
        )
    if not ctable.exact(operand.name):
        raise VectorizationError(
            f"column {operand.name!r} holds integers beyond the float64 "
            "exactness limit; only the scalar lane is exact there"
        )
    return ctable.column(operand.name), ctable.nulls(operand.name)


def _literal_for_column(
    value: object, column_name: str, ctable: ColumnarTable
) -> object:
    """Coerce a literal exactly as the scalar compiler would.

    Delegates to :func:`repro.sql.conditions._coerce_literal` (so type
    errors raise the same :class:`~repro.exceptions.EvaluationError` the
    scalar lane raises), then converts DATE values to the ordinals the
    columnar layer stores.
    """
    coerced = _coerce_literal(
        value, ctable.relation.attribute(column_name).type
    )
    if hasattr(coerced, "toordinal"):
        return coerced.toordinal()
    return coerced


def _apply_operator(operator: str, left, right):
    try:
        if operator == "=":
            return left == right
        if operator == "<>":
            return left != right
        if operator == "<":
            return left < right
        if operator == "<=":
            return left <= right
        if operator == ">":
            return left > right
        return left >= right
    except TypeError as error:
        # Mixed-dtype ordering (e.g. TEXT < REAL): decline; the scalar
        # fallback reproduces SQL's per-row error behaviour exactly.
        raise VectorizationError(
            f"comparison {operator!r} is not vectorizable here: {error}"
        ) from None


def _flip(operator: str) -> str:
    return {
        "<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "<>": "<>",
    }[operator]


def _masked(result, nulls, n):
    """Collapse a raw comparison result and a null mask to a (t, u) pair."""
    if nulls is None:
        return result, np.zeros(n, dtype=bool)
    return result & ~nulls, nulls


def _comparison_truth(condition: Comparison, ctable, binding):
    n = ctable.row_count
    left_is_column = isinstance(condition.left, ColumnRef)
    right_is_column = isinstance(condition.right, ColumnRef)
    if left_is_column and right_is_column:
        left, left_nulls = _resolve_column(condition.left, ctable, binding)
        right, right_nulls = _resolve_column(condition.right, ctable, binding)
        result = _apply_operator(condition.operator, left, right)
        if left_nulls is None and right_nulls is None:
            return result, np.zeros(n, dtype=bool)
        if left_nulls is None:
            nulls = right_nulls
        elif right_nulls is None:
            nulls = left_nulls
        else:
            nulls = left_nulls | right_nulls
        return result & ~nulls, nulls
    if left_is_column or right_is_column:
        if left_is_column:
            operand, literal = condition.left, condition.right
            operator = condition.operator
        else:
            operand, literal = condition.right, condition.left
            operator = _flip(condition.operator)
        column, nulls = _resolve_column(operand, ctable, binding)
        if not isinstance(literal, Literal):
            raise VectorizationError("expected a literal operand")
        value = _literal_for_column(literal.value, operand.name, ctable)
        if value is None:
            # NULL literal (an unmapped attribute reformulated away):
            # the comparison is unknown on every row.
            return _bool_pair(ctable, False, True)
        return _masked(_apply_operator(operator, column, value), nulls, n)
    if not isinstance(condition.left, Literal) or not isinstance(
        condition.right, Literal
    ):
        raise VectorizationError("expected literal operands")
    left_value = condition.left.value
    right_value = condition.right.value
    if left_value is None or right_value is None:
        return _bool_pair(ctable, False, True)
    constant = bool(
        _apply_operator(condition.operator, left_value, right_value)
    )
    return _bool_pair(ctable, constant, False)


def _between_truth(condition: BetweenPredicate, ctable, binding):
    operand = condition.operand
    if isinstance(operand, Literal):
        if operand.value is None:
            return _bool_pair(ctable, False, True)
        raise VectorizationError("BETWEEN over a literal is not vectorized")
    column, nulls = _resolve_column(operand, ctable, binding)
    low = _between_bound(condition.low, operand.name, ctable)
    high = _between_bound(condition.high, operand.name, ctable)
    if low is None or high is None:
        return _bool_pair(ctable, False, True)
    result = (column >= low) & (column <= high)
    if condition.negated:
        result = ~result
    return _masked(result, nulls, ctable.row_count)


def _between_bound(bound, column_name: str, ctable):
    if not isinstance(bound, Literal):
        raise VectorizationError("BETWEEN bounds must be literals")
    return _literal_for_column(bound.value, column_name, ctable)


def _in_truth(condition: InPredicate, ctable, binding):
    operand = condition.operand
    if isinstance(operand, Literal):
        if operand.value is None:
            return _bool_pair(ctable, False, True)
        raise VectorizationError("IN over a literal is not vectorized")
    column, nulls = _resolve_column(operand, ctable, binding)
    result = np.zeros(ctable.row_count, dtype=bool)
    for literal in condition.values:
        if not isinstance(literal, Literal):
            raise VectorizationError("IN members must be literals")
        value = _literal_for_column(literal.value, operand.name, ctable)
        if value is not None:
            result = result | (column == value)
    if condition.negated:
        result = ~result
    return _masked(result, nulls, ctable.row_count)


def _is_null_truth(condition: IsNullPredicate, ctable, binding):
    operand = condition.operand
    if isinstance(operand, Literal):
        is_null = operand.value is None
        return _bool_pair(ctable, is_null != condition.negated, False)
    _, nulls = _resolve_column(operand, ctable, binding)
    n = ctable.row_count
    if nulls is None:
        return _bool_pair(ctable, condition.negated, False)
    result = ~nulls if condition.negated else nulls
    return result, np.zeros(n, dtype=bool)


def _like_truth(condition: LikePredicate, ctable, binding):
    regex = _like_to_regex(condition.pattern)
    operand = condition.operand
    if isinstance(operand, Literal):
        if operand.value is None:
            return _bool_pair(ctable, False, True)
        matched = regex.match(str(operand.value)) is not None
        return _bool_pair(ctable, matched != condition.negated, False)
    column, nulls = _resolve_column(operand, ctable, binding)
    uniques, inverse = np.unique(column, return_inverse=True)
    matches = np.fromiter(
        (
            regex.match(str(ctable.python_value(operand.name, value)))
            is not None
            for value in uniques
        ),
        dtype=bool,
        count=len(uniques),
    )
    result = matches[inverse].reshape(column.shape)
    if condition.negated:
        result = ~result
    return _masked(result, nulls, ctable.row_count)


def _truth(condition: Condition | None, ctable: ColumnarTable, binding: str):
    """Compile a condition into a Kleene ``(true, unknown)`` mask pair."""
    n = ctable.row_count
    if condition is None:
        return np.ones(n, dtype=bool), np.zeros(n, dtype=bool)
    if isinstance(condition, Comparison):
        return _comparison_truth(condition, ctable, binding)
    if isinstance(condition, BooleanCondition):
        true, unknown = _truth(condition.operands[0], ctable, binding)
        for part in condition.operands[1:]:
            part_true, part_unknown = _truth(part, ctable, binding)
            if condition.operator == "AND":
                false = ~true & ~unknown
                part_false = ~part_true & ~part_unknown
                true, unknown = (
                    true & part_true,
                    (unknown | part_unknown) & ~false & ~part_false,
                )
            else:
                both_true = true | part_true
                true, unknown = (
                    both_true,
                    (unknown | part_unknown) & ~both_true,
                )
        return true, unknown
    if isinstance(condition, NotCondition):
        true, unknown = _truth(condition.operand, ctable, binding)
        return ~true & ~unknown, unknown
    if isinstance(condition, BetweenPredicate):
        return _between_truth(condition, ctable, binding)
    if isinstance(condition, InPredicate):
        return _in_truth(condition, ctable, binding)
    if isinstance(condition, IsNullPredicate):
        return _is_null_truth(condition, ctable, binding)
    if isinstance(condition, LikePredicate):
        return _like_truth(condition, ctable, binding)
    raise VectorizationError(f"condition {condition!r} is not vectorizable")


# -- the prepared problem ---------------------------------------------------


class VectorizedProblem:
    """Masks, values, and probabilities for one by-tuple query.

    ``participation[j]`` is the boolean row mask under mapping ``j`` —
    WHERE-condition true *and* aggregate argument non-NULL (SQL aggregates
    skip NULL arguments, matching the scalar ``contribution()``);
    ``values[j]`` the aggregate argument column under mapping ``j``
    (``None`` for COUNT, whose contribution is 1); ``arguments[j]`` the
    source column it reads (``None`` for ``COUNT(*)``).

    The rows fall into *segments*, one per answer, starting at ``starts``.
    A flat query is the one segment ``[0]`` (``order`` and ``groups`` are
    ``None``).  A GROUP BY query's arrays are permuted by ``order``, one
    stable sort on the group key, so each group is a contiguous segment;
    ``groups`` lists ``(key, segment)`` in the row walk's key order.
    """

    def __init__(
        self, ctable: ColumnarTable, pmapping: PMapping, query: AggregateQuery
    ) -> None:
        if np is None or ctable.backend != "numpy":
            raise VectorizationError(
                "the numpy columnar backend is unavailable; use the scalar "
                "algorithms"
            )
        if isinstance(query.source, SubquerySource):
            raise VectorizationError("nested queries are not vectorized")
        if query.aggregate.distinct and query.aggregate.op not in (
            AggregateOp.MIN,
            AggregateOp.MAX,
        ):
            raise UnsupportedQueryError(
                f"DISTINCT is not supported for by-tuple "
                f"{query.aggregate.op.value}"
            )
        if query.source.name != pmapping.target.name:
            raise UnsupportedQueryError(
                f"query reads from {query.source.name!r} but the p-mapping "
                f"targets {pmapping.target.name!r}"
            )
        self.op = query.aggregate.op
        self.ctable = ctable
        self.row_count = ctable.row_count
        self.probability_list: list[float] = list(pmapping.probabilities)
        self.probabilities = np.asarray(self.probability_list)
        self.participation: list = []
        self.values: list = []
        self.arguments: list[str | None] = []
        self.order = self.groups = None
        self.starts = np.zeros(1, dtype=np.intp)
        group_sources = set()
        for mapping, _ in pmapping:
            reformulated = reformulate_query(query, mapping, unmapped="null")
            binding = reformulated.source.binding_name
            if reformulated.group_by is not None:
                group_sources.add(reformulated.group_by.name)
            true_mask, _ = _truth(reformulated.where, ctable, binding)
            argument = reformulated.aggregate.argument
            self.arguments.append(None if argument is None else argument.name)
            if argument is None:
                self.participation.append(true_mask)
                self.values.append(None)
                continue
            if not ctable.exact(argument.name):
                raise VectorizationError(
                    f"aggregate argument {argument.name!r} holds integers "
                    "beyond the float64 exactness limit"
                )
            column = ctable.column(argument.name)
            nulls = ctable.nulls(argument.name)
            if nulls is not None:
                true_mask = true_mask & ~nulls
            self.participation.append(true_mask)
            if self.op is AggregateOp.COUNT:
                self.values.append(None)
            elif column.dtype.kind == "f":
                self.values.append(column)
            else:
                # TEXT, and DATE (whose answers must come back as dates,
                # not float ordinals): the scalar lane handles them.
                raise VectorizationError(
                    f"aggregate over non-numeric column {argument.name!r}"
                )
        if group_sources:
            self.order, self.starts, self.groups = _group_segments(
                ctable, group_sources
            )
            self.participation = [m[self.order] for m in self.participation]
            self.values = [v if v is None else v[self.order] for v in self.values]
        # Counted once the problem is built: a declined build scans nothing.
        metrics.inc("tuples.scanned", ctable.row_count)

    @property
    def mapping_count(self) -> int:
        return len(self.participation)

    def participation_matrix(self):
        """Boolean (mappings x tuples) participation matrix."""
        return np.vstack(self.participation)

    def value_matrix(self):
        """Float (mappings x tuples) contribution values (COUNT -> ones)."""
        rows = []
        for mask, values in zip(self.participation, self.values):
            rows.append(
                np.ones_like(mask, dtype=np.float64)
                if values is None
                else values
            )
        return np.vstack(rows)

    def iter_vectors(self):
        """Reconstruct scalar contribution vectors from the arrays.

        Serves consumers outside the array kernels (naive enumeration,
        the extension lanes) from an array-backed prepared query, in table
        row order (undoing a group-key sort).  Numeric values come back as
        Python floats; ``int == float`` equality keeps them interchangeable
        with the scalar lane's.
        """
        rows = slice(None) if self.order is None else np.argsort(self.order)
        masks = [mask[rows].tolist() for mask in self.participation]
        value_lists = [None if v is None else v[rows].tolist() for v in self.values]
        for i in range(self.row_count):
            yield tuple(
                (1 if value_lists[j] is None else value_lists[j][i])
                if masks[j][i]
                else None
                for j in range(len(masks))
            )


def _group_segments(ctable: ColumnarTable, group_sources: set[str]):
    """``(order, starts, groups)`` of one stable sort on the group key.

    Rows whose key is NULL sort last and form one ``None`` group;
    ``groups`` pairs each key with its segment, in order of the group's
    first row.
    """
    name = certain_group_source(group_sources)
    if not ctable.exact(name):
        raise VectorizationError(
            f"group key {name!r} holds integers beyond the float64 "
            "exactness limit"
        )
    column = ctable.column(name)
    nulls = ctable.nulls(name)
    if nulls is None:
        nulls = np.zeros(ctable.row_count, dtype=bool)
    order = np.lexsort((column, nulls))
    ordered = column[order]
    change = (ordered[1:] != ordered[:-1]) | np.diff(nulls[order])
    starts = np.flatnonzero(np.concatenate(([ctable.row_count > 0], change)))
    first_rows = order[starts]
    keys = [
        None if nulls[row] else ctable.python_value(name, column[row])
        for row in first_rows.tolist()
    ]
    groups = [(keys[s], s) for s in np.argsort(first_rows).tolist()]
    return order, starts, groups


# -- exact per-row occurrence probabilities ---------------------------------


def occurrence_array(problem: VectorizedProblem, *, sequential: bool = False):
    """Per-row participation probability, bit-identical to the scalar fold.

    With ``sequential=False`` (the default) each row's probability is what
    :meth:`~repro.core.common.PreparedTupleQuery.satisfaction_probability`
    returns: exactly 1.0 for a row qualifying under every mapping, else
    ``math.fsum`` of the qualifying mappings' probabilities.  With
    ``sequential=True`` it is the left-to-right ``+=`` fold (no snapping)
    that :func:`~repro.core.bytuple_sum.expected_sum_kernel` uses for its
    empty-world term.

    Rows sharing a participation pattern share one exactly-computed value
    (there are at most ``2**m`` patterns, and in practice only a handful),
    so the whole column costs one ``numpy.unique`` plus a tiny Python loop.
    """
    masks = problem.participation
    if len(masks) > 62:  # pragma: no cover - no int64 code: one pattern per row
        patterns = problem.participation_matrix().T.tolist()
        inverse = np.arange(problem.row_count)
    else:
        codes = np.zeros(problem.row_count, dtype=np.int64)
        for j, mask in enumerate(masks):
            codes |= mask.astype(np.int64) << j
        uniques, inverse = np.unique(codes, return_inverse=True)
        patterns = [
            [code >> j & 1 for j in range(len(masks))] for code in uniques.tolist()
        ]
    per_pattern = np.empty(len(patterns), dtype=np.float64)
    for k, pattern in enumerate(patterns):
        selected = [p for p, bit in zip(problem.probability_list, pattern) if bit]
        if sequential:
            occurrence = 0.0
            for p in selected:
                occurrence += p
            per_pattern[k] = occurrence
        elif all(pattern):
            per_pattern[k] = 1.0
        else:
            per_pattern[k] = math.fsum(selected)
    return per_pattern[inverse]


# -- kernels over a prepared problem ----------------------------------------
#
# Each ``*_on`` kernel takes a built :class:`VectorizedProblem` and its
# segment starts, and returns one answer per segment, equal to the row
# walk's: ``ufunc.reduceat`` reductions and per-segment ``math.fsum`` sums.


def _reduce(ufunc, array, starts, identity):
    """``ufunc`` folded over each segment of ``array`` (``identity``
    answers a flat problem with no rows, which ``reduceat`` rejects)."""
    if len(starts) == 1:
        return np.array([ufunc.reduce(array, initial=identity)])
    return ufunc.reduceat(array, starts)


def _counts(mask, starts):
    """How many rows of each segment ``mask`` selects."""
    if len(starts) == 1:
        return np.array([np.count_nonzero(mask)])
    return np.add.reduceat(mask, starts, dtype=np.intp)


def _segment_lists(array, counts) -> list[list]:
    """Per-segment Python lists of ``array``, which holds ``counts[s]``
    consecutive items for segment ``s`` (a boolean-indexed row array)."""
    items = array.tolist()
    if len(counts) == 1:
        return [items]
    stops = np.cumsum(counts).tolist()
    return [items[a:b] for a, b in zip([0] + stops[:-1], stops)]


def _row_stats(problem: VectorizedProblem):
    """(satisfiable, forced, vmin, vmax) per-row summaries."""
    participation = problem.participation_matrix()
    values = problem.value_matrix()
    satisfiable = participation.any(axis=0)
    forced = participation.all(axis=0)
    vmin = np.where(participation, values, np.inf).min(axis=0)
    vmax = np.where(participation, values, -np.inf).max(axis=0)
    return satisfiable, forced, vmin, vmax


def range_count_on(problem: VectorizedProblem, starts) -> list[RangeAnswer]:
    """The Figure 2 fold over a prepared problem (exact integers)."""
    per_tuple = problem.participation_matrix().sum(axis=0)
    lows = _counts(per_tuple == problem.mapping_count, starts).tolist()
    ups = _counts(per_tuple > 0, starts).tolist()
    return [RangeAnswer(low, up) for low, up in zip(lows, ups)]


def _count_distribution_dp_arrays(
    occurrence, starts
) -> list[DiscreteDistribution]:
    """The Figure 3 DP over every segment of an occurrence array at once.

    Per segment, bit for bit :func:`~repro.core.bytuple_count.count_distribution_dp`,
    with its validation, guardrail checks and ``count_dp.*`` accounting.
    Step ``k`` folds the ``k``-th qualifying row of each segment that has
    one, in three in-place operations on a (segments x width) block.
    Segments are ranked by qualifying count, so the live ones are a prefix
    of the block; when the block doubles its width it keeps only the live
    segments, so memory stays linear in the rows.  The last live segment
    (a flat query's only one) folds on as a 1-D row.
    """
    guard = guardmod.current_guard()
    outside = (occurrence < -1e-12) | (occurrence > 1.0 + 1e-12)
    if outside.any():
        raise EvaluationError(
            f"occurrence probability {float(occurrence[outside][0])} "
            "outside [0, 1]"
        )
    occurrence = np.clip(occurrence, 0.0, 1.0)
    qualifying = occurrence > 0.0
    counts = _counts(qualifying, starts)
    rank = np.argsort(-counts, kind="stable")
    position = np.argsort(rank)
    # Step-major order: step k's run holds the k-th qualifying row of
    # each live segment, in rank order.
    step = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    order = np.argsort(step * rank.size + np.repeat(position, counts), kind="stable")
    values = occurrence[qualifying][order]
    # live[k]: the segments with at least k qualifying rows.
    live = np.cumsum(np.bincount(counts)[::-1])[::-1].tolist() + [0]
    rank = rank.tolist()
    rows: list = [None] * len(rank)
    block = np.zeros((len(rank), 2))
    block[:, 0] = 1.0
    head = np.empty_like(block)
    done, offset, cells, k, n = len(rank), 0, 0, 0, 0
    for k, n in enumerate(live[1:], 1):
        if n < done:  # segments with k - 1 qualifying rows are complete
            for r, row in zip(rank[n:done], block[n:done, :k].tolist()):
                rows[r] = row
            done = n
        if n < 2:
            break
        if guard is not None:
            guard.check_deadline()
            guard.note_support(k + 1)
        if k >= block.shape[1]:  # double the width
            grown = np.zeros((n, 2 * k + 1))
            grown[:, :k] = block[:n, :k]
            block, head = grown, np.empty_like(grown)
        q = values[offset : offset + n, None]
        offset += n
        # P'(j) = P(j) * notOcc + P(j-1) * occ  (paper Figure 3, lines 6-9)
        np.multiply(block[:n, :k], q, out=head[:n, :k])
        block[:n, :k] *= 1.0 - q
        block[:n, 1 : k + 1] += head[:n, :k]
        cells += n * (k + 1)
    if n == 1:  # the last live segment folds on alone, as a 1-D row
        row = np.zeros(len(live) - 1)
        row[:k] = block[0, :k]
        carry = np.empty_like(row)
        for q in values[offset:].tolist():
            if guard is not None:
                guard.check_deadline()
                guard.note_support(k + 1)
            np.multiply(row[:k], q, out=carry[:k])
            row[:k] *= 1.0 - q
            row[1 : k + 1] += carry[:k]
            k += 1
            cells += k
        rows[rank[0]] = row.tolist()
    metrics.inc("count_dp.rows", int(occurrence.size))
    metrics.inc("count_dp.cells", cells)
    for count in counts.tolist():
        metrics.observe("count_dp.width", count + 1)
    return [
        DiscreteDistribution((count, p) for count, p in enumerate(row) if p > 0.0)
        for row in rows
    ]


def distribution_count_on(
    problem: VectorizedProblem, starts
) -> list[DistributionAnswer]:
    """ByTuplePDCOUNT over a prepared problem (every row; one that can
    never qualify leaves the DP as it is, exactly as in the scalar
    :func:`distribution_count_kernel`)."""
    distributions = _count_distribution_dp_arrays(occurrence_array(problem), starts)
    return [DistributionAnswer(distribution) for distribution in distributions]


def expected_count_on(
    problem: VectorizedProblem, starts
) -> list[ExpectedValueAnswer]:
    """Expected COUNT by linearity (the engine's scalar-kernel route)."""
    rows = np.diff(starts, append=problem.row_count)
    return [
        ExpectedValueAnswer(math.fsum(occurrence))
        for occurrence in _segment_lists(occurrence_array(problem), rows)
    ]


def range_sum_on(problem: VectorizedProblem, starts) -> list[RangeAnswer]:
    """The tightened Figure 4 fold; ``fsum`` of the same per-row
    contributions the scalar kernel feeds its
    :class:`~repro.core.exactsum.ExactSum`."""
    satisfiable, forced, vmin, vmax = _row_stats(problem)
    low_contrib = np.where(forced, vmin, np.minimum(vmin, 0.0))
    up_contrib = np.where(forced, vmax, np.maximum(vmax, 0.0))
    # Whether the world realizing each bound keeps a qualifying tuple.
    low_nonempty = _reduce(np.logical_or, forced | (low_contrib < 0.0), starts, False)
    up_nonempty = _reduce(np.logical_or, forced | (up_contrib > 0.0), starts, False)
    defined = _counts(satisfiable, starts)
    return [
        RangeAnswer(
            math.fsum(lows) if low_ok else single_low,
            math.fsum(ups) if up_ok else single_up,
        )
        if lows
        else RangeAnswer(None, None)
        for lows, ups, low_ok, up_ok, single_low, single_up in zip(
            _segment_lists(low_contrib[satisfiable], defined),
            _segment_lists(up_contrib[satisfiable], defined),
            low_nonempty.tolist(),
            up_nonempty.tolist(),
            _reduce(np.minimum, vmin, starts, math.inf).tolist(),
            _reduce(np.maximum, vmax, starts, -math.inf).tolist(),
        )
    ]


def _expected_sum(terms: tuple, log_terms: list, certain: bool):
    """One segment's conditional expected SUM from its addend lists."""
    if not any(terms):
        return None
    empty_world_probability = 0.0 if certain else math.exp(math.fsum(log_terms))
    if empty_world_probability >= 1.0:
        return None
    return math.fsum(itertools.chain(*terms)) / (1.0 - empty_world_probability)


def expected_sum_on(
    problem: VectorizedProblem, starts
) -> list[ExpectedValueAnswer]:
    """Exact conditional expected SUM, matching
    :func:`~repro.core.bytuple_sum.expected_sum_kernel` bit for bit.

    The numerator's ``P(m_j) * contribution`` addends and the empty
    world's ``log1p`` terms are ``fsum``-ed per segment: the scalar
    kernel folds the same multisets through
    :class:`~repro.core.exactsum.ExactSum`, so any order gives the
    identical correctly rounded totals.
    """
    addends = [  # per mapping, per segment
        _segment_lists((probability * values)[mask], _counts(mask, starts))
        for probability, mask, values in zip(
            problem.probability_list, problem.participation, problem.value_matrix()
        )
    ]
    occurrence = occurrence_array(problem, sequential=True)
    partial = (occurrence > 0.0) & (occurrence < 1.0)
    uniques, inverse = np.unique(occurrence[partial], return_inverse=True)
    logs = np.array([math.log1p(-value) for value in uniques.tolist()])
    return [
        ExpectedValueAnswer(_expected_sum(*segment))
        for segment in zip(
            zip(*addends),
            _segment_lists(logs[inverse], _counts(partial, starts)),
            _reduce(np.logical_or, occurrence >= 1.0, starts, False).tolist(),
        )
    ]


def range_avg_on(problem: VectorizedProblem, starts) -> list[RangeAnswer]:
    """The tight AVG range through the shared scalar greedy."""
    satisfiable, forced, vmin, vmax = _row_stats(problem)
    optional = satisfiable & ~forced
    forced_counts = _counts(forced, starts)
    optional_counts = _counts(optional, starts)
    answers = []
    for forced_min, forced_max, optional_min, optional_max in zip(
        _segment_lists(vmin[forced], forced_counts),
        _segment_lists(vmax[forced], forced_counts),
        _segment_lists(vmin[optional], optional_counts),
        _segment_lists(vmax[optional], optional_counts),
    ):
        count = len(forced_min)
        low = _greedy_extreme_mean(
            math.fsum(forced_min), count, optional_min, minimize=True
        )
        high = _greedy_extreme_mean(
            math.fsum(forced_max), count, optional_max, minimize=False
        )
        answers.append(RangeAnswer(low, high))
    return answers


def range_minmax_on(
    problem: VectorizedProblem, starts, *, maximize: bool
) -> list[RangeAnswer]:
    """The tightened Figure 5 fold (exact comparisons only).

    Bounds over INT arguments come back as Python ints, as the row walk
    returns them (INT columns past 2**53 never reach here).
    """
    satisfiable, forced, vmin, vmax = _row_stats(problem)
    types = {problem.ctable.relation.attribute(a).type for a in problem.arguments}
    cast = int if types == {AttributeType.INT} else float
    lowest = _reduce(np.minimum, vmin, starts, math.inf)
    highest = _reduce(np.maximum, vmax, starts, -math.inf)
    # Inner bound: the extreme forced value, else the least extreme value.
    if maximize:
        inner = _reduce(np.maximum, np.where(forced, vmin, -np.inf), starts, -math.inf)
        outer, unforced = highest, lowest
    else:
        inner = _reduce(np.minimum, np.where(forced, vmax, np.inf), starts, math.inf)
        outer, unforced = lowest, highest
    inner = np.where(_reduce(np.logical_or, forced, starts, False), inner, unforced)
    answers = []
    for defined, bound, extreme in zip(
        _reduce(np.logical_or, satisfiable, starts, False).tolist(),
        outer.tolist(),
        inner.tolist(),
    ):
        bounds = (cast(extreme), cast(bound)) if defined else (None, None)
        answers.append(RangeAnswer(*(bounds if maximize else bounds[::-1])))
    return answers


#: The array kernel of each by-tuple PTIME cell, keyed by ``(aggregate
#: operator, aggregate semantics)``: the one table from cell to kernel.
#: Each consumes a built :class:`VectorizedProblem` and its segment starts.
PROBLEM_KERNELS = {
    (AggregateOp.COUNT, AggregateSemantics.RANGE): range_count_on,
    (AggregateOp.COUNT, AggregateSemantics.DISTRIBUTION):
        distribution_count_on,
    (AggregateOp.COUNT, AggregateSemantics.EXPECTED_VALUE): expected_count_on,
    (AggregateOp.SUM, AggregateSemantics.RANGE): range_sum_on,
    (AggregateOp.SUM, AggregateSemantics.EXPECTED_VALUE): expected_sum_on,
    (AggregateOp.AVG, AggregateSemantics.RANGE): range_avg_on,
    (AggregateOp.MIN, AggregateSemantics.RANGE):
        functools.partial(range_minmax_on, maximize=False),
    (AggregateOp.MAX, AggregateSemantics.RANGE):
        functools.partial(range_minmax_on, maximize=True),
}


def answer_problem(
    problem: VectorizedProblem, aggregate_semantics: AggregateSemantics
):
    """Answer one by-tuple PTIME cell with one kernel call over a problem
    (a GROUP BY query's answers in first-appearance key order).

    Raises :class:`VectorizationError` for a cell without an array kernel.
    """
    kernel = PROBLEM_KERNELS.get((problem.op, aggregate_semantics))
    if kernel is None:
        raise VectorizationError(
            f"no array kernel for by-tuple {problem.op.value} under "
            f"{aggregate_semantics.value}"
        )
    answers = kernel(problem, problem.starts)
    if problem.groups is None:
        return answers[0]
    return GroupedAnswer({key: answers[s] for key, s in problem.groups})


def run_grouped_vectorized(
    ctable: ColumnarTable,
    pmapping: PMapping,
    query: AggregateQuery,
    aggregate_semantics: AggregateSemantics,
):
    """Answer one by-tuple PTIME cell over a columnar snapshot.

    The cell is the query's aggregate operator under
    ``aggregate_semantics``; :func:`answer_problem` runs its
    :data:`PROBLEM_KERNELS` entry once over a :class:`VectorizedProblem`
    built for the call, whose segments are the GROUP BY groups (one
    segment for a flat query).

    Raises :class:`VectorizationError` for a cell without an array kernel
    and for queries or data outside the vectorizable fragment.
    """
    return answer_problem(
        VectorizedProblem(ctable, pmapping, query), aggregate_semantics
    )
