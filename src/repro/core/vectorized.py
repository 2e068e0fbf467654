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
:func:`~repro.core.bytuple_avg._greedy_extreme_mean_from` greedy, and a
participation-pattern dedup (rows with the same qualification pattern
share one exactly-computed occurrence probability).

Queries or data outside the vectorizable fragment — non-numeric or DATE
aggregate arguments, nested queries, a missing numpy — raise
:class:`VectorizationError` (a :class:`~repro.storage.columnar.ColumnarError`);
the by-tuple PTIME lane (:mod:`repro.core.execute`) then runs the row
walk instead.  NULLs and GROUP BY are *inside* the fragment: null masks
feed the three-valued compiler, and grouped queries partition the column
arrays per group key.
"""

from __future__ import annotations

import functools
import math

from repro.core import guard as guardmod
from repro.core.answers import (
    DistributionAnswer,
    ExpectedValueAnswer,
    GroupedAnswer,
    RangeAnswer,
)
from repro.core.bytuple_avg import _greedy_extreme_mean_from
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
    "MIN_MEAN_GROUP_ROWS",
    "PROBLEM_KERNELS",
    "check_group_sizes",
    "group_problems",
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
    """Masks, values, and probabilities for one flat by-tuple query.

    ``participation[j]`` is the boolean row mask under mapping ``j`` —
    WHERE-condition true *and* aggregate argument non-NULL (SQL aggregates
    skip NULL arguments, matching the scalar ``contribution()``);
    ``values[j]`` the aggregate argument column under mapping ``j``
    (``None`` for COUNT, whose contribution is 1); ``arguments[j]`` the
    source column it reads (``None`` for ``COUNT(*)``).
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
        for mapping, _ in pmapping:
            reformulated = reformulate_query(query, mapping, unmapped="null")
            binding = reformulated.source.binding_name
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
        # Counted once the problem is built: a declined build scans nothing.
        metrics.inc("tuples.scanned", ctable.row_count)

    def take(self, rows) -> "VectorizedProblem":
        """The sub-problem over ``rows`` (an index array or a slice).

        Shares ``ctable`` (and so its relation) with this problem; only
        the masks and value columns are cut.
        """
        sub = object.__new__(VectorizedProblem)
        sub.op = self.op
        sub.ctable = self.ctable
        sub.probability_list = self.probability_list
        sub.probabilities = self.probabilities
        sub.arguments = self.arguments
        sub.participation = [mask[rows] for mask in self.participation]
        sub.values = [None if v is None else v[rows] for v in self.values]
        sub.row_count = int(sub.participation[0].size)
        return sub

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
        the extension lanes) from an array-backed prepared query.  Numeric values come back as Python floats; ``int == float``
        equality keeps them interchangeable with the scalar lane's.
        """
        masks = [mask.tolist() for mask in self.participation]
        value_lists = [
            None if values is None else values.tolist()
            for values in self.values
        ]
        for i in range(self.row_count):
            yield tuple(
                (1 if value_lists[j] is None else value_lists[j][i])
                if masks[j][i]
                else None
                for j in range(len(masks))
            )


# -- exact per-row occurrence probabilities ---------------------------------


def _pattern_codes(problem: VectorizedProblem):
    """Per-row participation patterns as int64 bit codes, or None (m > 62)."""
    masks = problem.participation
    if len(masks) > 62:
        return None
    codes = np.zeros(problem.row_count, dtype=np.int64)
    for j, mask in enumerate(masks):
        codes |= mask.astype(np.int64) << j
    return codes


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
    probabilities = problem.probability_list
    codes = _pattern_codes(problem)
    if codes is None:  # pragma: no cover - more than 62 candidate mappings
        out = np.empty(problem.row_count, dtype=np.float64)
        for i in range(problem.row_count):
            selected = [
                p for p, mask in zip(probabilities, masks) if mask[i]
            ]
            if sequential:
                occurrence = 0.0
                for p in selected:
                    occurrence += p
                out[i] = occurrence
            elif len(selected) == len(masks):
                out[i] = 1.0
            else:
                out[i] = math.fsum(selected)
        return out
    uniques, inverse = np.unique(codes, return_inverse=True)
    full_pattern = (1 << len(masks)) - 1
    per_pattern = np.empty(len(uniques), dtype=np.float64)
    for k, code in enumerate(uniques.tolist()):
        selected = [
            p for j, p in enumerate(probabilities) if (code >> j) & 1
        ]
        if sequential:
            occurrence = 0.0
            for p in selected:
                occurrence += p
            per_pattern[k] = occurrence
        elif code == full_pattern:
            per_pattern[k] = 1.0
        else:
            per_pattern[k] = math.fsum(selected)
    return per_pattern[inverse]


# -- kernels over a prepared problem ----------------------------------------
#
# Each ``*_on`` kernel consumes a built :class:`VectorizedProblem` and
# reproduces its scalar counterpart's float arithmetic exactly;
# :func:`run_grouped_vectorized` builds the problem (and fans out over
# GROUP BY groups) for one-shot callers.


def _row_stats(problem: VectorizedProblem):
    """(satisfiable, forced, vmin, vmax) per-row summaries."""
    participation = problem.participation_matrix()
    values = problem.value_matrix()
    satisfiable = participation.any(axis=0)
    forced = participation.all(axis=0)
    vmin = np.where(participation, values, np.inf).min(axis=0)
    vmax = np.where(participation, values, -np.inf).max(axis=0)
    return satisfiable, forced, vmin, vmax


def range_count_on(problem: VectorizedProblem) -> RangeAnswer:
    """The Figure 2 fold over a prepared problem (exact integers)."""
    participation = problem.participation_matrix()
    per_tuple = participation.sum(axis=0)
    low = int((per_tuple == problem.mapping_count).sum())
    up = int((per_tuple > 0).sum())
    return RangeAnswer(low, up)


def _count_distribution_dp_arrays(occurrence) -> DiscreteDistribution:
    """The Figure 3 DP over an occurrence array, matching
    :func:`~repro.core.bytuple_count.count_distribution_dp` bit for bit —
    including its guardrail checks, validation, and ``count_dp.*``
    metric accounting — while folding each row as one vector operation.
    """
    guard = guardmod.current_guard()
    n = int(occurrence.size)
    probabilities = np.zeros(n + 1)
    probabilities[0] = 1.0
    filled = 1
    dp_cells = 0
    for occ in occurrence.tolist():
        if guard is not None:
            guard.check_deadline()
            guard.note_support(filled + 1)
        if not -1e-12 <= occ <= 1.0 + 1e-12:
            raise EvaluationError(
                f"occurrence probability {occ} outside [0, 1]"
            )
        occ = min(1.0, max(0.0, occ))
        not_occ = 1.0 - occ
        segment = probabilities[: filled + 1]
        shifted = np.empty_like(segment)
        shifted[0] = 0.0
        shifted[1:] = probabilities[:filled]
        np.multiply(segment, not_occ, out=segment)
        segment += shifted * occ
        filled += 1
        dp_cells += filled
    metrics.inc("count_dp.rows", n)
    metrics.inc("count_dp.cells", dp_cells)
    metrics.observe("count_dp.width", filled)
    return DiscreteDistribution(
        (
            (count, float(p))
            for count, p in enumerate(probabilities[:filled].tolist())
            if p > 0.0
        )
    )


def distribution_count_on(problem: VectorizedProblem) -> DistributionAnswer:
    """ByTuplePDCOUNT over a prepared problem (all rows, zeros included,
    exactly like the scalar :func:`distribution_count_kernel`)."""
    return DistributionAnswer(
        _count_distribution_dp_arrays(occurrence_array(problem))
    )


def expected_count_on(problem: VectorizedProblem) -> ExpectedValueAnswer:
    """Expected COUNT by linearity (the engine's scalar-kernel route)."""
    return ExpectedValueAnswer(
        math.fsum(occurrence_array(problem).tolist())
    )


def range_sum_on(problem: VectorizedProblem) -> RangeAnswer:
    """The tightened Figure 4 fold; ``fsum`` of the same per-row
    contributions the scalar kernel feeds its
    :class:`~repro.core.exactsum.ExactSum`."""
    satisfiable, forced, vmin, vmax = _row_stats(problem)
    if not satisfiable.any():
        return RangeAnswer(None, None)
    low_contrib = np.where(forced, vmin, np.minimum(vmin, 0.0))[satisfiable]
    up_contrib = np.where(forced, vmax, np.maximum(vmax, 0.0))[satisfiable]
    low = math.fsum(low_contrib.tolist())
    up = math.fsum(up_contrib.tolist())
    has_forced = bool(forced.any())
    low_world_nonempty = has_forced or bool((low_contrib < 0.0).any())
    up_world_nonempty = has_forced or bool((up_contrib > 0.0).any())
    final_low = low if low_world_nonempty else float(vmin[satisfiable].min())
    final_up = up if up_world_nonempty else float(vmax[satisfiable].max())
    return RangeAnswer(final_low, final_up)


def _expected_sum_terms(problem: VectorizedProblem):
    """The ``P(m_j) * contribution`` addends of the expected-SUM numerator.

    The scalar kernel folds them row-major through an
    :class:`~repro.core.exactsum.ExactSum`; ``math.fsum`` over the same
    multiset (any order) yields the identical correctly-rounded total.
    """
    for probability, mask, values in zip(
        problem.probability_list, problem.participation, problem.values
    ):
        if values is None:
            for _ in range(int(mask.sum())):
                yield probability
        else:
            for value in values[mask].tolist():
                yield probability * value


def _log_empty_terms(problem: VectorizedProblem):
    """(certain_empty_impossible, per-row log1p terms) of the empty world."""
    occurrence = occurrence_array(problem, sequential=True)
    certain = bool((occurrence >= 1.0).any())
    partial = occurrence[(occurrence > 0.0) & (occurrence < 1.0)]
    uniques, inverse = np.unique(partial, return_inverse=True)
    logs = np.array(
        [math.log1p(-value) for value in uniques.tolist()], dtype=np.float64
    )
    terms = logs[inverse] if uniques.size else partial
    return certain, terms


def expected_sum_on(problem: VectorizedProblem) -> ExpectedValueAnswer:
    """Exact conditional expected SUM, matching
    :func:`~repro.core.bytuple_sum.expected_sum_kernel` bit for bit."""
    if not any(bool(mask.any()) for mask in problem.participation):
        return ExpectedValueAnswer(None)
    total = math.fsum(_expected_sum_terms(problem))
    certain_empty_impossible, log_terms = _log_empty_terms(problem)
    empty_world_probability = (
        0.0
        if certain_empty_impossible
        else math.exp(math.fsum(log_terms.tolist()))
    )
    if empty_world_probability >= 1.0:
        return ExpectedValueAnswer(None)
    return ExpectedValueAnswer(total / (1.0 - empty_world_probability))


def range_avg_on(problem: VectorizedProblem) -> RangeAnswer:
    """The tight AVG range through the shared scalar greedy."""
    satisfiable, forced, vmin, vmax = _row_stats(problem)
    optional = satisfiable & ~forced
    forced_count = int(forced.sum())
    low = _greedy_extreme_mean_from(
        math.fsum(vmin[forced].tolist()),
        forced_count,
        vmin[optional].tolist(),
        minimize=True,
    )
    high = _greedy_extreme_mean_from(
        math.fsum(vmax[forced].tolist()),
        forced_count,
        vmax[optional].tolist(),
        minimize=False,
    )
    if low is None:
        return RangeAnswer(None, None)
    return RangeAnswer(low, high)


def range_minmax_on(
    problem: VectorizedProblem, *, maximize: bool
) -> RangeAnswer:
    """The tightened Figure 5 fold (exact comparisons only).

    Bounds over INT arguments come back as Python ints, as the row walk
    returns them (INT columns past 2**53 never reach here).
    """
    satisfiable, forced, vmin, vmax = _row_stats(problem)
    if not satisfiable.any():
        return RangeAnswer(None, None)
    types = {problem.ctable.relation.attribute(a).type for a in problem.arguments}
    cast = int if types == {AttributeType.INT} else float
    if maximize:
        outer = cast(vmax[satisfiable].max())
        if forced.any():
            inner = cast(vmin[forced].max())
        else:
            inner = cast(vmin[satisfiable].min())
        return RangeAnswer(inner, outer)
    outer = cast(vmin[satisfiable].min())
    if forced.any():
        inner = cast(vmax[forced].min())
    else:
        inner = cast(vmax[satisfiable].max())
    return RangeAnswer(outer, inner)


#: The array kernel of each flat by-tuple PTIME cell, keyed by
#: ``(aggregate operator, aggregate semantics)``: the one table from cell
#: to kernel.  Each consumes a built :class:`VectorizedProblem`.
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


def run_grouped_vectorized(
    ctable: ColumnarTable,
    pmapping: PMapping,
    query: AggregateQuery,
    aggregate_semantics: AggregateSemantics,
    *,
    min_mean_group_rows: int = 0,
):
    """Answer one by-tuple PTIME cell over a columnar snapshot.

    The cell is the query's aggregate operator under
    ``aggregate_semantics``; its :data:`PROBLEM_KERNELS` entry runs over a
    :class:`VectorizedProblem` built for the call.  GROUP BY fans out like
    :func:`repro.core.common.run_possibly_grouped`: the kernel runs once per
    :func:`group_problems` view (``min_mean_group_rows`` is passed on).

    Raises :class:`VectorizationError` for a cell without an array kernel
    and for queries or data outside the vectorizable fragment.

    Examples
    --------
    >>> run_grouped_vectorized(ctable, pm,
    ...     parse_query("SELECT MAX(price) FROM T2 GROUP BY auctionID"),
    ...     AggregateSemantics.RANGE)                      # doctest: +SKIP
    GroupedAnswer({34: RangeAnswer(...), 38: RangeAnswer(...)})
    """
    kernel = PROBLEM_KERNELS.get((query.aggregate.op, aggregate_semantics))
    if kernel is None:
        raise VectorizationError(
            f"no array kernel for by-tuple {query.aggregate.op.value} under "
            f"{aggregate_semantics.value}"
        )
    if query.group_by is None:
        return kernel(VectorizedProblem(ctable, pmapping, query))
    groups = group_problems(
        ctable, pmapping, query, min_mean_group_rows=min_mean_group_rows
    )
    return GroupedAnswer({key: kernel(group) for key, group in groups})


#: The smallest mean GROUP BY group size at which the by-tuple PTIME lane
#: runs the array kernels per group.  Each kernel call costs tens of
#: microseconds of numpy overhead whatever the group size, so many tiny
#: groups fold faster through the row walk (the measurements are in
#: docs/columnar.md).
MIN_MEAN_GROUP_ROWS = 32


def check_group_sizes(rows: int, groups: int, min_mean_group_rows: int) -> None:
    """Raise :class:`VectorizationError` when groups average too few rows."""
    if rows < min_mean_group_rows * groups:
        raise VectorizationError(
            f"{groups} groups over {rows} rows average fewer than "
            f"{min_mean_group_rows} rows"
        )


def group_problems(
    ctable: ColumnarTable,
    pmapping: PMapping,
    query: AggregateQuery,
    *,
    min_mean_group_rows: int = 0,
) -> list[tuple[object, VectorizedProblem]]:
    """``(group key, sub-problem)`` per GROUP BY group, in key order.

    The grouping attribute must be *certain* (mapped to the same source
    column by every candidate mapping).  One :class:`VectorizedProblem` is
    built over the whole snapshot; a stable sort on the group-key column
    then cuts it into per-group views, so each group keeps its rows in
    table order.  Rows whose group key is NULL form a trailing ``None``
    group, exactly like the scalar partitioner.  Raises
    :class:`VectorizationError`, before building anything, when the groups
    average fewer than ``min_mean_group_rows`` rows.
    """
    group_sources = {
        reformulate_query(query, mapping, unmapped="null").group_by.name
        for mapping, _ in pmapping
    }
    if len(group_sources) > 1:
        raise UnsupportedQueryError(
            "GROUP BY attribute maps to different source attributes "
            f"under different mappings ({sorted(group_sources)}); "
            "by-tuple grouping requires a certain grouping attribute"
        )
    name = next(iter(group_sources))
    column = ctable.column(name)
    nulls = ctable.nulls(name)
    has_null_group = nulls is not None and bool(nulls.any())
    rows = (
        np.arange(ctable.row_count) if nulls is None else np.flatnonzero(~nulls)
    )
    order = rows[np.argsort(column[rows], kind="stable")]
    keys, starts = np.unique(column[order], return_index=True)
    check_group_sizes(
        ctable.row_count, keys.size + has_null_group, min_mean_group_rows
    )
    problem = VectorizedProblem(ctable, pmapping, query)
    ordered = problem.take(order)
    bounds = starts.tolist() + [order.size]
    groups = [
        (ctable.python_value(name, key), ordered.take(slice(start, stop)))
        for key, start, stop in zip(keys.tolist(), bounds, bounds[1:])
    ]
    if has_null_group:
        groups.append((None, problem.take(np.flatnonzero(nulls))))
    return groups
