"""Vectorized (numpy) implementations of the PTIME by-tuple algorithms.

The paper's prototype was Java over PostgreSQL; a pure-Python per-tuple
loop pays ~1 microsecond of interpreter overhead per (tuple, mapping)
pair, which would cap the large-scale experiments (Figures 11-12 run to
millions of tuples) at unrealistic sizes.  This module reimplements the
by-tuple algorithms over the columnar storage layer
(:class:`~repro.storage.columnar.ColumnarTable`): conditions compile to
Kleene three-valued ``(true, unknown)`` mask pairs, contributions to one
participation mask and value array per mapping, and the per-tuple folds
to array reductions taken one mapping at a time.

It is an *optimization*, not a semantic variant: every kernel here is
**bit-identical** to its scalar counterpart in
:mod:`repro.core.bytuple_count` / ``bytuple_sum`` / ``bytuple_avg`` /
``bytuple_minmax`` (cross-checked by the lane-differential and oracle
suites), and its sums and AVG greedy never turn a row array into a
Python list (only :func:`segment_sums`' fallback for non-finite,
subnormal or huge items does):

* Every float total is correctly rounded.  The row walks fold their
  addends through :class:`~repro.core.exactsum.ExactSum`, whose value is
  the exact sum rounded once, whatever the order; :func:`segment_sums`
  computes the same rounding of the same multisets in numpy (exact
  bucket totals by ``numpy.bincount``, then one ``math.fsum`` of a few
  totals per segment), so the two agree bit for bit.
* The AVG greedy (:func:`~repro.core.bytuple_avg._greedy_extreme_mean`)
  adds its running total in candidate order; ``numpy.cumsum`` adds in
  the same order, so every prefix total, mean, and stop is the same.
* Rows with the same participation pattern share one exactly computed
  occurrence probability (at most ``2**m`` patterns).

Queries or data outside the vectorizable fragment — non-numeric or DATE
aggregate arguments, nested queries — raise
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
import threading

import numpy as np

from repro.core import guard as guardmod
from repro.core.answers import (
    DistributionAnswer,
    ExpectedValueAnswer,
    GroupedAnswer,
    RangeAnswer,
)
from repro.core.common import (
    certain_group_source,
    charge_rows,
    check_by_tuple_query,
)
from repro.core.semantics import AggregateSemantics
from repro.exceptions import EvaluationError
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
)
from repro.sql.conditions import _coerce_literal, _like_to_regex
from repro.sql.reformulate import reformulate_query
from repro.storage.columnar import ColumnarError, ColumnarTable

__all__ = [
    "ColumnarTable",
    "ColumnarError",
    "VectorizationError",
    "VectorizedProblem",
    "PROBLEM_KERNELS",
    "answer_problem",
]


class VectorizationError(ColumnarError):
    """The query or data falls outside the vectorizable fragment."""


# -- the per-thread workspace -----------------------------------------------
#
# The kernels' row-sized temporaries are views of buffers each thread keeps
# and reuses (as ``sampling._streams`` keeps one generator per thread), not
# arrays allocated per call.  A fresh 100,000-row float64 array is 800 KB:
# once the allocator has handed such pages back to the system, every call
# pays a minor page fault per 4 KiB it touches, which costs more than the
# arithmetic on it.  A reused buffer faults once, when it grows.
#
# A slot holds one temporary at a time.  Each function below names the
# slots it writes, and calls only functions whose slots are free there:
#
# * ``satisfiable``, ``forced`` (bool): :func:`_any_all`'s results;
# * ``vmin``, ``vmax``: :func:`_row_stats`' per-row extremes;
# * ``t1``, ``t2``, ``t3`` (8-byte rows): a kernel's own temporaries, and
#   those of :func:`_row_stats`, :func:`_occurrence_table` and
#   :func:`_greedy_means`, which a kernel calls when they are free;
# * ``mask``, ``stop`` (bool): a kernel's mask, the greedy's stop flags;
# * ``pattern``, ``bit``: :func:`_occurrence_table` only;
# * ``keys``, ``halves``: :func:`segment_sums` only.
#
# Nothing a kernel returns, and nothing a problem keeps, is a view of a
# slot; buffers grow to the largest row count seen and are never shrunk.
# A thread keeps its buffers until it exits, about 64 bytes per row of the
# largest table it answered on (docs/columnar.md, "The kernels' workspace").

_workspace = threading.local()


def _slot(slot: str, n: int, dtype=np.float64):
    """A length-``n`` ``dtype`` view of this thread's ``slot`` buffer.

    Its contents are whatever the slot's previous user left.
    """
    buffers = getattr(_workspace, "buffers", None)
    if buffers is None:
        buffers = _workspace.buffers = {}
    size = n * np.dtype(dtype).itemsize
    buffer = buffers.get(slot)
    if buffer is None or buffer.size < size:
        buffer = buffers[slot] = np.empty(size, dtype=np.uint8)
    return buffer[:size].view(dtype)


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
    A flat query is the one segment ``[0]`` (``groups`` is ``None``).  A
    GROUP BY query's arrays are permuted by one stable sort on the group
    key, so each group is a contiguous segment; ``groups`` lists ``(key,
    segment)`` in the row walk's key order.
    """

    def __init__(
        self, ctable: ColumnarTable, pmapping: PMapping, query: AggregateQuery
    ) -> None:
        check_by_tuple_query(pmapping, query, nested=VectorizationError)
        self.op = query.aggregate.op
        self.ctable = ctable
        self.row_count = ctable.row_count
        self.probability_list: list[float] = list(pmapping.probabilities)
        self.probabilities = np.asarray(self.probability_list)
        self.participation: list = []
        self.values: list = []
        self.arguments: list[str | None] = []
        self.groups = None
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
            order, self.starts, self.groups = _group_segments(
                ctable, group_sources
            )
            self.participation = [m[order] for m in self.participation]
            self.values = [v if v is None else v[order] for v in self.values]

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


def _occurrence_table(problem: VectorizedProblem, *, sequential: bool):
    """``(table, codes)``: each row's participation pattern as an index
    into ``table``, which holds the patterns' occurrence probabilities, so
    that ``table[codes]`` is :func:`occurrence_array`.  Writes slots
    ``pattern``, ``bit`` and ``t1`` (``codes``, up to 62 mappings)."""
    masks = problem.participation
    if len(masks) > 62:  # pragma: no cover - no int64 code: one pattern per row
        patterns = problem.participation_matrix().T.tolist()
        codes = np.arange(problem.row_count)
        slots = range(problem.row_count)
        table_size = problem.row_count
    else:
        # Bit j of a row's code is its mask under mapping j, built in
        # uint16 while that holds them (a quarter of the memory traffic),
        # then widened once to the index type numpy.bincount and take use.
        small = len(masks) <= 16
        dtype = np.uint16 if small else np.int64
        pattern = _slot("pattern", problem.row_count, dtype)
        bit = _slot("bit", problem.row_count, dtype)
        pattern.fill(0)
        for j, mask in enumerate(masks):
            np.left_shift(mask, j, out=bit, dtype=dtype)
            pattern |= bit
        codes = _slot("t1", problem.row_count, np.intp)
        np.copyto(codes, pattern)
        if small:  # a table of every code needs no numpy.unique sort
            present = np.flatnonzero(np.bincount(codes, minlength=1 << len(masks)))
            slots = present.tolist()
            table_size = 1 << len(masks)
        else:
            present, codes = np.unique(codes, return_inverse=True)
            slots = range(present.size)
            table_size = present.size
        patterns = [
            [code >> j & 1 for j in range(len(masks))] for code in present.tolist()
        ]
    table = np.zeros(table_size)
    for slot, pattern in zip(slots, patterns):
        selected = [p for p, bit in zip(problem.probability_list, pattern) if bit]
        if sequential:
            occurrence = 0.0
            for p in selected:
                occurrence += p
            table[slot] = occurrence
        elif all(pattern):
            table[slot] = 1.0
        else:
            table[slot] = math.fsum(selected)
    return table, codes


def occurrence_array(
    problem: VectorizedProblem, *, sequential: bool = False, out=None
):
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
    so the whole column costs one pass per mapping plus a tiny Python loop.
    The result goes to ``out`` when given (which must not be slot ``t1``).
    """
    table, codes = _occurrence_table(problem, sequential=sequential)
    return np.take(table, codes, out=out, mode="clip")


# -- exact segmented sums ---------------------------------------------------

#: Keeps an item's sign, exponent and top 25 stored significand bits:
#: ``hi = x & _HIGH_BITS`` has at most 26 significant bits, and
#: ``lo = x - hi`` (exact) at most 27.
_HIGH_BITS = -(1 << 27)
#: The biased exponent field from which an item is left to ``math.fsum``:
#: magnitudes of ``2**996`` and up, whose bucket totals could overflow,
#: and inf and NaN (field 2047).
_HUGE_FIELD = 1023 + 996
#: A bucket total is exact while fewer than this many halves add into it.
_BUCKET_LIMIT = 2**26


def segment_sums(arrays, starts) -> list[float]:
    """Per segment, the correctly rounded sum of its items over ``arrays``.

    Each of ``arrays`` holds one float per row, and segment ``s`` is the
    rows from ``starts[s]`` up to the next start (``starts[0]`` is 0, and
    a segment may be empty).  The arrays are consumed
    one at a time, so a generator may build each one in a reused buffer.
    Each result is ``==`` to :func:`math.fsum` of the segment's items of
    every array.  Writes slots ``keys`` and ``halves``.

    Each item ``x`` of binade ``2**e`` splits exactly into ``hi + lo``:
    ``hi``, ``x`` with its low 27 significand bits cleared, is a multiple of
    ``2**(e-25)`` of magnitude below ``2**(e+1)``; ``lo`` is a multiple of
    ``2**(e-52)`` below ``2**(e-25)``.  Bucket ``b`` of a segment takes the
    ``hi`` halves of field ``b`` and the ``lo`` halves of field ``b + 27``,
    so it only receives multiples of ``2**(b-25)`` below ``2**(b+2)``, and
    a float64 total of fewer than ``2**26`` of them is exact in whatever
    order ``numpy.bincount`` adds them.  ``math.fsum`` of a segment's few
    nonzero bucket totals then rounds its exact sum once, which is what
    ``fsum`` of the items gives.  An array holding an item outside that
    argument (inf, NaN, a subnormal, a magnitude of ``2**996`` or more),
    or one that could fill a bucket past ``2**26`` halves, goes to that
    final ``fsum`` as Python lists instead.
    """
    segments = len(starts)
    blocks = []  # (first field, exact (segments x fields) bucket totals)
    pieces: list[list[list[float]]] = []  # per-segment lists for the fsum
    halves = 0
    lengths = rows = None

    def split(items: list, counts) -> list[list[float]]:
        if segments == 1:
            return [items]
        stops = np.cumsum(counts).tolist()
        return [items[a:b] for a, b in zip([0, *stops[:-1]], stops)]

    for array in arrays:
        array = np.ascontiguousarray(array, dtype=np.float64)
        if lengths is None:
            lengths = np.diff(starts, append=array.size)
            if segments > 1:
                rows = np.repeat(np.arange(segments), lengths)
            keys = _slot("keys", array.size, np.int64)
            halves_buffer = _slot("halves", array.size)
        bits = array.view(np.int64)
        np.right_shift(bits, 52, out=keys)
        keys &= 0x7FF  # the biased exponent field
        fields = np.bincount(keys, minlength=2048)
        used = np.flatnonzero(fields[1:]) + 1
        halves += 2 * array.size
        if (
            fields[0] > array.size - np.count_nonzero(array)  # subnormals
            or (used.size and used[-1] >= _HUGE_FIELD)
            or halves >= _BUCKET_LIMIT
        ):
            pieces.append(split(array.tolist(), lengths))
            continue
        if not used.size:  # every item is zero
            continue
        low, high = int(used[0]), int(used[-1])
        width = high - low + 1
        keys -= low
        np.maximum(keys, 0, out=keys)  # zeros add nothing to any bucket
        if rows is not None:
            keys += rows * width
        size = segments * width
        half = np.bitwise_and(bits, _HIGH_BITS, out=halves_buffer.view(np.int64))
        hi_totals = np.bincount(keys, half.view(np.float64), size)
        lo = np.subtract(array, halves_buffer, out=halves_buffer)
        # Columns: fields low - 27 .. high; lo halves sit 27 below their hi.
        block = np.zeros((segments, width + 27))
        block[:, :width] = np.bincount(keys, lo, size).reshape(segments, width)
        block[:, 27:] += hi_totals.reshape(segments, width)
        blocks.append((low - 27, block))
    if blocks:
        base = min(first for first, _ in blocks)
        totals = np.zeros(
            (segments, max(first + b.shape[1] for first, b in blocks) - base)
        )
        for first, block in blocks:
            totals[:, first - base : first - base + block.shape[1]] += block
        nonzero = totals != 0.0
        pieces.insert(
            0, split(totals[nonzero].tolist(), np.count_nonzero(nonzero, axis=1))
        )
    if not pieces:
        return [0.0] * segments
    if len(pieces) == 1:
        return [math.fsum(items) for items in pieces[0]]
    return [math.fsum(itertools.chain(*parts)) for parts in zip(*pieces)]


# -- kernels over a prepared problem ----------------------------------------
#
# Each ``*_on`` kernel takes a built :class:`VectorizedProblem` and its
# segment starts, and returns one answer per segment, equal to the row
# walk's: ``ufunc.reduceat`` reductions, :func:`segment_sums` for its
# exact sums, and the AVG greedy's running totals by ``numpy.cumsum``.


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


def _any_all(problem: VectorizedProblem):
    """(satisfiable, forced): the rows qualifying under some mapping, and
    under every mapping, in slots ``satisfiable`` and ``forced``."""
    n = problem.row_count
    masks = problem.participation
    satisfiable = _slot("satisfiable", n, bool)
    forced = _slot("forced", n, bool)
    np.copyto(satisfiable, masks[0])
    np.copyto(forced, masks[0])
    for mask in masks[1:]:
        np.logical_or(satisfiable, mask, out=satisfiable)
        np.logical_and(forced, mask, out=forced)
    return satisfiable, forced


def _keep(mask, out=None):
    """An int64 select mask for :func:`_pick`: all ones where ``mask``."""
    return np.subtract(0, mask, out=out, dtype=np.int64)


def _pick(keep, values, fill: float, out=None):
    """``numpy.where(mask, values, fill)`` over float64 bit patterns, for
    ``keep = _keep(mask)``: the same floats (NaNs and signed zeros
    included) without ``where``'s per-row branch, which a random mask
    keeps mispredicting.  ``out`` (int64, or None) may be ``values``'
    own buffer."""
    fill_bits = int(np.float64(fill).view(np.int64))
    chosen = np.bitwise_xor(values.view(np.int64), fill_bits, out=out)
    chosen &= keep
    chosen ^= fill_bits
    return chosen.view(np.float64)


def _row_stats(problem: VectorizedProblem):
    """(satisfiable, forced, vmin, vmax) per-row summaries, folded one
    mapping at a time into slots ``vmin`` and ``vmax`` (via ``t1`` and
    ``t2``)."""
    n = problem.row_count
    satisfiable, forced = _any_all(problem)
    vmin = _slot("vmin", n)
    vmin.fill(np.inf)
    vmax = _slot("vmax", n)
    vmax.fill(-np.inf)
    keep = _slot("t1", n, np.int64)
    chosen = _slot("t2", n, np.int64)
    for mask, values in zip(problem.participation, problem.values):
        _keep(mask, out=keep)
        np.minimum(vmin, _pick(keep, values, np.inf, out=chosen), out=vmin)
        np.maximum(vmax, _pick(keep, values, -np.inf, out=chosen), out=vmax)
    return satisfiable, forced, vmin, vmax


def range_count_on(problem: VectorizedProblem, starts) -> list[RangeAnswer]:
    """The Figure 2 fold over a prepared problem (exact integers)."""
    satisfiable, forced = _any_all(problem)
    lows = _counts(forced, starts).tolist()
    ups = _counts(satisfiable, starts).tolist()
    return [RangeAnswer(low, up) for low, up in zip(lows, ups)]


#: Steps of the COUNT DP between narrowings of its live window.
_TRIM_STEPS = 32


def _live_window(cells, lo: int, hi: int) -> tuple[int, int]:
    """The narrowest ``[lo, hi)`` holding every nonzero of ``cells[:, lo:hi]``
    (the DP keeps at least one)."""
    nonzero = np.flatnonzero(cells[:, lo:hi].any(axis=0))
    return lo + int(nonzero[0]), lo + int(nonzero[-1]) + 1


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
    # Columns lo .. hi - 1 hold every nonzero cell of the live segments.
    # A cell outside stays exactly 0 under the step below, so only that
    # window is folded; every _TRIM_STEPS steps it narrows past the zeros
    # that q == 1 rows and underflow leave at its ends.
    done, offset, cells, k, n, lo, hi = len(rank), 0, 0, 0, 0, 0, 1
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
            grown[:, lo:hi] = block[:n, lo:hi]
            block, head = grown, np.empty_like(grown)
        q = values[offset : offset + n, None]
        offset += n
        # P'(j) = P(j) * notOcc + P(j-1) * occ  (paper Figure 3, lines 6-9)
        window, spill = block[:n, lo:hi], head[:n, lo:hi]
        np.multiply(window, q, out=spill)
        window *= 1.0 - q
        hi += 1
        block[:n, lo + 1 : hi] += spill
        if not k % _TRIM_STEPS:
            lo, hi = _live_window(block[:n], lo, hi)
        cells += n * (k + 1)
    if n == 1:  # the last live segment folds on alone, as a 1-D row
        row = np.zeros(len(live) - 1)
        row[lo:hi] = block[0, lo:hi]
        carry = np.empty_like(row)
        for q in values[offset:].tolist():
            if guard is not None:
                guard.check_deadline()
                guard.note_support(k + 1)
            window, spill = row[lo:hi], carry[lo:hi]
            np.multiply(window, q, out=spill)
            window *= 1.0 - q
            hi += 1
            row[lo + 1 : hi] += spill
            k += 1
            cells += k
            if not k % _TRIM_STEPS:
                lo, hi = _live_window(row[None], lo, hi)
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
    occurrence = occurrence_array(problem, out=_slot("t2", problem.row_count))
    distributions = _count_distribution_dp_arrays(occurrence, starts)
    return [DistributionAnswer(distribution) for distribution in distributions]


def expected_count_on(
    problem: VectorizedProblem, starts
) -> list[ExpectedValueAnswer]:
    """Expected COUNT by linearity (the engine's scalar-kernel route)."""
    occurrence = occurrence_array(problem, out=_slot("t2", problem.row_count))
    return [
        ExpectedValueAnswer(total) for total in segment_sums([occurrence], starts)
    ]


def range_sum_on(problem: VectorizedProblem, starts) -> list[RangeAnswer]:
    """The tightened Figure 4 fold; exact sums of the same per-row
    contributions the scalar kernel feeds its
    :class:`~repro.core.exactsum.ExactSum` (a row that cannot qualify
    contributes 0.0 to both)."""
    n = problem.row_count
    satisfiable, forced, vmin, vmax = _row_stats(problem)
    # A row some mapping excludes may also contribute 0.0.
    keep = _keep(forced, out=_slot("t1", n, np.int64))
    low_contrib = _pick(keep, vmin, 0.0, out=_slot("t2", n, np.int64))
    np.minimum(vmin, low_contrib, out=low_contrib)
    up_contrib = _pick(keep, vmax, 0.0, out=_slot("t3", n, np.int64))
    np.maximum(vmax, up_contrib, out=up_contrib)
    # Whether the world realizing each bound keeps a qualifying tuple.
    nonempty = _slot("mask", n, bool)
    np.less(low_contrib, 0.0, out=nonempty)
    nonempty |= forced
    low_nonempty = _reduce(np.logical_or, nonempty, starts, False)
    np.greater(up_contrib, 0.0, out=nonempty)
    nonempty |= forced
    up_nonempty = _reduce(np.logical_or, nonempty, starts, False)
    return [
        RangeAnswer(
            low if low_ok else single_low,
            up if up_ok else single_up,
        )
        if defined
        else RangeAnswer(None, None)
        for low, up, low_ok, up_ok, single_low, single_up, defined in zip(
            segment_sums([low_contrib], starts),
            segment_sums([up_contrib], starts),
            low_nonempty.tolist(),
            up_nonempty.tolist(),
            _reduce(np.minimum, vmin, starts, math.inf).tolist(),
            _reduce(np.maximum, vmax, starts, -math.inf).tolist(),
            _reduce(np.logical_or, satisfiable, starts, False).tolist(),
        )
    ]


def expected_sum_on(
    problem: VectorizedProblem, starts
) -> list[ExpectedValueAnswer]:
    """Exact conditional expected SUM, matching
    :func:`~repro.core.bytuple_sum.expected_sum_kernel` bit for bit.

    The numerator's ``P(m_j) * contribution`` addends (built one mapping
    at a time) and the empty world's ``log1p`` terms (one per
    participation pattern) are summed exactly per segment: the scalar
    kernel folds the same multisets through
    :class:`~repro.core.exactsum.ExactSum`, so both reach the identical
    correctly rounded totals.
    """
    n = problem.row_count
    keep = _slot("t1", n, np.int64)
    addend = _slot("t2", n)

    def addends():
        for probability, mask, values in zip(
            problem.probability_list, problem.participation, problem.values
        ):
            np.multiply(probability, values, out=addend)
            yield _pick(_keep(mask, out=keep), addend, 0.0, out=addend.view(np.int64))

    numerators = segment_sums(addends(), starts)
    occurrence, codes = _occurrence_table(problem, sequential=True)
    partial = (occurrence > 0.0) & (occurrence < 1.0)
    logs = np.zeros(occurrence.size)
    logs[partial] = [math.log1p(-value) for value in occurrence[partial].tolist()]
    certain_rows = np.take(
        occurrence >= 1.0, codes, out=_slot("mask", n, bool), mode="clip"
    )
    satisfiable, _ = _any_all(problem)
    answers = []
    for numerator, log_empty, certain, defined in zip(
        numerators,
        segment_sums([np.take(logs, codes, out=addend, mode="clip")], starts),
        _reduce(np.logical_or, certain_rows, starts, False).tolist(),
        _reduce(np.logical_or, satisfiable, starts, False).tolist(),
    ):
        empty_world_probability = 0.0 if certain else math.exp(log_empty)
        if not defined or empty_world_probability >= 1.0:
            answers.append(ExpectedValueAnswer(None))
        else:
            answers.append(
                ExpectedValueAnswer(numerator / (1.0 - empty_world_probability))
            )
    return answers


#: Rows :func:`_gather` selects per step: its index arrays stay near
#: 64 KiB, small enough to come from the heap rather than fresh pages.
GATHER_ROWS = 8192


def _gather(mask, values, out):
    """``values[mask]``, written to the front of ``out``; returns that view.

    Selects one step of :data:`GATHER_ROWS` rows at a time, so no
    row-sized index or value array is allocated.
    """
    end = 0
    for start in range(0, values.size, GATHER_ROWS):
        stop = start + GATHER_ROWS
        rows = np.flatnonzero(mask[start:stop])
        np.take(values[start:stop], rows, out=out[end : end + rows.size], mode="clip")
        end += rows.size
    return out[:end]


def _greedy_means(
    forced_totals, forced_counts, values, optional, starts, *, minimize: bool
) -> list[float | None]:
    """Per segment, :func:`~repro.core.bytuple_avg._greedy_extreme_mean`
    of its forced total and count and its ``optional`` rows' ``values``.

    A segment's sequence is its forced total (when it has forced rows;
    else its first candidate) followed by its candidates in greedy order,
    so ``numpy.cumsum``, which adds sequentially, gives each prefix the
    same float total as the greedy's ``total += value``.  The greedy stops
    before the first candidate that does not improve the mean.  Sequences
    are the rows of zero-padded blocks, one per power-of-two class of
    sequence lengths, so padding at most doubles the items; a flat query
    is one block of one row, built in place.  Writes slots ``t1`` to
    ``t3`` and ``stop``.
    """
    segments = len(starts)
    candidate_counts = _counts(optional, starts)
    count = int(candidate_counts.sum())
    forced_counts = np.asarray(forced_counts)
    has_forced = forced_counts > 0
    lengths = candidate_counts + has_forced
    # A flat query's sequence is one buffer: its forced total, if any,
    # then its candidates.
    head = int(has_forced[0]) if segments == 1 else 0
    buffer = _slot("t1", head + count)
    candidates = _gather(optional, values, buffer[head:])
    if np.isnan(candidates, out=_slot("stop", count, bool)).any():
        raise VectorizationError(
            "NaN among the AVG greedy's candidates: Python's sorted and "
            "numpy's sort order NaN differently"
        )
    # Greedy order: ascending to minimize, descending (by negation) else.
    key = candidates if minimize else np.negative(candidates, out=candidates)
    if segments == 1:
        key.sort()
    else:
        key = key[np.lexsort((key, np.repeat(np.arange(segments), candidate_counts)))]
    ordered = key if minimize else np.negative(key, out=key)
    if segments == 1:
        if head:
            buffer[0] = forced_totals[0]
        sequence = buffer[: head + count]
    else:
        sequence = np.insert(
            ordered,
            (np.cumsum(candidate_counts) - candidate_counts)[has_forced],
            np.asarray(forced_totals)[has_forced],
        )
    classes = np.frexp(lengths)[1]  # 0 for an empty sequence
    row_base = np.cumsum(lengths) - lengths  # where each sequence starts
    shift = np.zeros(segments, dtype=np.intp)
    blocks = []
    offset = 0
    for size_class in (np.flatnonzero(np.bincount(classes)[1:]) + 1).tolist():
        members = np.flatnonzero(classes == size_class)
        width = int(lengths[members].max())
        shift[members] = offset + width * np.arange(members.size) - row_base[members]
        blocks.append((members, offset, width))
        offset += members.size * width
    if offset == sequence.size and not shift.any():
        padded = sequence  # already one block per class, unpadded (a flat query)
    else:
        padded = np.zeros(offset)
        padded[np.arange(sequence.size) + np.repeat(shift, lengths)] = sequence
    improves = np.less if minimize else np.greater
    means = np.zeros(segments)
    for members, offset, width in blocks:
        rows = members.size
        block = padded[offset : offset + rows * width].reshape(rows, width)
        running = _slot("t2", rows * width).reshape(rows, width)
        divisor = _slot("t3", rows * width).reshape(rows, width)
        stop = _slot("stop", rows * width, bool).reshape(rows, width)
        # Item i's mean divides by the first count plus i: exact sums.
        divisor.fill(1.0)
        np.cumsum(divisor, axis=1, out=divisor)
        divisor += np.maximum(forced_counts[members, None], 1) - 1.0
        # Past its stop the cumsum adds what the greedy never adds, so an
        # overflow there is no fault of the answer.
        with np.errstate(over="ignore", invalid="ignore"):
            np.cumsum(block, axis=1, out=running)
            running /= divisor
            improves(block[:, 1:], running[:, :-1], out=stop[:, :-1])
        np.logical_not(stop[:, :-1], out=stop[:, :-1])
        # Each sequence stops at its last item at the latest.
        stop[:, -1] = True
        stop[np.arange(rows), lengths[members] - 1] = True
        means[members] = running[np.arange(rows), stop.argmax(axis=1)]
    return [
        mean if length else None
        for mean, length in zip(means.tolist(), lengths.tolist())
    ]


def range_avg_on(problem: VectorizedProblem, starts) -> list[RangeAnswer]:
    """The tight AVG range: exact forced totals and the greedy over the
    optional rows, as arrays."""
    n = problem.row_count
    satisfiable, forced, vmin, vmax = _row_stats(problem)
    optional = np.logical_not(forced, out=_slot("mask", n, bool))
    optional &= satisfiable
    forced_counts = _counts(forced, starts)
    keep = _keep(forced, out=_slot("t1", n, np.int64))
    chosen = _slot("t2", n, np.int64)
    forced_totals = [
        segment_sums([_pick(keep, bound, 0.0, out=chosen)], starts)
        for bound in (vmin, vmax)
    ]
    low, high = (
        _greedy_means(
            totals, forced_counts, bound, optional, starts, minimize=minimize
        )
        for totals, bound, minimize in zip(
            forced_totals, (vmin, vmax), (True, False)
        )
    )
    return [RangeAnswer(*bounds) for bounds in zip(low, high)]


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
    keep = _keep(forced, out=_slot("t1", problem.row_count, np.int64))
    chosen = _slot("t2", problem.row_count, np.int64)
    # Inner bound: the extreme forced value, else the least extreme value.
    if maximize:
        inner = _pick(keep, vmin, -np.inf, out=chosen)
        inner = _reduce(np.maximum, inner, starts, -math.inf)
        outer, unforced = highest, lowest
    else:
        inner = _pick(keep, vmax, np.inf, out=chosen)
        inner = _reduce(np.minimum, inner, starts, math.inf)
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

    The call is one fold over every row, charged once the kernel answered
    (:func:`~repro.core.common.charge_rows`): a declined body must not
    charge the row budget before the row walk charges it.  Raises
    :class:`VectorizationError` for a cell without an array kernel.
    """
    kernel = PROBLEM_KERNELS.get((problem.op, aggregate_semantics))
    if kernel is None:
        raise VectorizationError(
            f"no array kernel for by-tuple {problem.op.value} under "
            f"{aggregate_semantics.value}"
        )
    answers = kernel(problem, problem.starts)
    charge_rows(problem.row_count)
    if problem.groups is None:
        return answers[0]
    return GroupedAnswer({key: answers[s] for key, s in problem.groups})
