"""Algorithm selection and the paper's Figure 6 complexity matrix.

The planner maps a semantics *cell* — ``(aggregate operator, mapping
semantics, aggregate semantics)`` — to the algorithm that answers it, and
knows each cell's complexity class:

* every by-table cell is PTIME (the generic Figure 1 algorithm);
* by-tuple COUNT is PTIME under all three aggregate semantics
  (Figures 2-3);
* by-tuple SUM is PTIME under range (Figure 4) and expected value
  (Theorem 4), open under distribution;
* by-tuple AVG/MIN/MAX are PTIME under range only.

For the open cells the planner offers the naive exponential enumeration,
Monte-Carlo sampling, and — for MIN/MAX — the exact polynomial extension
of :mod:`repro.core.extensions` (disabled in strict paper-faithful mode).

The planner is also the single owner of *execution-lane* dispatch:
:meth:`Planner.plan` binds a :class:`~repro.core.compile.CompiledQuery` and
a cell to an :class:`ExecutionPlan` recording the chosen :class:`Lane`
(by-table, by-tuple PTIME, extension, nested range, nested composition,
naive, sampling), the cell's Figure 6 complexity, and the fallback chain —
stage 2 of the compile/plan/execute pipeline (see
:mod:`repro.core.compile` and :mod:`repro.core.execute`).
"""

from __future__ import annotations

from collections.abc import Callable

from repro.core import (
    bytuple_avg,
    bytuple_count,
    bytuple_minmax,
    bytuple_sum,
    extensions,
)
from repro.core.answers import AggregateAnswer
from repro.core.common import PreparedTupleQuery
from repro.core.semantics import AggregateSemantics, MappingSemantics
from repro.exceptions import (
    EvaluationError,
    IntractableError,
    SchemaError,
    UnsupportedQueryError,
)
from repro.schema.model import AttributeType
from repro.sql.ast import AggregateOp, SubquerySource


class Complexity:
    """Complexity class labels for the Figure 6 matrix."""

    PTIME = "PTIME"
    OPEN = "?"  # the paper's notation for "no PTIME algorithm known"


class Lane:
    """Execution-lane labels recorded on an :class:`ExecutionPlan`.

    Every way this library can evaluate a cell is one of these lanes, and
    lane selection happens in exactly one place: :meth:`Planner.plan`.

    ``SCALAR`` is the one by-tuple PTIME lane (Figures 2-5, Theorem 4); it
    picks its body, array kernel or row walk, at run time in
    :mod:`repro.core.execute`.
    """

    BY_TABLE = "by-table"  # Figure 1 over the certain-query executor
    SCALAR = "scalar"  # by-tuple PTIME: array kernel or row walk
    EXTENSION = "extension"  # exact MIN/MAX distributions beyond the paper
    NESTED_RANGE = "nested-range"  # per-group range composition (Q2 shape)
    NESTED_COMPOSE = "nested-compose"  # independent-distribution composition
    NAIVE = "naive"  # exponential sequence enumeration
    SAMPLING = "sampling"  # Monte-Carlo estimation


#: The explicit degradation chain a guard breach walks when the engine
#: enables graceful degradation: each lane maps to the lanes tried next,
#: cheapest-viable first.  Exact exponential work degrades to the sampling
#: estimator (an approximate answer with a recorded accuracy contract
#: beats a typed error when the caller opted in).  Lanes absent here —
#: the by-tuple PTIME lane among them — are terminal: their breach
#: propagates.
DEGRADATION_CHAIN: dict[str, list[str]] = {
    Lane.NAIVE: [Lane.SAMPLING],
    Lane.NESTED_COMPOSE: [Lane.SAMPLING],
}


def degradation_chain(lane: str) -> list[str]:
    """The lanes a guard breach in ``lane`` degrades through, in order."""
    return list(DEGRADATION_CHAIN.get(lane, ()))


#: Cell key: (aggregate operator, mapping semantics, aggregate semantics).
Cell = tuple[AggregateOp, MappingSemantics, AggregateSemantics]


def _build_complexity_matrix() -> dict[Cell, str]:
    matrix: dict[Cell, str] = {}
    for op in AggregateOp:
        for aggregate_semantics in AggregateSemantics:
            matrix[(op, MappingSemantics.BY_TABLE, aggregate_semantics)] = (
                Complexity.PTIME
            )
    for op in AggregateOp:
        for aggregate_semantics in AggregateSemantics:
            cell = (op, MappingSemantics.BY_TUPLE, aggregate_semantics)
            if op is AggregateOp.COUNT:
                matrix[cell] = Complexity.PTIME
            elif op is AggregateOp.SUM:
                matrix[cell] = (
                    Complexity.OPEN
                    if aggregate_semantics is AggregateSemantics.DISTRIBUTION
                    else Complexity.PTIME
                )
            else:  # AVG, MIN, MAX
                matrix[cell] = (
                    Complexity.PTIME
                    if aggregate_semantics is AggregateSemantics.RANGE
                    else Complexity.OPEN
                )
    return matrix


#: Figure 6, built once; every plan reads its cell's label from here.
_COMPLEXITY = _build_complexity_matrix()


def complexity_matrix() -> dict[Cell, str]:
    """The full Figure 6 matrix as a dictionary over all 30 cells (a copy)."""
    return dict(_COMPLEXITY)


def format_complexity_matrix() -> str:
    """A text rendering of Figure 6 (used by the benchmark harness)."""
    matrix = _COMPLEXITY
    lines = []
    header = f"{'operator':<10}{'semantics':<10}" + "".join(
        f"{s.value:>16}" for s in AggregateSemantics
    )
    lines.append(header)
    lines.append("-" * len(header))
    for op in AggregateOp:
        for mapping_semantics in MappingSemantics:
            cells = "".join(
                f"{matrix[(op, mapping_semantics, s)]:>16}"
                for s in AggregateSemantics
            )
            lines.append(f"{op.value:<10}{mapping_semantics.value:<10}{cells}")
    return "\n".join(lines)


class AlgorithmSpec:
    """A named algorithm bound to a semantics cell.

    ``kernel``, when set, is the algorithm as a fold over one
    already-prepared (ungrouped)
    :class:`~repro.core.common.PreparedTupleQuery`; the execute stage runs
    it through :func:`repro.core.common.run_prepared` so repeated
    executions share the compiled predicates and pinned contribution
    vectors.  The extension kernels return the distribution, which the
    execute stage projects onto the cell's semantics.  ``lane`` is the
    :class:`Lane` this algorithm naturally runs in; the execute stage
    dispatches on it.
    """

    __slots__ = (
        "name", "complexity", "exact", "paper_reference", "kernel", "lane",
    )

    def __init__(
        self,
        name: str,
        complexity: str,
        *,
        exact: bool = True,
        paper_reference: str = "",
        kernel: Callable[[PreparedTupleQuery], AggregateAnswer] | None = None,
        lane: str = Lane.SCALAR,
    ) -> None:
        self.name = name
        self.complexity = complexity
        self.exact = exact
        self.paper_reference = paper_reference
        self.kernel = kernel
        self.lane = lane

    def __repr__(self) -> str:
        kind = "exact" if self.exact else "approximate"
        return f"AlgorithmSpec({self.name}, {self.complexity}, {kind})"


BY_TABLE_SPEC = AlgorithmSpec(
    "ByTableAggregateQuery",
    Complexity.PTIME,
    paper_reference="Figure 1",
    lane=Lane.BY_TABLE,
)
NAIVE_SPEC = AlgorithmSpec(
    "NaiveSequenceEnumeration",
    Complexity.OPEN,
    paper_reference="Section IV-B (generic algorithm)",
    lane=Lane.NAIVE,
)
SAMPLING_SPEC = AlgorithmSpec(
    "MonteCarloSampling",
    Complexity.PTIME,
    exact=False,
    paper_reference="Section VII (future work)",
    lane=Lane.SAMPLING,
)

_PTIME_BY_TUPLE: dict[tuple[AggregateOp, AggregateSemantics], AlgorithmSpec] = {
    (op, semantics): AlgorithmSpec(
        name, Complexity.PTIME, paper_reference=reference, kernel=kernel
    )
    for op, semantics, name, reference, kernel in (
        (AggregateOp.COUNT, AggregateSemantics.RANGE, "ByTupleRangeCOUNT",
         "Figure 2", bytuple_count.range_count_kernel),
        (AggregateOp.COUNT, AggregateSemantics.DISTRIBUTION, "ByTuplePDCOUNT",
         "Figure 3", bytuple_count.distribution_count_kernel),
        (AggregateOp.COUNT, AggregateSemantics.EXPECTED_VALUE,
         "ByTupleExpValCOUNT", "Section IV-B (from Figure 3)",
         bytuple_count.expected_count_kernel),
        (AggregateOp.SUM, AggregateSemantics.RANGE, "ByTupleRangeSUM",
         "Figure 4", bytuple_sum.range_sum_kernel),
        (AggregateOp.SUM, AggregateSemantics.EXPECTED_VALUE, "ByTupleExpValSUM",
         "Theorem 4 (conditional-exact linear form)",
         bytuple_sum.expected_sum_kernel),
        (AggregateOp.AVG, AggregateSemantics.RANGE, "ByTupleRangeAVG",
         "Section IV-B", bytuple_avg.range_avg_kernel),
        (AggregateOp.MAX, AggregateSemantics.RANGE, "ByTupleRangeMAX",
         "Figure 5", bytuple_minmax.range_max_kernel),
        (AggregateOp.MIN, AggregateSemantics.RANGE, "ByTupleRangeMIN",
         "Section IV-B", bytuple_minmax.range_min_kernel),
    )
}

_EXTENSION: dict[AggregateOp, AlgorithmSpec] = {
    op: AlgorithmSpec(
        f"ByTupleExact{op.value}Distribution",
        Complexity.PTIME,
        paper_reference="extension beyond the paper (order statistics)",
        kernel=kernel,
        lane=Lane.EXTENSION,
    )
    for op, kernel in (
        (AggregateOp.MAX, extensions.max_distribution_kernel),
        (AggregateOp.MIN, extensions.min_distribution_kernel),
    )
}


def _check_numeric_argument(
    compiled, aggregate_semantics: AggregateSemantics
) -> None:
    """Reject a non-numeric aggregate argument before any lane runs.

    SUM and AVG add their argument's values, and the expected value
    weights the aggregate's values by probability, so each needs numbers
    under every candidate mapping, whichever mapping semantics runs.  The
    outer level of a nested query aggregates the inner level's values.
    """
    op = compiled.query.aggregate.op
    additive = op in (AggregateOp.SUM, AggregateOp.AVG)
    expected = aggregate_semantics is AggregateSemantics.EXPECTED_VALUE
    if not (additive or expected):
        return
    query, pmapping = compiled.query, compiled.pmapping
    while query.aggregate.op is not AggregateOp.COUNT and isinstance(
        query.source, SubquerySource
    ):
        query = query.source.query
    if query.aggregate.op is AggregateOp.COUNT:
        return
    name = query.aggregate.argument.name
    if name not in pmapping.target:
        raise SchemaError(
            f"relation {pmapping.target.name!r} has no attribute {name!r}"
        )
    kinds = {
        pmapping.source.attribute(mapping.source_for(name)).type
        for mapping, _ in pmapping
        if mapping.maps_target(name)
    } - {AttributeType.INT, AttributeType.REAL}
    if not kinds:
        return
    got = "/".join(sorted(kind.value.upper() for kind in kinds))
    need = (
        f"{op.value} needs a numeric argument"
        if additive
        else "the expected value needs a numeric aggregate"
    )
    raise UnsupportedQueryError(f"{need}, got {got} under some candidate mapping")


class ExecutionPlan:
    """A compiled query bound to one semantics cell, lane, and engine state.

    Produced by :meth:`Planner.plan` (stage 2 of the pipeline) and run by
    :func:`repro.core.execute.execute_plan` (stage 3).  ``lane`` is the
    chosen :class:`Lane`; ``fallback`` is the plan to run when a
    conditional lane declines at run time (nested composition outside the
    exact-polynomial fragment);
    ``inner_plan`` is the plan for the flat inner query of a nested shape.
    """

    __slots__ = (
        "compiled", "mapping_semantics", "aggregate_semantics", "lane",
        "complexity", "spec", "fallback", "inner_plan", "context",
        "estimate", "_digest",
    )

    def __init__(
        self,
        compiled,
        mapping_semantics: MappingSemantics,
        aggregate_semantics: AggregateSemantics,
        lane: str,
        complexity: str,
        spec: AlgorithmSpec | None,
        *,
        fallback: "ExecutionPlan | None" = None,
        inner_plan: "ExecutionPlan | None" = None,
        context=None,
    ) -> None:
        self.compiled = compiled
        self.mapping_semantics = mapping_semantics
        self.aggregate_semantics = aggregate_semantics
        self.lane = lane
        self.complexity = complexity
        self.spec = spec
        self.fallback = fallback
        self.inner_plan = inner_plan
        self.context = context
        #: The planner's :class:`~repro.core.cost.PlanEstimate`, attached
        #: by :meth:`Planner.plan` once the lane is final (``None`` on
        #: hand-built plans, e.g. degradation targets).
        self.estimate = None
        self._digest: str | None = None

    @property
    def digest(self) -> str:
        """Short stable digest of the plan identity (query + cell + lanes).

        Groups query-log records by *plan*: the same query replanned onto
        a different lane chain (data growth, policy change)
        gets a new digest.
        """
        if self._digest is None:
            from repro.obs.querylog import query_digest

            self._digest = query_digest(
                "|".join(
                    (
                        self.compiled.text,
                        self.mapping_semantics.value,
                        self.aggregate_semantics.value,
                        "->".join(self.fallback_chain),
                    )
                )
            )
        return self._digest

    @property
    def fallback_chain(self) -> list[str]:
        """The lanes this plan can run through, first choice first."""
        chain = [self.lane]
        plan = self.fallback
        while plan is not None:
            chain.append(plan.lane)
            plan = plan.fallback
        return chain

    def to_dict(self) -> dict:
        """A stable, JSON-ready description of the plan.

        The contract consumed by ``--explain`` rendering, ``EXPLAIN
        ANALYZE`` reports, and the test suite — no repr-string scraping.
        Fallback and inner plans nest recursively.
        """
        spec = self.spec
        return {
            "query": self.compiled.text,
            "digest": self.digest,
            "estimate": (
                self.estimate.to_dict() if self.estimate is not None else None
            ),
            "cell": {
                "op": self.compiled.query.aggregate.op.value,
                "mapping_semantics": self.mapping_semantics.value,
                "aggregate_semantics": self.aggregate_semantics.value,
            },
            "lane": self.lane,
            "complexity": self.complexity,
            "algorithm": spec.name if spec is not None else None,
            "exact": spec.exact if spec is not None else True,
            "paper_reference": spec.paper_reference if spec is not None else "",
            "fallback_chain": self.fallback_chain,
            "degradation_chain": degradation_chain(self.lane),
            "fallback": (
                self.fallback.to_dict() if self.fallback is not None else None
            ),
            "inner": (
                self.inner_plan.to_dict()
                if self.inner_plan is not None
                else None
            ),
        }

    def answer(
        self,
        *,
        samples: int | None = None,
        seed: int | None = None,
        max_sequences: int | None = None,
        budget=None,
    ) -> AggregateAnswer:
        """Execute the plan (stage 3); overrides apply to this call only."""
        from repro.core.execute import execute_plan

        return execute_plan(
            self,
            samples=samples,
            seed=seed,
            max_sequences=max_sequences,
            budget=budget,
        )

    def __repr__(self) -> str:
        name = self.spec.name if self.spec is not None else self.lane
        return (
            f"ExecutionPlan({name}, lane={self.lane}, "
            f"cell=({self.compiled.query.aggregate.op.value}, "
            f"{self.mapping_semantics.value}, "
            f"{self.aggregate_semantics.value}), {self.complexity})"
        )


class Planner:
    """Chooses the algorithm for a semantics cell.

    Parameters
    ----------
    allow_exponential:
        Permit the naive sequence enumeration for cells without a PTIME
        algorithm (guarded by the request's ``max_sequences``).
    allow_sampling:
        Permit Monte-Carlo estimation for those cells when exponential
        enumeration is not allowed or not requested.
    use_extensions:
        Use the exact polynomial MIN/MAX distribution algorithms that go
        beyond the paper.  Off by default so the default planner exactly
        matches Figure 6.
    """

    def __init__(
        self,
        *,
        allow_exponential: bool = False,
        allow_sampling: bool = False,
        use_extensions: bool = False,
    ) -> None:
        self.allow_exponential = allow_exponential
        self.allow_sampling = allow_sampling
        self.use_extensions = use_extensions

    def algorithm_for(
        self,
        op: AggregateOp,
        mapping_semantics: MappingSemantics,
        aggregate_semantics: AggregateSemantics,
    ) -> AlgorithmSpec:
        """The algorithm answering this cell, honouring the planner's policy.

        Raises
        ------
        IntractableError
            For an open cell when neither the exponential fallback nor
            sampling (nor an applicable extension) is allowed.
        """
        if mapping_semantics is MappingSemantics.BY_TABLE:
            return BY_TABLE_SPEC
        key = (op, aggregate_semantics)
        if key in _PTIME_BY_TUPLE:
            return _PTIME_BY_TUPLE[key]
        if self.use_extensions and op in _EXTENSION:
            return _EXTENSION[op]
        if self.allow_exponential:
            return NAIVE_SPEC
        if self.allow_sampling:
            return SAMPLING_SPEC
        raise IntractableError(
            f"no PTIME algorithm for {op.value} under "
            f"{mapping_semantics.value}/{aggregate_semantics.value} semantics "
            "(paper Figure 6); retry with allow_exponential=True, "
            "allow_sampling=True, or use_extensions=True (MIN/MAX only)"
        )

    def plan(
        self,
        compiled,
        mapping_semantics: MappingSemantics,
        aggregate_semantics: AggregateSemantics,
        context,
    ) -> ExecutionPlan:
        """Bind a compiled query and a cell to an execution lane.

        The single place lane selection happens.  ``context`` is the
        engine's :class:`~repro.core.execute.ExecutionContext`.

        Raises
        ------
        IntractableError
            For an open cell when the planner's policy forbids every
            applicable route, with the same messages as
            :meth:`algorithm_for`.
        UnsupportedQueryError
            For SUM/AVG, or any expected value, over an argument that is
            TEXT or DATE under some candidate mapping.
        """
        op = compiled.query.aggregate.op
        _check_numeric_argument(compiled, aggregate_semantics)
        complexity = self.complexity_of(
            op, mapping_semantics, aggregate_semantics
        )
        if mapping_semantics is MappingSemantics.BY_TABLE:
            return self._finalize(
                ExecutionPlan(
                    compiled,
                    mapping_semantics,
                    aggregate_semantics,
                    Lane.BY_TABLE,
                    complexity,
                    BY_TABLE_SPEC,
                    context=context,
                ),
                context,
            )
        if compiled.is_nested:
            return self._finalize(
                self._plan_nested(
                    compiled, aggregate_semantics, complexity, context
                ),
                context,
            )
        spec = self.algorithm_for(
            op, mapping_semantics, aggregate_semantics
        )
        preempted = None
        if spec.lane == Lane.NAIVE:
            preempted = self._preempt_naive(compiled, context)
            if preempted is not None:
                spec = SAMPLING_SPEC
        chosen = ExecutionPlan(
            compiled,
            mapping_semantics,
            aggregate_semantics,
            spec.lane,
            complexity,
            spec,
            context=context,
        )
        return self._finalize(chosen, context, preempted=preempted)

    def _preempt_naive(self, compiled, context) -> dict | None:
        """Swap naive enumeration for sampling when the world budget
        already rules it out.

        Fires only when (a) the planner's policy also allows sampling —
        a caller who asked for exponential-or-nothing still gets the
        runtime breach they are testing for — (b) the active budget caps
        worlds, (c) the estimated world count exceeds that cap, and
        (d) the sampling lane's own draw count fits the cap (otherwise
        the swap would just move the breach).  Deadlines never preempt:
        a time budget is a measurement, not an estimate.
        """
        if context is None or not self.allow_sampling:
            return None
        budget = getattr(context, "budget", None)
        max_worlds = getattr(budget, "max_worlds", None)
        if not max_worlds:
            return None
        samples = getattr(context, "samples", 2000)
        if samples > max_worlds:
            return None
        from repro.core import cost

        worlds = cost.naive_worlds(
            len(compiled.table), len(compiled.pmapping)
        )
        if worlds <= max_worlds:
            return None
        return {
            "from": Lane.NAIVE,
            "to": Lane.SAMPLING,
            "resource": "worlds",
            "estimated_worlds": worlds if worlds != float("inf") else None,
            "limit": max_worlds,
        }

    def _finalize(
        self, plan: ExecutionPlan, context, *, preempted: dict | None = None
    ) -> ExecutionPlan:
        """Attach the cost estimate and count the lane decision."""
        from repro.core import cost

        estimate = cost.COST_MODEL.estimate_plan(plan, context)
        estimate.preempted = preempted
        plan.estimate = estimate
        if context is not None:
            registry = getattr(context, "metrics", None)
            if registry is not None:
                registry.inc(f"planner.decision.{plan.lane}")
                if preempted is not None:
                    registry.inc("planner.preempted_breach")
        return plan

    def _plan_nested(
        self,
        compiled,
        aggregate_semantics: AggregateSemantics,
        complexity: str,
        context,
    ) -> ExecutionPlan:
        """By-tuple lanes for the nested (subquery-in-FROM) shape.

        Range composes per-group ranges exactly; distribution/expected
        value go through the independent-distribution composition when
        extensions are enabled, then the naive or sampling fallback.  The
        inner query always runs its scalar lane (its answers feed a
        composition, not the user).
        """
        if aggregate_semantics is AggregateSemantics.RANGE:
            inner_spec = self.algorithm_for(
                compiled.inner.query.aggregate.op,
                MappingSemantics.BY_TUPLE,
                AggregateSemantics.RANGE,
            )
            inner_plan = ExecutionPlan(
                compiled.inner,
                MappingSemantics.BY_TUPLE,
                AggregateSemantics.RANGE,
                inner_spec.lane,
                inner_spec.complexity,
                inner_spec,
                context=context,
            )
            return ExecutionPlan(
                compiled,
                MappingSemantics.BY_TUPLE,
                aggregate_semantics,
                Lane.NESTED_RANGE,
                complexity,
                None,
                inner_plan=inner_plan,
                context=context,
            )
        fallback: ExecutionPlan | None = None
        if self.allow_exponential:
            fallback_spec: AlgorithmSpec | None = NAIVE_SPEC
        elif self.allow_sampling:
            fallback_spec = SAMPLING_SPEC
        else:
            fallback_spec = None
        if fallback_spec is not None:
            fallback = ExecutionPlan(
                compiled,
                MappingSemantics.BY_TUPLE,
                aggregate_semantics,
                fallback_spec.lane,
                complexity,
                fallback_spec,
                context=context,
            )
        if self.use_extensions:
            return ExecutionPlan(
                compiled,
                MappingSemantics.BY_TUPLE,
                aggregate_semantics,
                Lane.NESTED_COMPOSE,
                complexity,
                None,
                fallback=fallback,
                context=context,
            )
        if fallback is not None:
            return fallback
        raise IntractableError(
            "nested by-tuple queries under the distribution/expected value "
            "semantics require allow_exponential=True or allow_sampling=True"
        )

    def complexity_of(
        self,
        op: AggregateOp,
        mapping_semantics: MappingSemantics,
        aggregate_semantics: AggregateSemantics,
    ) -> str:
        """The Figure 6 complexity label of a cell."""
        try:
            return _COMPLEXITY[(op, mapping_semantics, aggregate_semantics)]
        except KeyError:
            raise EvaluationError(
                f"unknown semantics cell ({op}, {mapping_semantics}, "
                f"{aggregate_semantics})"
            ) from None
