"""Plan-time cost estimation and the estimate/actual loop.

The planner (:meth:`repro.core.planner.Planner.plan`) has always *chosen*
a lane; this module makes it *predict* what the lane will do.  At plan
time :class:`CostModel` estimates, for every lane the plan could run
through (its fallback chain plus its degradation chain), the work the
lane would perform:

* ``rows`` — row visits: source rows scanned per pass times the number
  of passes (one per mapping for by-table, one per enumerated world for
  naive, one per Monte-Carlo draw for sampling);
* ``worlds`` — possible worlds enumerated or sampled (``0`` for the
  closed-form PTIME kernels, ``m`` for by-table, ``m^n`` for naive,
  the draw count for sampling);
* ``support`` — the largest distribution support the lane materializes
  (``n + 1`` for the COUNT DP, ``2`` for range, ``1`` for expected
  value);
* ``cost`` — dimensionless cost units, where one unit is roughly one
  scalar row-fold step.  Unit weights live in :data:`UNIT_COST`.

The chosen-lane estimate is recorded as a :class:`PlanEstimate` on the
:class:`~repro.core.planner.ExecutionPlan` (and in its ``to_dict()``),
so ``EXPLAIN`` shows what the planner expected.  After execution the
outermost frame of :func:`repro.core.execute.execute_plan` calls
:meth:`CostModel.actuals` with what actually ran — the executed lane,
the real draw count, the real answer support — computes misestimation
ratios (``actual / estimate``), and feeds ``planner.misestimate.*``
histograms.  The estimate, the actuals and the ratios land on the
execution's :class:`~repro.obs.querylog.QueryRecord`.
"""

from __future__ import annotations

import math

from repro.core.planner import Lane, degradation_chain
from repro.core.semantics import AggregateSemantics
from repro.sql.ast import AggregateOp

#: Cost units per elementary work item, by lane.  One unit is roughly one
#: scalar row-fold step (predicate evaluation + accumulator update); the
#: other weights are relative to that.  Absolute scale is irrelevant:
#: only ratios between lanes drive decisions.
UNIT_COST: dict[str, float] = {
    Lane.BY_TABLE: 0.8,  # per (row x mapping) through the certain executor
    Lane.SCALAR: 1.0,  # per (row x mapping): predicate + fold
    Lane.EXTENSION: 1.5,  # order-statistics DP per (row x mapping)
    Lane.NESTED_RANGE: 1.2,  # inner fold + per-group composition
    Lane.NESTED_COMPOSE: 1.5,  # inner DP + independent composition
    Lane.NAIVE: 1.0,  # per (row x world)
    Lane.SAMPLING: 1.2,  # per (row x draw): RNG + predicate + fold
}

#: Per-support-cell weight of the COUNT distribution DP (the quadratic
#: term the ``max_support`` guard bounds).
DP_UNIT = 0.5

#: Worlds beyond this are reported as ``inf`` — the estimate only needs
#: to say "astronomically more than any budget", not the exact power.
WORLDS_CAP = float(1 << 62)


def naive_worlds(rows: int, mappings: int) -> float:
    """``m^n`` with an overflow guard (``inf`` past :data:`WORLDS_CAP`)."""
    if mappings <= 1 or rows <= 0:
        return 1.0
    if rows * math.log(mappings) > math.log(WORLDS_CAP):
        return math.inf
    return float(mappings**rows)


class LaneEstimate:
    """Predicted work for one lane: row visits, worlds, support, cost."""

    __slots__ = ("lane", "rows", "worlds", "support", "cost")

    def __init__(
        self, lane: str, rows: float, worlds: float, support: float,
        cost: float,
    ) -> None:
        self.lane = lane
        self.rows = rows
        self.worlds = worlds
        self.support = support
        self.cost = cost

    def to_dict(self) -> dict:
        return {
            "lane": self.lane,
            "rows": self.rows,
            "worlds": self.worlds,
            "support": self.support,
            "cost": self.cost,
        }

    def __repr__(self) -> str:
        return (
            f"LaneEstimate({self.lane}, rows={self.rows:g}, "
            f"worlds={self.worlds:g}, cost={self.cost:g})"
        )


class PlanEstimate:
    """What the planner expected of a plan, recorded at plan time.

    ``rows``/``worlds``/``support``/``cost`` describe the chosen lane;
    ``candidates`` maps every lane in the plan's fallback and degradation
    chains to its own :class:`LaneEstimate` (so EXPLAIN can show the
    alternatives the planner weighed); ``preempted`` records a budget
    preemption — the planner swapping a lane whose estimate already
    exceeded the active budget (``None`` otherwise).
    """

    __slots__ = (
        "lane", "rows", "worlds", "support", "cost", "candidates",
        "preempted",
    )

    def __init__(
        self,
        chosen: LaneEstimate,
        candidates: dict[str, LaneEstimate],
        *,
        preempted: dict | None = None,
    ) -> None:
        self.lane = chosen.lane
        self.rows = chosen.rows
        self.worlds = chosen.worlds
        self.support = chosen.support
        self.cost = chosen.cost
        self.candidates = candidates
        self.preempted = preempted

    def candidate(self, lane: str) -> LaneEstimate | None:
        return self.candidates.get(lane)

    def to_dict(self) -> dict:
        return {
            "lane": self.lane,
            "rows": self.rows,
            "worlds": self.worlds,
            "support": self.support,
            "cost": self.cost,
            "preempted": self.preempted,
            "candidates": {
                lane: estimate.to_dict()
                for lane, estimate in sorted(self.candidates.items())
            },
        }


class CostModel:
    """Per-lane work estimation.

    Stateless: the planner and the execution frame share the one
    module-level :data:`COST_MODEL`.
    """

    # -- per-lane formulas -------------------------------------------------

    def lane_estimate(
        self,
        lane: str,
        *,
        rows: int,
        mappings: int,
        op: AggregateOp,
        aggregate_semantics: AggregateSemantics,
        samples: int,
    ) -> LaneEstimate:
        """The work one lane would do on ``rows`` source rows."""
        n, m = max(rows, 0), max(mappings, 1)
        unit = UNIT_COST[lane]
        support = self._support(lane, n, m, op, aggregate_semantics, samples)
        dp_cost = 0.0
        if (
            aggregate_semantics is AggregateSemantics.DISTRIBUTION
            and op is AggregateOp.COUNT
            and lane not in (Lane.BY_TABLE, Lane.NAIVE, Lane.SAMPLING)
        ):
            dp_cost = DP_UNIT * n * (n + 1)
        if lane == Lane.BY_TABLE:
            return LaneEstimate(lane, float(n * m), float(m), support,
                                unit * n * m)
        if lane == Lane.NAIVE:
            worlds = naive_worlds(n, m)
            return LaneEstimate(lane, n * worlds, worlds, support,
                                unit * n * worlds)
        if lane == Lane.SAMPLING:
            draws = max(samples, 0)
            return LaneEstimate(lane, float(n * draws), float(draws),
                                support, unit * n * draws)
        # Sequential single-pass lanes: by-tuple PTIME, extension, and
        # the nested compositions (whose inner fold is the dominant term).
        return LaneEstimate(lane, float(n), 0.0, support,
                            unit * n * m + dp_cost)

    def _support(
        self,
        lane: str,
        n: int,
        m: int,
        op: AggregateOp,
        aggregate_semantics: AggregateSemantics,
        samples: int,
    ) -> float:
        if aggregate_semantics is AggregateSemantics.RANGE:
            return 2.0
        if aggregate_semantics is AggregateSemantics.EXPECTED_VALUE:
            return 1.0
        # Distribution semantics: the COUNT DP carries n + 1 cells; the
        # MIN/MAX order-statistics extension at most n distinct values;
        # enumeration/sampling at most one value per world/draw.
        if op is AggregateOp.COUNT:
            return float(n + 1)
        if lane == Lane.NAIVE:
            return naive_worlds(n, m)
        if lane == Lane.SAMPLING:
            return float(max(samples, 0))
        return float(max(n, 1))

    # -- plan-level estimation ---------------------------------------------

    def estimate_plan(self, plan, context) -> PlanEstimate:
        """The :class:`PlanEstimate` for a freshly-built plan.

        Estimates every lane in the plan's fallback chain and degradation
        chain; the chosen lane's numbers become the headline
        rows/worlds/support/cost.
        """
        compiled = plan.compiled
        n = len(compiled.table)
        m = len(compiled.pmapping)
        samples = getattr(context, "samples", 2000) if context else 2000
        op = compiled.query.aggregate.op
        lanes = list(
            dict.fromkeys(
                plan.fallback_chain + degradation_chain(plan.lane)
            )
        )
        candidates: dict[str, LaneEstimate] = {}
        for lane in lanes:
            candidates[lane] = self.lane_estimate(
                lane,
                rows=n,
                mappings=m,
                op=op,
                aggregate_semantics=plan.aggregate_semantics,
                samples=samples,
            )
        return PlanEstimate(candidates[plan.lane], candidates)

    # -- actuals -------------------------------------------------------------

    def actuals(
        self,
        plan,
        executed_lane: str,
        *,
        samples: int,
        support: float | None = None,
        progress: dict | None = None,
    ) -> dict:
        """What the executed lane actually did, in the estimate's units.

        For completed runs the counts are analytic and exact — a finished
        scalar fold visited exactly ``n`` rows, a finished sampling run
        drew exactly ``samples`` worlds — with the answer's real support
        substituted when the caller observed one.  For aborted runs
        (``progress`` from the guard) the partial counters are reported
        and the cost is left ``None``: a half-done run has no meaningful
        completed-cost.
        """
        compiled = plan.compiled
        if progress is not None:
            return {
                "lane": executed_lane,
                "rows": progress.get("rows"),
                "worlds": progress.get("worlds"),
                "support": progress.get("max_support") or support,
                "cost": None,
            }
        estimate = self.lane_estimate(
            executed_lane,
            rows=len(compiled.table),
            mappings=len(compiled.pmapping),
            op=compiled.query.aggregate.op,
            aggregate_semantics=plan.aggregate_semantics,
            samples=samples,
        )
        actual = estimate.to_dict()
        if support is not None:
            actual["support"] = support
        return actual


#: The one cost model: the planner estimates with it, the outermost
#: execution frame computes actuals with it.
COST_MODEL = CostModel()


def misestimation(estimates: dict, actuals: dict) -> dict:
    """``actual / estimate`` ratios for the dimensions both sides have.

    Only finite, positive pairs produce a ratio — a lane whose estimate
    was ``inf`` (naive worlds past the cap) or an aborted run with no
    completed cost simply omits that dimension, keeping every reported
    ratio finite.
    """
    ratios: dict[str, float] = {}
    for kind in ("rows", "worlds", "support", "cost"):
        expected = estimates.get(kind)
        observed = actuals.get(kind)
        if (
            isinstance(expected, (int, float))
            and isinstance(observed, (int, float))
            and math.isfinite(expected)
            and math.isfinite(observed)
            and expected > 0
            and observed > 0
        ):
            ratios[kind] = observed / expected
    return ratios
