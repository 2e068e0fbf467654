"""Cost-model telemetry: estimates, actuals, preemption.

Covers the plan-time :class:`~repro.core.cost.CostModel`, the
estimate/actual loop the outermost execution frame closes (on the
execution record), and the planner's budget preemption.
"""

from __future__ import annotations

import math

import pytest

from repro import AggregationEngine
from repro.core import cost
from repro.core.cost import (
    CostModel,
    misestimation,
    naive_worlds,
)
from repro.core.planner import Lane
from repro.core.semantics import AggregateSemantics
from repro.data import realestate, synthetic
from repro.sql.ast import AggregateOp


def small_engine(**kwargs) -> AggregationEngine:
    return AggregationEngine(
        [realestate.paper_instance()], realestate.paper_pmapping(), **kwargs
    )


def synthetic_engine(
    num_tuples: int = 16, num_mappings: int = 3, **kwargs
) -> AggregationEngine:
    table = synthetic.generate_source_table(num_tuples, num_mappings, seed=7)
    pmapping = synthetic.generate_pmapping(
        table.relation, num_mappings, seed=7
    )
    return AggregationEngine([table], pmapping, **kwargs)


SUM_QUERY = "SELECT SUM(value) FROM MED"
COUNT_QUERY = "SELECT COUNT(*) FROM MED"


class TestLaneEstimates:
    def setup_method(self):
        self.model = CostModel()

    def estimate(self, lane, *, rows=100, mappings=3, op=AggregateOp.SUM,
                 asem=AggregateSemantics.RANGE, samples=500, **kwargs):
        return self.model.lane_estimate(
            lane, rows=rows, mappings=mappings, op=op,
            aggregate_semantics=asem, samples=samples, **kwargs,
        )

    def test_by_table_scans_once_per_mapping(self):
        est = self.estimate(Lane.BY_TABLE, rows=100, mappings=3)
        assert est.rows == 300
        assert est.worlds == 3
        assert est.cost == pytest.approx(cost.UNIT_COST[Lane.BY_TABLE] * 300)

    def test_naive_scans_once_per_world(self):
        est = self.estimate(Lane.NAIVE, rows=4, mappings=2)
        assert est.worlds == 16
        assert est.rows == 64

    def test_naive_worlds_overflow_to_inf(self):
        assert naive_worlds(4, 2) == 16
        assert naive_worlds(1000, 3) == math.inf
        est = self.estimate(Lane.NAIVE, rows=1000, mappings=3)
        assert est.worlds == math.inf
        assert est.cost == math.inf

    def test_sampling_scans_once_per_draw(self):
        est = self.estimate(Lane.SAMPLING, samples=500, rows=100)
        assert est.worlds == 500
        assert est.rows == 100 * 500

    def test_sequential_lanes_scan_once(self):
        for lane in (Lane.SCALAR, Lane.EXTENSION):
            est = self.estimate(lane, rows=100)
            assert est.rows == 100
            assert est.worlds == 0

    def test_count_distribution_support_and_dp_cost(self):
        est = self.estimate(
            Lane.SCALAR, rows=100, op=AggregateOp.COUNT,
            asem=AggregateSemantics.DISTRIBUTION,
        )
        assert est.support == 101
        # Linear fold plus the quadratic DP term.
        expected = cost.UNIT_COST[Lane.SCALAR] * 100 * 3
        expected += cost.DP_UNIT * 100 * 101
        assert est.cost == pytest.approx(expected)

    def test_range_and_expected_value_supports(self):
        assert self.estimate(Lane.SCALAR).support == 2
        assert self.estimate(
            Lane.SCALAR, asem=AggregateSemantics.EXPECTED_VALUE
        ).support == 1


class TestMisestimation:
    def test_ratios(self):
        ratios = misestimation(
            {"rows": 100.0, "cost": 50.0, "worlds": 0.0, "support": 2.0},
            {"rows": 80.0, "cost": 25.0, "worlds": 0.0, "support": 2.0},
        )
        assert ratios == {
            "rows": pytest.approx(0.8),
            "cost": pytest.approx(0.5),
            "support": pytest.approx(1.0),
        }

    def test_non_finite_and_missing_dimensions_are_dropped(self):
        ratios = misestimation(
            {"rows": math.inf, "cost": 10.0, "worlds": 5.0},
            {"rows": 100.0, "cost": None, "worlds": math.nan},
        )
        assert ratios == {}


class TestPlanEstimateOnPlans:
    def test_plan_carries_estimate_and_digest(self):
        engine = small_engine()
        plan = engine.plan(
            "SELECT SUM(listPrice) FROM T1 WHERE date < '2008-1-20'",
            "by-tuple", "range",
        )
        estimate = plan.estimate
        assert estimate is not None
        assert estimate.lane == Lane.SCALAR
        assert estimate.rows == 4
        assert estimate.cost > 0
        d = plan.to_dict()
        assert d["estimate"]["rows"] == 4
        assert d["estimate"]["candidates"][Lane.SCALAR]["cost"] > 0
        assert isinstance(d["digest"], str) and len(d["digest"]) == 12
        # The digest is stable across replans of the same cell.
        engine.invalidate()
        assert engine.plan(
            "SELECT SUM(listPrice) FROM T1 WHERE date < '2008-1-20'",
            "by-tuple", "range",
        ).digest == d["digest"]

    def test_estimate_covers_fallback_and_degradation_chains(self):
        engine = small_engine(allow_exponential=True, allow_sampling=True)
        plan = engine.plan(
            "SELECT SUM(listPrice) FROM T1", "by-tuple", "distribution"
        )
        assert plan.lane == Lane.NAIVE
        candidates = plan.estimate.candidates
        for lane in (Lane.NAIVE, Lane.SAMPLING):
            assert lane in candidates

    def test_decision_counters(self):
        engine = small_engine()
        engine.answer(
            "SELECT SUM(listPrice) FROM T1", "by-tuple", "range"
        )
        snapshot = engine.metrics_snapshot()
        assert snapshot["planner.decision.scalar"] == 1
        assert snapshot["planner.executed.scalar"] == 1


class TestEstimateActualLoop:
    def test_explain_analyze_reports_estimates_and_actuals(self):
        engine = small_engine()
        report = engine.explain_analyze(
            "SELECT SUM(listPrice) FROM T1 WHERE date < '2008-1-20'",
            "by-tuple", "range",
        )
        assert report["executed_lane"] == Lane.SCALAR
        assert report["estimates"]["rows"] == 4
        assert report["actuals"]["rows"] == 4
        assert report["misestimation"]["rows"] == pytest.approx(1.0)
        assert report["misestimation"]["cost"] > 0

    def test_misestimate_histograms_and_query_record(self):
        engine = small_engine(allow_sampling=True)
        engine.answer(
            "SELECT SUM(listPrice) FROM T1", "by-tuple", "distribution",
            samples=100, seed=3,
        )
        snapshot = engine.metrics_snapshot()
        assert snapshot["planner.misestimate.rows"]["count"] == 1
        record = engine.recent_queries()[-1]
        assert record.plan_digest is not None
        assert record.est_cost > 0
        assert record.actual_cost > 0

    def test_sampling_actual_support_observed(self):
        # The COUNT distribution has at most n + 1 support values; the
        # estimate says n + 1, the actual reports what the answer holds.
        engine = small_engine()
        report = engine.explain_analyze(
            "SELECT COUNT(*) FROM T1 WHERE date < '2008-1-20'",
            "by-tuple", "distribution",
        )
        assert report["estimates"]["support"] == 5
        assert 1 <= report["actuals"]["support"] <= 5

    def test_lane_change_counted_on_runtime_decline(self):
        # Nested composition declines at run time on an inner SUM (no
        # exact polynomial route), the sampling fallback answers, and the
        # loop records the lane change.
        engine = small_engine(
            use_extensions=True, allow_sampling=True, samples=50, seed=1
        )
        query = (
            "SELECT AVG(R.listPrice) FROM (SELECT SUM(R2.listPrice) "
            "FROM T1 AS R2 GROUP BY R2.propertyID) AS R"
        )
        plan = engine.plan(query, "by-tuple", "distribution")
        assert plan.lane == Lane.NESTED_COMPOSE
        engine.answer(query, "by-tuple", "distribution")
        snapshot = engine.metrics_snapshot()
        assert snapshot.get("planner.lane_changed", 0) >= 1
        assert engine.context.last_record.executed_lane == Lane.SAMPLING

    def test_aborted_run_reports_partial_actuals(self):
        engine = synthetic_engine(64, 3, max_rows=10)
        with pytest.raises(Exception):
            engine.answer(SUM_QUERY, "by-tuple", "range")
        record = engine.context.last_record
        assert record.status == "error"
        assert record.actuals["cost"] is None
        # No cost ratio for an aborted run — every reported ratio finite.
        assert all(
            math.isfinite(v) for v in record.misestimation.values()
        )


class TestPreemption:
    def test_naive_preempted_to_sampling_under_world_budget(self):
        engine = small_engine(
            allow_exponential=True, allow_sampling=True, max_worlds=10,
            samples=8,
        )
        query = "SELECT SUM(listPrice) FROM T1"
        plan = engine.plan(query, "by-tuple", "distribution")
        assert plan.lane == Lane.SAMPLING
        preempted = plan.estimate.preempted
        assert preempted is not None
        assert preempted["from"] == Lane.NAIVE
        assert preempted["to"] == Lane.SAMPLING
        assert preempted["limit"] == 10
        assert engine.metrics_snapshot()["planner.preempted_breach"] == 1
        # The preempted plan still answers (within the worlds budget).
        answer = engine.answer(query, "by-tuple", "distribution")
        assert answer is not None

    def test_no_preemption_without_sampling_policy(self):
        # A caller who asked for exponential-or-nothing keeps the
        # runtime breach (tested in test_guard); the planner must not
        # silently switch them to an estimator.
        engine = small_engine(allow_exponential=True, max_worlds=2)
        plan = engine.plan(
            "SELECT SUM(listPrice) FROM T1", "by-tuple", "distribution"
        )
        assert plan.lane == Lane.NAIVE
        assert plan.estimate.preempted is None

    def test_no_preemption_when_sampling_would_breach_too(self):
        engine = small_engine(
            allow_exponential=True, allow_sampling=True, max_worlds=10,
            samples=50,
        )
        plan = engine.plan(
            "SELECT SUM(listPrice) FROM T1", "by-tuple", "distribution"
        )
        assert plan.lane == Lane.NAIVE
        assert plan.estimate.preempted is None

    def test_no_preemption_when_worlds_fit(self):
        engine = small_engine(
            allow_exponential=True, allow_sampling=True, max_worlds=100,
            samples=8,
        )
        plan = engine.plan(
            "SELECT SUM(listPrice) FROM T1", "by-tuple", "distribution"
        )
        assert plan.lane == Lane.NAIVE  # 16 worlds fit in 100
        assert plan.estimate.preempted is None
