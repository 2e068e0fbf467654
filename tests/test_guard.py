"""Execution guardrails: budgets, deadlines, degradation, batch errors.

Covers the robustness contract end to end:

* :class:`Budget` / :class:`ExecutionGuard` unit behaviour (limits,
  stride-throttled deadline checks, progress snapshots, pickling of
  guardrail errors);
* the deadline firing mid-DP (:mod:`repro.core.bytuple_count`) and
  mid-enumeration (:mod:`repro.core.naive`), with structured partial
  progress and no corrupted cache state afterwards;
* graceful degradation: exponential cells rerun on the sampling lane
  with a recorded accuracy contract, terminal lanes (the by-tuple PTIME
  lane among them) still raise;
* :meth:`AggregationEngine.answer_many` returning a
  :class:`BatchResult` that survives per-query failures.
"""

from __future__ import annotations

import pickle
import time

import pytest

from repro import (
    AggregationEngine,
    BatchResult,
    Budget,
    BudgetExceededError,
    EvaluationError,
    GuardrailError,
    IntractableError,
    QueryTimeoutError,
)
from repro.core import guard as guardmod
from repro.core.planner import DEGRADATION_CHAIN, Lane, degradation_chain
from repro.data import realestate, synthetic


def small_engine(**kwargs) -> AggregationEngine:
    """The paper's Table I instance (4 tuples, 2 mappings)."""
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


class TestBudget:
    def test_unlimited(self):
        assert Budget().unlimited
        assert not Budget(timeout_ms=10).unlimited
        assert not Budget(max_rows=1).unlimited

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError, match="max_worlds"):
            Budget(max_worlds=-1)

    def test_nan_limit_rejected(self):
        # A NaN deadline would never expire (clock() >= nan is False).
        with pytest.raises(ValueError, match="timeout_ms"):
            Budget(timeout_ms=float("nan"))

    def test_without_deadline_keeps_resource_limits(self):
        budget = Budget(timeout_ms=5, max_rows=10, max_worlds=20, max_support=30)
        relaxed = budget.without_deadline()
        assert relaxed.timeout_ms is None
        assert relaxed.max_rows == 10
        assert relaxed.max_worlds == 20
        assert relaxed.max_support == 30

    def test_to_dict_omits_unset(self):
        assert Budget(max_rows=3).to_dict() == {"max_rows": 3}
        assert Budget().to_dict() == {}
        assert "unlimited" in repr(Budget())


class TestExecutionGuard:
    def test_max_rows_trips_with_progress(self):
        guard = guardmod.ExecutionGuard(Budget(max_rows=3))
        guard.add_rows(3)
        with pytest.raises(BudgetExceededError) as info:
            guard.add_rows(1)
        assert info.value.resource == "rows"
        assert info.value.limit == 3
        assert info.value.used == 4
        assert info.value.progress["rows"] == 4

    def test_max_worlds_trips(self):
        guard = guardmod.ExecutionGuard(Budget(max_worlds=2))
        guard.add_worlds(2)
        with pytest.raises(BudgetExceededError) as info:
            guard.add_worlds(1)
        assert info.value.resource == "worlds"

    def test_max_support_trips(self):
        guard = guardmod.ExecutionGuard(Budget(max_support=8))
        guard.note_support(8)
        with pytest.raises(BudgetExceededError) as info:
            guard.note_support(9)
        assert info.value.resource == "support"
        assert guard.max_support_seen == 9

    def test_expired_deadline_raises_with_timing(self):
        guard = guardmod.ExecutionGuard(Budget(timeout_ms=0))
        with pytest.raises(QueryTimeoutError) as info:
            guard.check_deadline()
        assert info.value.timeout_ms == 0
        assert info.value.elapsed_ms >= 0
        assert info.value.progress["timeout_ms"] == 0

    def test_add_rows_deadline_check_is_stride_throttled(self):
        guard = guardmod.ExecutionGuard(Budget(timeout_ms=0))
        # Under the stride no clock check happens, so no raise yet ...
        guard.add_rows(guardmod.CHECK_STRIDE - 1)
        # ... and the row that completes the stride consults the clock.
        with pytest.raises(QueryTimeoutError):
            guard.add_rows(1)

    def test_guarded_noop_for_none_and_unlimited(self):
        with guardmod.guarded(None) as guard:
            assert guard is None
        with guardmod.guarded(Budget()) as guard:
            assert guard is None
        assert guardmod.current_guard() is None

    def test_guarded_installs_and_restores(self):
        with guardmod.guarded(Budget(max_rows=1)) as guard:
            assert guardmod.current_guard() is guard
        assert guardmod.current_guard() is None

    def test_guardrail_error_pickles_with_payload(self):
        guard = guardmod.ExecutionGuard(Budget(max_worlds=1))
        guard.add_worlds(1)
        with pytest.raises(BudgetExceededError) as info:
            guard.add_worlds(1)
        clone = pickle.loads(pickle.dumps(info.value))
        assert isinstance(clone, BudgetExceededError)
        assert clone.resource == "worlds"
        assert clone.progress == info.value.progress

    def test_error_hierarchy(self):
        # Both breach types are GuardrailErrors, and callers that catch
        # EvaluationError (the pre-guardrail contract) still see them.
        assert issubclass(QueryTimeoutError, GuardrailError)
        assert issubclass(BudgetExceededError, GuardrailError)
        assert issubclass(GuardrailError, EvaluationError)


class TestEngineGuardrails:
    def test_budget_and_limit_keywords_conflict(self, ds1, pm1):
        with pytest.raises(EvaluationError, match="either budget="):
            AggregationEngine([ds1], pm1, budget=Budget(), timeout_ms=5)

    def test_deadline_fires_mid_dp(self):
        # The COUNT-distribution DP checks the deadline per processed row.
        engine = small_engine()
        with pytest.raises(QueryTimeoutError) as info:
            engine.answer(
                realestate.Q1,
                "by-tuple",
                "distribution",
                budget=Budget(timeout_ms=0),
            )
        assert info.value.progress["timeout_ms"] == 0
        assert engine.metrics_snapshot()["guard.breach.scalar"] == 1

    def test_no_corrupt_cache_state_after_breach(self):
        # A breach mid-execution must not poison the compiled/plan caches:
        # the same engine answers the same cell correctly afterwards.
        engine = small_engine()
        baseline = small_engine().answer(realestate.Q1, "by-tuple", "distribution")
        with pytest.raises(QueryTimeoutError):
            engine.answer(
                realestate.Q1,
                "by-tuple",
                "distribution",
                budget=Budget(timeout_ms=0),
            )
        answer = engine.answer(realestate.Q1, "by-tuple", "distribution")
        assert answer.approx_equal(baseline)

    def test_deadline_fires_mid_enumeration(self):
        # The naive lane counts each enumerated mapping sequence as a world.
        engine = small_engine(allow_exponential=True)
        query = "SELECT SUM(listPrice) FROM T1 WHERE date < '2008-1-20'"
        with pytest.raises(QueryTimeoutError) as info:
            engine.answer(
                query, "by-tuple", "distribution", budget=Budget(timeout_ms=0)
            )
        assert info.value.progress["worlds"] >= 1
        baseline = small_engine(allow_exponential=True).answer(
            query, "by-tuple", "distribution"
        )
        assert engine.answer(query, "by-tuple", "distribution").approx_equal(
            baseline
        )

    def test_max_worlds_caps_enumeration(self):
        engine = small_engine(allow_exponential=True, max_worlds=2)
        with pytest.raises(BudgetExceededError) as info:
            engine.answer("SELECT SUM(listPrice) FROM T1 WHERE date < '2008-1-20'", "by-tuple", "distribution")
        assert info.value.resource == "worlds"
        assert info.value.limit == 2

    def test_max_support_caps_dp_width(self):
        # Four tuples -> COUNT support 5; a cap of 3 trips inside the DP.
        engine = small_engine(max_support=3)
        with pytest.raises(BudgetExceededError) as info:
            engine.answer(realestate.Q1, "by-tuple", "distribution")
        assert info.value.resource == "support"

    @pytest.mark.parametrize("vectorize", [False, True])
    def test_max_support_skips_tuples_that_never_qualify(self, vectorize):
        # Q1 has three tuples that can qualify and one that never does;
        # the DP widens only on the three, to 4 columns.
        engine = small_engine(max_support=4, vectorize=vectorize)
        answer = engine.answer(realestate.Q1, "by-tuple", "distribution")
        assert len(answer.distribution) == 3

    def test_max_rows_caps_row_scans(self):
        engine = small_engine(max_rows=2)
        with pytest.raises(BudgetExceededError) as info:
            engine.answer(realestate.Q1, "by-tuple", "range")
        assert info.value.resource == "rows"

    def test_max_worlds_caps_sampling_draws(self):
        engine = small_engine(allow_sampling=True, max_worlds=50)
        with pytest.raises(BudgetExceededError) as info:
            engine.answer(
                "SELECT SUM(listPrice) FROM T1 WHERE date < '2008-1-20'",
                "by-tuple",
                "distribution",
                samples=51,
            )
        assert info.value.resource == "worlds"

    def test_deadline_aborts_exponential_cell_fast(self):
        # The acceptance bar: a 50 ms deadline on a by-tuple
        # SUM-distribution query over >= 12 tuples aborts in well under 2 s
        # (the unguarded enumeration would take minutes: 3^12 sequences).
        engine = synthetic_engine(
            num_tuples=12, allow_exponential=True, timeout_ms=50
        )
        started = time.perf_counter()
        with pytest.raises(QueryTimeoutError):
            engine.answer("SELECT SUM(value) FROM MED", "by-tuple", "distribution")
        assert time.perf_counter() - started < 2.0


class TestDegradation:
    def test_chain_shape(self):
        assert degradation_chain(Lane.NAIVE) == [Lane.SAMPLING]
        assert degradation_chain(Lane.NESTED_COMPOSE) == [Lane.SAMPLING]
        assert degradation_chain(Lane.SCALAR) == []
        # to_dict surfaces the chain for EXPLAIN.
        engine = small_engine()
        plan = engine.plan(realestate.Q1, "by-tuple", "range")
        assert plan.to_dict()["degradation_chain"] == degradation_chain(
            plan.lane
        )
        assert set(DEGRADATION_CHAIN) == {Lane.NAIVE, Lane.NESTED_COMPOSE}

    def test_exponential_degrades_to_sampling(self):
        engine = small_engine(
            allow_exponential=True,
            degrade=True,
            timeout_ms=0,
            samples=400,
            seed=3,
        )
        answer = engine.answer("SELECT SUM(listPrice) FROM T1 WHERE date < '2008-1-20'", "by-tuple", "distribution")
        assert answer.is_defined
        record = engine.context.last_record.degraded
        assert record["from"] == Lane.NAIVE
        assert record["to"] == Lane.SAMPLING
        assert record["reason"] == "QueryTimeoutError"
        assert record["samples"] == 400
        assert 0 < record["epsilon"] < 1
        snap = engine.metrics_snapshot()
        assert snap["degraded.total"] == 1
        assert snap["degraded.naive.to.sampling"] == 1

    def test_degraded_sampling_clamps_to_worlds_budget(self):
        engine = small_engine(
            allow_exponential=True,
            degrade=True,
            budget=Budget(timeout_ms=0, max_worlds=100),
            samples=2000,
            seed=3,
        )
        engine.answer("SELECT SUM(listPrice) FROM T1 WHERE date < '2008-1-20'", "by-tuple", "distribution")
        assert engine.context.last_record.degraded["samples"] == 100

    def test_explain_analyze_reports_degradation(self):
        engine = small_engine(
            allow_exponential=True, degrade=True, timeout_ms=0, samples=200
        )
        report = engine.explain_analyze(
            "SELECT SUM(listPrice) FROM T1 WHERE date < '2008-1-20'", "by-tuple", "distribution"
        )
        assert report["degradation"]["to"] == Lane.SAMPLING
        assert "epsilon" in report["degradation"]

    def test_terminal_lane_still_raises_with_degrade_on(self):
        # The scalar lane has no degradation target: the breach propagates
        # even when degradation is enabled.
        engine = small_engine(degrade=True, timeout_ms=0)
        with pytest.raises(QueryTimeoutError):
            engine.answer(realestate.Q1, "by-tuple", "distribution")
        assert engine.context.last_record.degraded is None

    def test_array_body_deadline_propagates_with_degrade_on(self):
        # The deadline expires inside the array-backed COUNT DP, which
        # checks it per row. The array body runs inside the scalar lane,
        # so there is no lane to degrade to: the breach propagates.
        pytest.importorskip("numpy")
        engine = synthetic_engine(
            num_tuples=16, vectorize=True, degrade=True, timeout_ms=0
        )
        query = "SELECT COUNT(*) FROM MED WHERE value < 500"
        assert engine.plan(query, "by-tuple", "distribution").lane == (
            Lane.SCALAR
        )
        with pytest.raises(QueryTimeoutError):
            engine.answer(query, "by-tuple", "distribution")
        assert engine.context.last_record.degraded is None

    def test_resource_breach_that_every_target_repeats_propagates(self):
        # max_rows trips the scalar lane too, so a degraded plan
        # re-breaches everywhere and the last error surfaces.
        engine = small_engine(degrade=True, max_rows=1)
        with pytest.raises(BudgetExceededError):
            engine.answer(realestate.Q1, "by-tuple", "range")


class TestBatchResult:
    GOOD = realestate.Q1
    BAD = "SELECT SUM(listPrice) FROM T1 WHERE date < '2008-1-20'"  # intractable without fallbacks

    def test_sequential_default_still_raises(self):
        engine = small_engine()
        with pytest.raises(IntractableError):
            engine.answer_many(
                [self.GOOD, self.BAD], "by-tuple", "distribution"
            )

    def test_return_errors_collects_typed_errors_in_order(self):
        engine = small_engine()
        batch = engine.answer_many(
            [self.GOOD, self.BAD, self.GOOD],
            "by-tuple",
            "distribution",
            return_errors=True,
        )
        assert isinstance(batch, BatchResult)
        assert len(batch) == 3
        assert not batch.ok
        [(index, error)] = batch.errors
        assert index == 1
        assert isinstance(error, IntractableError)
        assert len(batch.answers) == 2
        assert batch.answers[0].approx_equal(batch.answers[1])
        assert "1 failed" in repr(batch)
        with pytest.raises(IntractableError):
            batch.raise_first()

    def test_parallel_batch_survives_bad_query(self):
        engine = small_engine()
        batch = engine.answer_many(
            [self.GOOD, self.BAD, self.GOOD],
            "by-tuple",
            "distribution",
            parallel=True,
        )
        assert len(batch) == 3
        assert [index for index, _ in batch.errors] == [1]
        assert engine.metrics_snapshot()["batch.query_error"] == 1

    def test_all_good_batch_is_ok(self):
        engine = small_engine()
        batch = engine.answer_many(
            [self.GOOD, self.GOOD], "by-tuple", "range", parallel=True
        )
        assert batch.ok
        assert batch.raise_first() is batch
        assert batch.errors == []
