"""Tests for the benchmark harness (:mod:`repro.bench`)."""

from __future__ import annotations

import pytest

from repro.bench.algorithms import ALGORITHM_NAMES, BenchContext, get_algorithm
from repro.bench.reporting import (
    ShapeCheck,
    check_blows_up,
    check_dominates,
    check_growth_at_most_linear,
    check_growth_superlinear,
    check_stays_fast,
    format_sweep,
)
from repro.bench.runner import SweepResult, TimingStats, run_sweep, time_once, time_stats
from repro.data import synthetic
from repro.exceptions import EvaluationError


@pytest.fixture
def context():
    # Small enough (2^8 sequences) for the naive exponential algorithms.
    workload = synthetic.generate_workload(8, 6, 2, seed=1)
    ctx = BenchContext(workload.table, workload.pmapping, workload.queries)
    yield ctx
    ctx.close()


class TestRegistry:
    def test_known_names(self):
        for name in ("ByTupleRangeCOUNT", "ByTuplePDCOUNT", "ByTupleExpValSUM",
                     "ByTuplePDMAX", "ByTableCOUNT"):
            assert name in ALGORITHM_NAMES

    def test_unknown_name(self):
        with pytest.raises(EvaluationError, match="unknown algorithm"):
            get_algorithm("ByTupleMagic")

    def test_every_algorithm_runs(self, context):
        context.max_sequences = 1 << 20
        for name in ALGORITHM_NAMES:
            answer = get_algorithm(name)(context)
            assert answer is not None, name

    def test_vectorized_context_matches_scalar(self):
        workload = synthetic.generate_workload(40, 6, 3, seed=2)
        scalar_ctx = BenchContext(
            workload.table, workload.pmapping, workload.queries
        )
        vector_ctx = BenchContext(
            workload.table, workload.pmapping, workload.queries,
            use_vectorized=True,
        )
        for name in ("ByTupleRangeCOUNT", "ByTupleRangeSUM",
                     "ByTupleRangeAVG", "ByTupleRangeMAX", "ByTupleRangeMIN"):
            a = get_algorithm(name)(scalar_ctx)
            b = get_algorithm(name)(vector_ctx)
            assert a.low == pytest.approx(b.low), name
            assert a.high == pytest.approx(b.high), name
        scalar_ctx.close()
        vector_ctx.close()

    def test_every_algorithm_plans_to_its_lane(self, context):
        """The paper name says the lane: a PTIME by-tuple algorithm runs
        the scalar lane, Theorem 4's ByTupleExpValSUM and the ByTable*
        band the by-table lane, every other by-tuple cell naive
        enumeration."""
        ptime = {
            "ByTupleRangeCOUNT", "ByTuplePDCOUNT", "ByTupleExpValCOUNT",
            "ByTupleRangeSUM", "ByTupleRangeAVG", "ByTupleRangeMAX",
            "ByTupleRangeMIN",
        }
        for name in ALGORITHM_NAMES:
            if name in ptime:
                expected = "scalar"
            elif name == "ByTupleExpValSUM" or name.startswith("ByTable"):
                expected = "by-table"
            else:
                expected = "naive"
            assert context.plan(name).lane == expected, name

    def test_context_query_missing_op(self, context):
        from repro.sql.ast import AggregateOp

        ctx = BenchContext(
            context.table, context.pmapping,
            {AggregateOp.COUNT: "SELECT COUNT(*) FROM MED"},
        )
        with pytest.raises(EvaluationError, match="no query"):
            ctx.query(AggregateOp.SUM)


class TestRunner:
    def test_time_once_positive(self):
        assert time_once(lambda: sum(range(100))) >= 0.0

    def test_time_stats_orders_min_median_p95(self):
        stats = time_stats(lambda: sum(range(200)), repeats=5, warmup=1)
        assert isinstance(stats, TimingStats)
        assert 0.0 <= stats.min <= stats.median <= stats.p95
        assert stats.to_dict() == {
            "min": stats.min, "median": stats.median, "p95": stats.p95,
        }

    def test_time_stats_counts_calls(self):
        calls = []
        time_stats(lambda: calls.append(1), repeats=3, warmup=2)
        # warmup calls run untimed before the timed repeats
        assert len(calls) == 5

    def test_sweep_records_all_points(self):
        def make_context(n):
            workload = synthetic.generate_workload(int(n), 4, 2, seed=0)
            return BenchContext(
                workload.table, workload.pmapping, workload.queries
            )

        result = run_sweep(
            "#tuples", [5, 10], make_context,
            ["ByTupleRangeCOUNT", "ByTupleRangeSUM"],
            timeout=30.0, verbose=False,
        )
        assert result.xs == [5, 10]
        assert all(len(s) == 2 for s in result.seconds.values())
        assert all(
            value is not None
            for series in result.seconds.values()
            for value in series
        )
        # The sweep keeps the full per-cell distribution alongside the
        # median the figures plot.
        for cell in result.stats["ByTupleRangeCOUNT"]:
            assert cell["min"] <= cell["median"] <= cell["p95"]

    def test_sweep_skips_after_timeout(self):
        def make_context(n):
            workload = synthetic.generate_workload(int(n), 4, 2, seed=0)
            return BenchContext(
                workload.table, workload.pmapping, workload.queries
            )

        result = run_sweep(
            "#tuples", [5, 10, 15], make_context, ["ByTupleRangeCOUNT"],
            timeout=0.0,  # everything exceeds a zero budget
            verbose=False,
        )
        series = result.seconds["ByTupleRangeCOUNT"]
        assert series[0] is not None
        assert series[1] is None and series[2] is None

    def test_sweep_skips_on_budget_error(self):
        def make_context(n):
            workload = synthetic.generate_workload(int(n), 4, 2, seed=0)
            context = BenchContext(
                workload.table, workload.pmapping, workload.queries
            )
            context.max_sequences = 1  # naive algorithms must refuse
            return context

        result = run_sweep(
            "#tuples", [4, 6], make_context, ["ByTuplePDSUM"],
            timeout=30.0, verbose=False,
        )
        assert result.seconds["ByTuplePDSUM"] == [None, None]

    def test_last_defined(self):
        result = SweepResult("x", [1, 2, 3], {"a": [0.1, 0.2, None]})
        assert result.last_defined("a") == 0.2
        assert result.series("a") == [(1, 0.1), (2, 0.2), (3, None)]

    def test_json_round_trip(self, tmp_path):
        result = SweepResult("#tuples", [10, 20], {"a": [0.1, None]})
        path = tmp_path / "sweep.json"
        result.save_json(path)
        import json

        restored = SweepResult.from_dict(json.loads(path.read_text()))
        assert restored.x_label == result.x_label
        assert restored.xs == result.xs
        assert restored.seconds == result.seconds


class TestReporting:
    def _result(self):
        return SweepResult(
            "#tuples",
            [10, 100],
            {"fast": [0.001, 0.01], "slow": [0.01, 5.0], "dead": [0.2, None]},
        )

    def test_format_sweep_contains_cells(self):
        text = format_sweep(self._result(), title="demo")
        assert "demo" in text
        assert "skipped" in text
        assert "5.0000" in text

    def test_check_stays_fast(self):
        result = self._result()
        assert check_stays_fast(result, "fast", 1.0).passed
        assert not check_stays_fast(result, "slow", 1.0).passed
        assert not check_stays_fast(result, "dead", 1.0).passed

    def test_check_growth(self):
        result = self._result()
        assert check_growth_at_most_linear(result, "fast").passed
        assert check_growth_superlinear(result, "slow").passed
        assert check_growth_superlinear(result, "dead").passed  # skipped

    def test_check_blows_up(self):
        assert check_blows_up(self._result(), "dead").passed
        assert check_blows_up(self._result(), "slow").passed

    def test_check_dominates(self):
        result = self._result()
        assert check_dominates(result, "slow", "fast", factor=10).passed
        assert not check_dominates(result, "fast", "slow").passed

    def test_check_dominates_skipped_slower(self):
        result = SweepResult("x", [1], {"s": [None], "f": [0.1]})
        assert check_dominates(result, "s", "f").passed

    def test_shape_check_repr(self):
        assert "[PASS]" in repr(ShapeCheck("ok", True))
        assert "[FAIL]" in repr(ShapeCheck("bad", False, "detail"))


@pytest.fixture
def recorded_sweeps(monkeypatch):
    """The :class:`SweepResult` of every sweep a figure driver runs."""
    from repro.bench import experiments

    results = []

    def recording(*args, **kwargs):
        result = run_sweep(*args, **kwargs)
        results.append(result)
        return result

    monkeypatch.setattr(experiments, "run_sweep", recording)
    return results


class TestExperimentSmoke:
    def test_figure6(self, capsys):
        from repro.bench.experiments import figure6

        assert figure6()
        assert "PTIME" in capsys.readouterr().out

    def test_table3(self, capsys):
        from repro.bench.experiments import table3

        assert table3()

    def test_ablation_avg_counter(self, capsys):
        from repro.bench.experiments import ablation_avg_counter_method

        assert ablation_avg_counter_method(trials=10, verbose=False)

    def test_tiny_figure7(self):
        from repro.bench.experiments import figure7

        # The span must be wide enough for the exponential algorithms'
        # superlinear growth to register (2^12 / 2^4 = 256x work).
        assert figure7(tuple_counts=(4, 8, 12), timeout=5.0, verbose=False)

    def test_tiny_figure8(self):
        from repro.bench.experiments import figure8

        # m^6 blow-up: 4^6 / 2^6 = 64x work for 2x mappings.
        assert figure8(mapping_counts=(2, 4), timeout=5.0, verbose=False)

    def test_tiny_figure9(self):
        from repro.bench.experiments import figure9

        # A wide size span (8x) keeps the quadratic-vs-linear separation
        # robust against scheduler noise on a loaded machine.
        assert figure9(
            tuple_counts=(200, 800, 1600), num_attributes=10,
            num_mappings=5, timeout=20.0, verbose=False,
        )

    def test_tiny_figure10(self, recorded_sweeps):
        """The wide-table sweep (vectorized + SQLite, one engine pair per
        #mappings point) runs, and every algorithm times its first point."""
        from repro.bench.experiments import _FIG10_ALGORITHMS, figure10

        passed = figure10(
            mapping_counts=(2, 4), num_tuples=300, num_attributes=12,
            timeout=5.0, verbose=False,
        )
        assert passed in (True, False)
        [result] = recorded_sweeps
        for name in _FIG10_ALGORITHMS:
            assert result.seconds[name][0] is not None, name

    @pytest.mark.parametrize("vectorized", [False, True])
    def test_tiny_large_tuple_sweep(self, recorded_sweeps, vectorized):
        """The Figure 11/12 sweep runs scalar and vectorized, and every
        algorithm times its first point."""
        from repro.bench.experiments import _FIG11_ALGORITHMS, _large_tuple_sweep

        passed = _large_tuple_sweep(
            "Figure 11", (300, 600), 8, 3, vectorized=vectorized,
            timeout=5.0, seed=0, verbose=False, notes="",
        )
        assert passed in (True, False)
        [result] = recorded_sweeps
        for name in _FIG11_ALGORITHMS:
            assert result.seconds[name][0] is not None, name

    def test_contexts_helpers(self):
        from repro.bench.contexts import make_ebay_context, make_synthetic_context

        synthetic_context = make_synthetic_context(
            20, 4, 2, use_vectorized=True, prematerialize=True
        )
        snapshots = synthetic_context.engine().context.columnar_cache
        assert [c.row_count for c in snapshots.values()] == [20]
        assert synthetic_context.engine("sqlite").context.backend is not None
        synthetic_context.close()
        ebay_context = make_ebay_context(6)
        assert len(ebay_context.table) == 6
        ebay_context.close()
