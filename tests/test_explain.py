"""EXPLAIN / EXPLAIN ANALYZE and the pipeline's metric accounting.

Covers the observability *contract* of the answering pipeline:

* :meth:`ExecutionPlan.to_dict` for flat and nested plans;
* ``engine.explain`` / ``engine.explain_analyze`` across all six
  semantics cells — executed lane, per-span timings, non-empty metric
  deltas, and plan-cache miss-then-hit convergence under ``repeat``;
* cache hit/miss accounting across ``prepare()`` and ``answer_many()``;
* the ``invalidate()``/``close()`` regression: per-context metric state
  resets while the process-wide registry keeps its totals;
* span nesting under the nested lanes, and the PTIME lane's array body
  declining to its row walk inside one span;
* golden ``--explain`` CLI output per aggregate and an
  ``--explain-analyze`` CLI smoke test.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core.engine import AggregationEngine
from repro.core.planner import Lane
from repro.core.semantics import AggregateSemantics, MappingSemantics
from repro.data import realestate, synthetic
from repro.exceptions import EvaluationError
from repro.obs import metrics, trace
from repro.obs.trace import InMemorySink, use_sink
from repro.schema.serialize import save_pmapping
from repro.sql.ast import AggregateOp
from repro.storage.csv_io import save_table_csv

ALL_CELLS = [
    (msem, asem) for msem in MappingSemantics for asem in AggregateSemantics
]


@pytest.fixture
def engine(ds1, pm1):
    with AggregationEngine([ds1], pm1) as engine:
        yield engine


@pytest.fixture
def workload_files(tmp_path):
    """A small synthetic workload saved as (csv, mapping.json, queries)."""
    workload = synthetic.generate_workload(30, 4, 2, seed=1)
    csv_path = tmp_path / "data.csv"
    map_path = tmp_path / "mapping.json"
    save_table_csv(workload.table, csv_path)
    save_pmapping(workload.pmapping, map_path)
    return str(csv_path), str(map_path), workload


class TestPlanToDict:
    def test_flat_scalar_plan(self, engine, q1):
        plan = engine.plan(
            q1, MappingSemantics.BY_TUPLE, AggregateSemantics.RANGE
        )
        data = plan.to_dict()
        assert data["query"] == q1.to_sql()
        assert data["cell"] == {
            "op": "COUNT",
            "mapping_semantics": "by-tuple",
            "aggregate_semantics": "range",
        }
        assert data["lane"] == Lane.SCALAR
        assert data["complexity"] == "PTIME"
        assert data["algorithm"] == "ByTupleRangeCOUNT"
        assert data["exact"] is True
        assert data["paper_reference"] == "Figure 2"
        assert data["fallback_chain"] == [Lane.SCALAR]
        assert data["fallback"] is None
        assert data["inner"] is None
        json.dumps(data)  # JSON-ready, by contract

    def test_nested_plan_exposes_inner(self, ds2, pm2, q2):
        with AggregationEngine([ds2], pm2) as engine:
            data = engine.plan(
                q2, MappingSemantics.BY_TUPLE, AggregateSemantics.RANGE
            ).to_dict()
        assert data["lane"] == Lane.NESTED_RANGE
        assert data["inner"] is not None
        assert data["inner"]["cell"]["aggregate_semantics"] == "range"
        assert data["inner"]["inner"] is None
        json.dumps(data)


class TestEngineExplain:
    def test_explain_is_the_plan_dict(self, engine, q1):
        cell = (MappingSemantics.BY_TUPLE, AggregateSemantics.DISTRIBUTION)
        assert engine.explain(q1, *cell) == engine.plan(q1, *cell).to_dict()

    def test_explain_does_not_execute(self, engine, q1):
        sink = InMemorySink()
        with use_sink(sink):
            engine.explain(
                q1, MappingSemantics.BY_TUPLE, AggregateSemantics.RANGE
            )
        assert sink.find("execute.scalar") == []


class TestExplainAnalyze:
    @pytest.mark.parametrize("cell", ALL_CELLS)
    def test_all_six_cells(self, ds1, pm1, cell):
        # COUNT is PTIME in every Figure 6 cell, so all six execute.
        with AggregationEngine([ds1], pm1) as engine:
            report = engine.explain_analyze(realestate.Q1, *cell)
        assert report["executions"] == 1
        assert report["seconds"] > 0.0
        assert report["answer"]
        lane = report["plan"]["lane"]
        assert lane in (Lane.BY_TABLE, Lane.SCALAR)
        # One root span per execution, with the executed lane inside it.
        (root,) = report["spans"]
        assert root["name"] == "answer"
        names = _span_names(root)
        assert f"execute.{lane}" in names
        # Non-empty metric deltas, including the plan-cache miss and the
        # lane/cell selection counters.
        assert report["metrics"]["plan.cache.miss"] == 1
        assert report["metrics"][f"planner.decision.{lane}"] == 1
        cell_key = "plan.cell.COUNT.{}.{}".format(cell[0].value, cell[1].value)
        assert report["metrics"][cell_key] == 1

    def test_repeat_shows_cache_convergence(self, engine, q1):
        report = engine.explain_analyze(
            q1,
            MappingSemantics.BY_TUPLE,
            AggregateSemantics.RANGE,
            repeat=4,
        )
        assert report["executions"] == 4
        assert len(report["spans"]) == 4
        assert report["metrics"]["plan.cache.miss"] == 1
        assert report["metrics"]["plan.cache.hit"] == 3
        assert report["metrics"]["compile.cache.miss"] == 1
        assert report["metrics"]["compile.cache.hit"] == 3

    def test_warm_engine_reports_only_hits(self, engine, q1):
        cell = (MappingSemantics.BY_TUPLE, AggregateSemantics.RANGE)
        engine.answer(q1, *cell)
        report = engine.explain_analyze(q1, *cell, repeat=2)
        assert "plan.cache.miss" not in report["metrics"]
        assert report["metrics"]["plan.cache.hit"] >= 2

    def test_repeat_must_be_positive(self, engine, q1):
        with pytest.raises(EvaluationError):
            engine.explain_analyze(
                q1,
                MappingSemantics.BY_TUPLE,
                AggregateSemantics.RANGE,
                repeat=0,
            )

    def test_restores_previous_sink(self, engine, q1):
        outer = InMemorySink()
        with use_sink(outer):
            engine.explain_analyze(
                q1, MappingSemantics.BY_TUPLE, AggregateSemantics.RANGE
            )
            assert trace.current_sink() is outer
        # The analyzed spans went to the temporary sink, not the outer one.
        assert outer.find("execute.scalar") == []


class TestCacheAccounting:
    CELL = (MappingSemantics.BY_TUPLE, AggregateSemantics.RANGE)

    def test_answer_twice(self, engine, q1):
        engine.answer(q1, *self.CELL)
        engine.answer(q1, *self.CELL)
        snap = engine.metrics_snapshot()
        assert snap["compile.cache.miss"] == 1
        assert snap["compile.cache.hit"] == 1
        assert snap["plan.cache.miss"] == 1
        assert snap["plan.cache.hit"] == 1
        assert snap["planner.decision.scalar"] == 1

    def test_plan_miss_counts_one_lane_decision(self, engine, q1):
        engine.answer(q1, *self.CELL)
        snap = engine.metrics_snapshot()
        decisions = {
            key: value
            for key, value in snap.items()
            if key.startswith("planner.decision.")
        }
        assert decisions == {"planner.decision.scalar": 1}
        assert not [key for key in snap if key.startswith("plan.lane.")]

    def test_prepare_then_answer_many(self, engine, q1):
        engine.prepare(q1)
        engine.prepare(q1)  # cached handle
        snap = engine.metrics_snapshot()
        assert snap["prepared.cache.miss"] == 1
        assert snap["prepared.cache.hit"] == 1
        engine.answer_many([q1, q1, q1], *self.CELL)
        snap = engine.metrics_snapshot()
        assert snap["compile.cache.miss"] == 1
        assert snap["compile.cache.hit"] >= 2
        assert snap["plan.cache.miss"] == 1
        assert snap["plan.cache.hit"] >= 2

    def test_different_cells_are_separate_plans(self, engine, q1):
        engine.answer(q1, MappingSemantics.BY_TUPLE, AggregateSemantics.RANGE)
        engine.answer(
            q1, MappingSemantics.BY_TUPLE, AggregateSemantics.EXPECTED_VALUE
        )
        snap = engine.metrics_snapshot()
        assert snap["plan.cache.miss"] == 2
        assert "plan.cache.hit" not in snap
        assert snap["compile.cache.miss"] == 1
        assert snap["compile.cache.hit"] == 1


class TestPerContextReset:
    """The satellite bugfix: invalidate()/close() reset per-context metrics."""

    CELL = (MappingSemantics.BY_TUPLE, AggregateSemantics.RANGE)

    def test_invalidate_resets_engine_metrics(self, engine, q1):
        engine.answer(q1, *self.CELL)
        assert engine.metrics_snapshot()  # populated
        engine.context.invalidate()
        assert engine.metrics_snapshot() == {}
        # A fresh run repopulates from zero (caches were dropped too).
        engine.answer(q1, *self.CELL)
        assert engine.metrics_snapshot()["compile.cache.miss"] == 1

    def test_close_resets_engine_metrics(self, ds1, pm1, q1):
        engine = AggregationEngine([ds1], pm1)
        engine.answer(q1, *self.CELL)
        engine.close()
        assert engine.metrics_snapshot() == {}

    def test_global_registry_survives_context_reset(self, ds1, pm1, q1):
        previous = metrics.set_registry(metrics.MetricsRegistry())
        try:
            engine = AggregationEngine([ds1], pm1)
            engine.answer(q1, *self.CELL)
            engine.context.invalidate()
            engine.close()
            # The per-context state is gone, the global totals are not.
            assert engine.metrics_snapshot() == {}
            assert metrics.snapshot()["compile.cache.miss"] == 1
        finally:
            metrics.set_registry(previous)


class TestSpanNesting:
    def test_nested_lane_spans(self, ds2, pm2, q2):
        sink = InMemorySink()
        with AggregationEngine([ds2], pm2) as engine, use_sink(sink):
            engine.answer(
                q2, MappingSemantics.BY_TUPLE, AggregateSemantics.RANGE
            )
        (root,) = sink.roots
        assert root.name == "answer"
        (nested,) = sink.find("execute.nested-range")
        assert nested.attributes["lane"] == Lane.NESTED_RANGE
        # The nested lane's work happened inside the answer span.
        assert nested in list(root.walk())

    def test_array_decline_runs_row_walk_inside_the_lane_span(
        self, ds1, pm1, q1, monkeypatch
    ):
        from repro.core import vectorized

        def decline(*args, **kwargs):
            raise vectorized.VectorizationError("forced decline")

        monkeypatch.setattr(vectorized, "answer_problem", decline)
        sink = InMemorySink()
        with AggregationEngine([ds1], pm1, vectorize=True) as engine, \
                use_sink(sink):
            answer = engine.answer(
                q1, MappingSemantics.BY_TUPLE, AggregateSemantics.RANGE
            )
            snap = engine.metrics_snapshot()
        assert answer.as_tuple() == (1, 3)
        assert len(sink.find("execute.scalar")) == 1
        assert snap["vectorized.fallback"] == 1
        assert "vectorized.hit" not in snap
        assert not any(key.startswith("execute.fallback.") for key in snap)

    def test_vectorized_hit_has_no_fallback_span(self, ds1, pm1, q1):
        sink = InMemorySink()
        with AggregationEngine([ds1], pm1, vectorize=True) as engine, \
                use_sink(sink):
            engine.answer(
                q1, MappingSemantics.BY_TUPLE, AggregateSemantics.RANGE
            )
            snap = engine.metrics_snapshot()
        (span,) = sink.find("execute.scalar")
        assert not [c for c in span.children if c.name.startswith("execute.")]
        assert snap["vectorized.hit"] == 1
        assert "vectorized.fallback" not in snap

GOLDEN_EXPLAIN = {
    AggregateOp.COUNT: (
        "ByTupleRangeCOUNT\n"
        "  cell: (COUNT, by-tuple, range)\n"
        "  lane: scalar\n"
        "  complexity: PTIME\n"
        "  fallback chain: scalar\n"
        "  estimate: rows=30 worlds=0 support=2 cost=60\n"
        "  paper: Figure 2\n"
    ),
    AggregateOp.SUM: (
        "ByTupleRangeSUM\n"
        "  cell: (SUM, by-tuple, range)\n"
        "  lane: scalar\n"
        "  complexity: PTIME\n"
        "  fallback chain: scalar\n"
        "  estimate: rows=30 worlds=0 support=2 cost=60\n"
        "  paper: Figure 4\n"
    ),
    AggregateOp.AVG: (
        "ByTupleRangeAVG\n"
        "  cell: (AVG, by-tuple, range)\n"
        "  lane: scalar\n"
        "  complexity: PTIME\n"
        "  fallback chain: scalar\n"
        "  estimate: rows=30 worlds=0 support=2 cost=60\n"
        "  paper: Section IV-B\n"
    ),
    AggregateOp.MIN: (
        "ByTupleRangeMIN\n"
        "  cell: (MIN, by-tuple, range)\n"
        "  lane: scalar\n"
        "  complexity: PTIME\n"
        "  fallback chain: scalar\n"
        "  estimate: rows=30 worlds=0 support=2 cost=60\n"
        "  paper: Section IV-B\n"
    ),
    AggregateOp.MAX: (
        "ByTupleRangeMAX\n"
        "  cell: (MAX, by-tuple, range)\n"
        "  lane: scalar\n"
        "  complexity: PTIME\n"
        "  fallback chain: scalar\n"
        "  estimate: rows=30 worlds=0 support=2 cost=60\n"
        "  paper: Figure 5\n"
    ),
}


class TestCliExplain:
    @pytest.mark.parametrize("op", list(AggregateOp))
    def test_golden_explain_per_aggregate(self, workload_files, capsys, op):
        csv_path, map_path, workload = workload_files
        assert main([
            "query", "--data", csv_path, "--mapping", map_path,
            "--query", workload.query(op),
            "--mapping-semantics", "by-tuple",
            "--aggregate-semantics", "range",
            "--explain",
        ]) == 0
        assert capsys.readouterr().out == GOLDEN_EXPLAIN[op]

    def test_explain_by_table(self, workload_files, capsys):
        csv_path, map_path, workload = workload_files
        assert main([
            "query", "--data", csv_path, "--mapping", map_path,
            "--query", workload.query(AggregateOp.COUNT),
            "--mapping-semantics", "by-table",
            "--aggregate-semantics", "distribution",
            "--explain",
        ]) == 0
        out = capsys.readouterr().out
        assert "lane: by-table" in out
        assert "fallback chain: by-table" in out

    def test_explain_analyze_smoke(self, workload_files, capsys):
        csv_path, map_path, workload = workload_files
        assert main([
            "query", "--data", csv_path, "--mapping", map_path,
            "--query", workload.query(AggregateOp.COUNT),
            "--mapping-semantics", "by-tuple",
            "--aggregate-semantics", "range",
            "--explain-analyze", "--repeat", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "plan:" in out
        assert "answer: RangeAnswer" in out
        assert "executions: 3 in" in out
        assert "execute.scalar" in out
        assert "plan.cache.hit +2" in out
        assert "plan.cache.miss +1" in out

    def test_explain_rejects_stream(self, workload_files, capsys):
        csv_path, map_path, workload = workload_files
        assert main([
            "query", "--data", csv_path, "--mapping", map_path,
            "--query", workload.query(AggregateOp.COUNT),
            "--mapping-semantics", "by-tuple",
            "--aggregate-semantics", "range",
            "--stream", "--explain",
        ]) == 2
        assert "drop --stream" in capsys.readouterr().err


def _span_names(span_dict: dict) -> set[str]:
    names = {span_dict["name"]}
    for child in span_dict["children"]:
        names |= _span_names(child)
    return names
