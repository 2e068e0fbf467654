"""End-to-end telemetry: concurrent tracing, the query log, and the
Prometheus exporter.

The :mod:`repro.obs` primitives in isolation are covered by
``test_obs.py``; this module covers what sits on top — trace context
surviving threads, the always-on structured query log, and metrics
exposition.
"""

from __future__ import annotations

import json
import pickle
import threading

import pytest

from repro.core.engine import AggregationEngine
from repro.core.guard import Budget
from repro.data import synthetic
from repro.exceptions import BudgetExceededError
from repro.obs import export, metrics, trace
from repro.obs.export import render_prometheus, sanitize
from repro.obs.metrics import MetricsRegistry
from repro.obs.querylog import QueryLog, QueryRecord, query_digest
from repro.obs.trace import InMemorySink
from repro.sql.ast import AggregateOp


@pytest.fixture(scope="module")
def workload():
    return synthetic.generate_workload(4000, 6, 4, seed=0)


@pytest.fixture(scope="module")
def small_workload():
    return synthetic.generate_workload(300, 6, 4, seed=1)


def _tree_names(span):
    return [s.name for s in span.walk()]


class TestConcurrentTracing:
    def test_two_threads_two_sinks_disjoint_trees(self, small_workload):
        """Simultaneous answers under different sinks never interleave."""
        w = small_workload
        engine = AggregationEngine(w.table, w.pmapping)
        query = w.query(AggregateOp.SUM)
        engine.answer(query, "by-tuple", "range")  # warm the caches
        sinks = [InMemorySink(), InMemorySink()]
        barrier = threading.Barrier(2)
        errors = []

        def answer_traced(sink):
            try:
                with trace.use_sink(sink):
                    barrier.wait(timeout=10)
                    for _ in range(20):
                        engine.answer(query, "by-tuple", "range")
            except Exception as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        threads = [
            threading.Thread(target=answer_traced, args=(sink,))
            for sink in sinks
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        for sink in sinks:
            # Each thread's sink holds exactly its own 20 executions,
            # each a well-formed tree rooted at `answer`.
            assert len(sink.roots) == 20
            for root in sink.roots:
                assert root.name == "answer"
                assert root.seconds > 0.0
                names = _tree_names(root)
                assert "execute.scalar" in names

    def test_thread_without_sink_records_nothing(self, small_workload):
        """A context-local sink does not leak into unrelated threads."""
        w = small_workload
        engine = AggregationEngine(w.table, w.pmapping)
        query = w.query(AggregateOp.COUNT)
        recorded = []

        def answer_untraced():
            recorded.append(trace.current_sink())
            engine.answer(query, "by-tuple", "range")

        with trace.use_sink(InMemorySink()) as sink:
            thread = threading.Thread(target=answer_untraced)
            thread.start()
            thread.join()
            assert len(sink.roots) == 0
        assert recorded == [None]

    def test_answer_many_parallel_propagates_sink(self, small_workload):
        """A sampled batch records one ``answer`` root per query."""
        w = small_workload
        engine = AggregationEngine(
            w.table, w.pmapping, allow_sampling=True, samples=50, seed=3
        )
        queries = [w.query(op) for op in
                   (AggregateOp.SUM, AggregateOp.MAX, AggregateOp.AVG)]
        with trace.use_sink(InMemorySink()) as sink:
            batch = engine.answer_many(queries, "by-tuple", "distribution")
        assert len(list(batch)) == 3
        roots = [r for r in sink.roots if r.name == "answer"]
        assert len(roots) == 3

    def test_use_sink_none_silences_process_default(self):
        probe = InMemorySink()
        trace.install_sink(probe)
        try:
            with trace.use_sink(None):
                with trace.span("invisible"):
                    pass
            with trace.span("visible"):
                pass
        finally:
            trace.uninstall_sink()
        assert [r.name for r in probe.roots] == ["visible"]

    def test_span_start_ts_wall_clock(self):
        with trace.use_sink(InMemorySink()) as sink:
            with trace.span("stamped"):
                pass
        (root,) = sink.roots
        assert root.start_ts is not None and root.start_ts > 1e9
        assert root.to_dict()["start_ts"] == root.start_ts

    def test_span_pickles_as_closed_tree(self):
        with trace.use_sink(InMemorySink()) as sink:
            with trace.span("parent", shard=3):
                with trace.span("child"):
                    pass
        clone = pickle.loads(pickle.dumps(sink.roots[0]))
        assert _tree_names(clone) == ["parent", "child"]
        assert clone.attributes == {"shard": 3}
        assert clone.seconds == sink.roots[0].seconds


class TestQueryLog:
    def test_success_record(self, small_workload):
        w = small_workload
        engine = AggregationEngine(w.table, w.pmapping)
        query = w.query(AggregateOp.SUM)
        engine.answer(query, "by-tuple", "range")
        (record,) = engine.recent_queries()
        assert record.status == "ok"
        assert record.lane == "scalar"
        assert record.mapping_semantics == "by-tuple"
        assert record.aggregate_semantics == "range"
        assert record.rows == 300
        assert record.error is None and record.breach is None
        assert record.seconds > 0.0
        assert record.ts > 1e9
        assert record.digest == query_digest(record.query)

    def test_error_record_keeps_guard_progress(self, small_workload):
        w = small_workload
        engine = AggregationEngine(w.table, w.pmapping)
        with pytest.raises(BudgetExceededError):
            engine.answer(w.query(AggregateOp.SUM), "by-tuple", "range",
                          budget=Budget(max_rows=10))
        record = engine.recent_queries()[-1]
        assert record.status == "error"
        assert record.error == "BudgetExceededError"
        assert record.breach == "BudgetExceededError"
        assert record.guard["rows"] > 10
        assert record.worlds == record.guard["worlds"]

    def test_degraded_record_carries_epsilon(self):
        w = synthetic.generate_workload(12, 3, 3, seed=2)
        engine = AggregationEngine(
            w.table, w.pmapping, allow_exponential=True, allow_sampling=True,
            max_worlds=20, degrade=True, samples=50,
        )
        engine.answer(w.query(AggregateOp.SUM), "by-tuple", "distribution")
        record = engine.recent_queries()[-1]
        assert record.status == "degraded"
        assert record.lane == "naive"
        assert record.degraded["to"] == "sampling"
        assert record.breach == "BudgetExceededError"
        assert record.epsilon is not None and 0 < record.epsilon < 1

    def test_sampling_lane_records_epsilon(self, small_workload):
        w = small_workload
        engine = AggregationEngine(w.table, w.pmapping, allow_sampling=True,
                                   samples=100)
        engine.answer(w.query(AggregateOp.SUM), "by-tuple", "distribution")
        record = engine.recent_queries()[-1]
        assert record.lane == "sampling"
        from repro.core.sampling import dkw_epsilon

        assert record.epsilon == dkw_epsilon(100)

    def test_ring_buffer_capacity_and_order(self, small_workload):
        w = small_workload
        engine = AggregationEngine(w.table, w.pmapping, query_log_capacity=3)
        for op in (AggregateOp.SUM, AggregateOp.COUNT, AggregateOp.AVG,
                   AggregateOp.MAX):
            engine.answer(w.query(op), "by-tuple", "range")
        records = engine.recent_queries()
        assert len(records) == 3
        assert [r.ts for r in records] == sorted(r.ts for r in records)
        assert engine.recent_queries(2) == records[-2:]
        assert engine.recent_queries(0) == []

    def test_slow_query_jsonl(self, small_workload, tmp_path):
        w = small_workload
        slow_path = tmp_path / "slow.jsonl"
        engine = AggregationEngine(
            w.table, w.pmapping,
            slow_query_ms=0, slow_query_path=str(slow_path),
        )
        engine.answer(w.query(AggregateOp.SUM), "by-tuple", "range")
        engine.answer(w.query(AggregateOp.COUNT), "by-tuple", "range")
        lines = slow_path.read_text().splitlines()
        assert len(lines) == 2
        for line, record in zip(lines, engine.recent_queries()):
            assert json.loads(line) == record.to_dict()

    def test_slow_threshold_filters(self):
        log = QueryLog(slow_ms=1000.0, slow_path="/nonexistent/never.jsonl")
        log.record(QueryRecord(
            ts=0.0, query="q", mapping_semantics="by-tuple",
            aggregate_semantics="range", lane="scalar", status="ok",
            seconds=0.001, rows=1,
        ))  # under threshold: the unwritable path is never touched
        assert len(log) == 1

    def test_record_round_trips_through_json(self):
        record = QueryRecord(
            ts=12.5, query="SELECT COUNT(*) FROM T",
            mapping_semantics="by-table", aggregate_semantics="distribution",
            lane="by-table", status="ok", seconds=0.25, rows=7,
        )
        data = json.loads(json.dumps(record.to_dict()))
        assert data["digest"] == query_digest("SELECT COUNT(*) FROM T")
        assert data["status"] == "ok"
        assert data["epsilon"] is None


class TestExport:
    def test_sanitize(self):
        assert sanitize("plan.cache.hit") == "repro_plan_cache_hit"
        assert sanitize("a-b c") == "repro_a_b_c"

    def test_counter_gauge_histogram_families(self):
        registry = MetricsRegistry()
        registry.inc("plan.cache.hit", 3)
        registry.set_gauge("pool.size", 4.0)
        for value in (1.0, 2.0, 3.0):
            registry.observe("merge.ns", value)
        text = render_prometheus(registry)
        assert text.endswith("\n")
        assert "# TYPE repro_plan_cache_hit_total counter" in text
        assert "repro_plan_cache_hit_total 3" in text
        assert "# TYPE repro_pool_size gauge" in text
        assert "repro_pool_size 4.0" in text
        assert "# TYPE repro_merge_ns summary" in text
        assert 'repro_merge_ns{quantile="0.5"} 2.0' in text
        assert "repro_merge_ns_sum 6.0" in text
        assert "repro_merge_ns_count 3" in text

    def test_empty_histogram_omits_quantiles(self):
        registry = MetricsRegistry()
        registry.histogram("quiet")
        text = render_prometheus(registry)
        assert "quantile" not in text
        assert "repro_quiet_count 0" in text

    def test_default_registry(self):
        registry = MetricsRegistry()
        with metrics.use_registry(registry):
            metrics.inc("scoped.counter")
            text = render_prometheus()
        assert "repro_scoped_counter_total 1" in text

# -- Prometheus 0.0.4 exposition grammar ---------------------------------

import math  # noqa: E402
import re  # noqa: E402

_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SAMPLE_LINE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})? (\S+)$"
)
#: One label pair; the value alternation admits only the three escapes
#: the exposition format defines (backslash, double-quote, newline).
_LABEL_PAIR = re.compile(
    r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:\\[\\"n]|[^"\\\n])*)"'
)
_SAMPLE_TYPES = {"counter", "gauge", "summary", "histogram", "untyped"}


def parse_exposition(text):
    """A strict stdlib parser for the Prometheus 0.0.4 text format.

    Returns ``{family name: {"type": ..., "help": ..., "samples":
    [(name, labels, value), ...]}}``, raising ``AssertionError`` with
    the offending line on any grammar violation: missing or reordered
    ``# HELP``/``# TYPE`` headers, duplicate families, malformed sample
    lines or label escaping, unparseable values, samples that do not
    belong to the family being emitted, or counters without the
    conventional ``_total`` suffix.
    """
    assert text.endswith("\n"), "exposition must end with a newline"
    families: dict[str, dict] = {}
    current: str | None = None
    for line in text.splitlines():
        assert line == line.strip(), f"stray whitespace: {line!r}"
        if line.startswith("# HELP "):
            name, _, docstring = line[len("# HELP "):].partition(" ")
            assert _METRIC_NAME.match(name), f"bad family name: {line!r}"
            assert name not in families, f"duplicate family: {name}"
            assert docstring, f"HELP without docstring: {line!r}"
            families[name] = {"type": None, "help": docstring, "samples": []}
            current = name
        elif line.startswith("# TYPE "):
            name, _, kind = line[len("# TYPE "):].partition(" ")
            assert name == current, f"TYPE not preceded by its HELP: {line!r}"
            family = families[name]
            assert family["type"] is None, f"duplicate TYPE: {line!r}"
            assert not family["samples"], f"TYPE after samples: {line!r}"
            assert kind in _SAMPLE_TYPES, f"unknown type: {line!r}"
            family["type"] = kind
            if kind == "counter":
                assert name.endswith("_total"), (
                    f"counter without _total suffix: {name}"
                )
        elif line.startswith("#"):
            continue  # bare comments are legal anywhere
        else:
            match = _SAMPLE_LINE.match(line)
            assert match, f"unparseable sample line: {line!r}"
            name, labels_text, value_text = match.groups()
            assert current is not None, f"sample before any family: {line!r}"
            family = families[current]
            assert family["type"] is not None, f"sample before TYPE: {line!r}"
            if family["type"] == "summary":
                allowed = (current, current + "_sum", current + "_count")
                assert name in allowed, (
                    f"summary sample {name!r} outside family {current!r}"
                )
            else:
                assert name == current, (
                    f"sample {name!r} outside family {current!r}"
                )
            labels = {}
            if labels_text is not None:
                matched = _LABEL_PAIR.findall(labels_text)
                rebuilt = ",".join(
                    f'{key}="{value}"' for key, value in matched
                )
                assert rebuilt == labels_text.rstrip(","), (
                    f"malformed or unescaped labels: {line!r}"
                )
                labels = dict(matched)
            try:
                value = float(value_text)
            except ValueError as error:
                raise AssertionError(
                    f"unparseable value: {line!r}"
                ) from error
            family["samples"].append((name, labels, value))
    for name, family in families.items():
        assert family["type"] is not None, f"family without TYPE: {name}"
        assert family["samples"], f"family without samples: {name}"
    return families


class TestExpositionGrammar:
    def test_parser_rejects_violations(self):
        parse_exposition(
            "# HELP m_total doc\n# TYPE m_total counter\nm_total 1\n"
        )
        bad = [
            "m_total 1\n",  # sample with no family
            "# HELP m_total doc\nm_total 1\n",  # no TYPE
            "# HELP m doc\n# TYPE m counter\nm 1\n",  # counter w/o _total
            "# HELP m doc\n# TYPE m gauge\nother 1\n",  # foreign sample
            "# HELP m doc\n# TYPE m gauge\nm 1",  # no trailing newline
            "# HELP m doc\n# TYPE m gauge\nm x\n",  # bad value
            '# HELP m doc\n# TYPE m gauge\nm{l="a\nb"} 1\n',  # raw newline
            "# HELP m doc\n# TYPE m bogus\nm 1\n",  # unknown type
        ]
        for text in bad:
            with pytest.raises(AssertionError):
                parse_exposition(text)

    def test_escaped_label_values_accepted(self):
        families = parse_exposition(
            '# HELP m doc\n# TYPE m gauge\nm{l="a\\"b\\\\c\\nd"} 2.0\n'
        )
        ((_, labels, value),) = families["m"]["samples"]
        assert labels == {"l": 'a\\"b\\\\c\\nd'}
        assert value == 2.0

    def test_real_workload_exposition_is_grammatical(self, workload):
        """A full engine run — scalar and sampling lanes — must export a
        grammatical exposition carrying the planner's decision counters
        and misestimation histograms."""
        w = workload
        engine = AggregationEngine(
            w.table, w.pmapping, allow_sampling=True, samples=20,
        )
        with engine:
            engine.answer(w.query(AggregateOp.SUM), "by-tuple", "range")
            engine.answer(w.query(AggregateOp.COUNT), "by-tuple", "range")
            engine.answer(
                w.query(AggregateOp.SUM), "by-tuple", "distribution"
            )
            text = export.render_prometheus(engine.context.metrics)
        families = parse_exposition(text)
        for name, family in families.items():
            assert name.startswith("repro_")
            for _, _, value in family["samples"]:
                assert not math.isinf(value), f"infinite sample in {name}"
        counters = {
            name for name, family in families.items()
            if family["type"] == "counter"
        }
        assert "repro_planner_decision_scalar_total" in counters
        assert "repro_planner_decision_sampling_total" in counters
        assert "repro_planner_executed_scalar_total" in counters
        summaries = {
            name for name, family in families.items()
            if family["type"] == "summary"
        }
        assert "repro_planner_misestimate_rows" in summaries
        assert "repro_planner_misestimate_cost" in summaries
        rows = families["repro_planner_misestimate_rows"]["samples"]
        quantiles = [s for s in rows if s[1].get("quantile")]
        assert quantiles, "populated histogram must emit quantile samples"
