"""Built-in benchmark suites for the :mod:`repro.bench.harness` registry.

==============  =========================================================
suite           covers
==============  =========================================================
quick           the CI regression gate: sub-second cases across the
                compile/plan/execute pipeline, kernels, matcher, and
                streaming (baseline: ``BENCH_quick.json``)
obs-overhead    telemetry on vs off: the same prepared answer loop with
                no sink, under an in-memory sink, and the query-log /
                exporter primitives (baseline: ``BENCH_obs_overhead.json``)
==============  =========================================================

The repository benchmark (``perfbench/``, ``BENCHMARK.json``) covers the
by-tuple scan, six-semantics and served workloads; the paper's figures
are reproduced by :mod:`repro.bench.experiments`, and the
``benchmarks/bench_*.py`` pytest-benchmark functions time the remaining
slices.

Importing this module registers every suite; the harness does so lazily
on first :func:`~repro.bench.harness.get_suite` call.  Case factories
build their workload *inside* the factory (untimed), so listing suites
stays free.
"""

from __future__ import annotations

from repro.bench.harness import Suite, register_suite


# -- quick: the CI gate ------------------------------------------------------

quick = register_suite(Suite(
    "quick",
    "CI regression gate: pipeline, kernels, matcher, streaming (seconds)",
))


@quick.case("count.range.scalar")
def _quick_count_range():
    from repro.bench.algorithms import get_algorithm
    from repro.bench.contexts import make_synthetic_context

    context = make_synthetic_context(1000, 8, 5)
    runner = get_algorithm("ByTupleRangeCOUNT")
    return (lambda: runner(context)), context.close


@quick.case("sum.range.scalar")
def _quick_sum_range():
    from repro.bench.algorithms import get_algorithm
    from repro.bench.contexts import make_synthetic_context

    context = make_synthetic_context(1000, 8, 5)
    runner = get_algorithm("ByTupleRangeSUM")
    return (lambda: runner(context)), context.close


@quick.case("avg.range.scalar")
def _quick_avg_range():
    from repro.bench.algorithms import get_algorithm
    from repro.bench.contexts import make_synthetic_context

    context = make_synthetic_context(1000, 8, 5)
    runner = get_algorithm("ByTupleRangeAVG")
    return (lambda: runner(context)), context.close


@quick.case("count.distribution.dp")
def _quick_count_dp():
    from repro.bench.algorithms import get_algorithm
    from repro.bench.contexts import make_synthetic_context

    context = make_synthetic_context(300, 8, 5)
    runner = get_algorithm("ByTuplePDCOUNT")
    return (lambda: runner(context)), context.close


@quick.case("engine.prepared.count_range_x20")
def _quick_prepared_reuse():
    from repro.core.engine import AggregationEngine
    from repro.data import synthetic
    from repro.sql.ast import AggregateOp

    workload = synthetic.generate_workload(500, 8, 5, seed=0)
    engine = AggregationEngine([workload.table], workload.pmapping)
    prepared = engine.prepare(workload.query(AggregateOp.COUNT))

    def run():
        for _ in range(20):
            prepared.answer("by-tuple", "range")

    return run, engine.close


@quick.case("engine.answer_six.paper_q1")
def _quick_answer_six():
    from repro.core.engine import AggregationEngine
    from repro.data import realestate

    engine = AggregationEngine(
        [realestate.paper_instance()],
        realestate.paper_pmapping(),
        allow_exponential=True,
    )
    return (lambda: engine.answer_six(realestate.Q1)), engine.close


@quick.case("matcher.paper_pmapping")
def _quick_matcher():
    from repro.data import realestate
    from repro.schema.correspondence import AttributeCorrespondence
    from repro.schema.matcher import MatcherConfig, SchemaMatcher

    matcher = SchemaMatcher(
        realestate.paper_instance(),
        realestate.T1_RELATION,
        known=[
            AttributeCorrespondence("ID", "propertyID"),
            AttributeCorrespondence("price", "listPrice"),
            AttributeCorrespondence("agentPhone", "phone"),
        ],
        config=MatcherConfig(top_k=3),
    )
    return matcher.pmapping


@quick.case("streaming.sum.range")
def _quick_streaming():
    from repro.bench.contexts import make_synthetic_context
    from repro.core.semantics import AggregateSemantics
    from repro.core.streaming import answer_stream
    from repro.sql.ast import AggregateOp

    context = make_synthetic_context(1000, 8, 5)

    def run():
        return answer_stream(
            iter(context.table.row_tuples()),
            context.pmapping,
            context.query(AggregateOp.SUM),
            AggregateSemantics.RANGE,
        )

    return run, context.close


# -- obs-overhead -------------------------------------------------------------

obs_overhead = register_suite(Suite(
    "obs-overhead",
    "telemetry on vs off: prepared answers with/without a sink, plus the "
    "query-log and Prometheus-exporter primitives (BENCH_obs_overhead.json)",
))


def _obs_answer_case(traced: bool):
    def factory():
        from repro.core.engine import AggregationEngine
        from repro.data import synthetic
        from repro.obs import trace
        from repro.sql.ast import AggregateOp

        workload = synthetic.generate_workload(1000, 8, 5, seed=0)
        engine = AggregationEngine([workload.table], workload.pmapping)
        prepared = engine.prepare(workload.query(AggregateOp.SUM))
        prepared.answer("by-tuple", "range")  # pin vectors untimed

        def run_plain():
            for _ in range(50):
                prepared.answer("by-tuple", "range")

        def run_traced():
            # A fresh sink per repeat: capacity never saturates into
            # deque-eviction noise, and every span is really recorded.
            with trace.use_sink(trace.InMemorySink(capacity=1024)):
                run_plain()

        return (run_traced if traced else run_plain), engine.close

    return factory


obs_overhead.case("answer50.sink_off", repeats=5, warmup=1)(
    _obs_answer_case(traced=False)
)
obs_overhead.case("answer50.sink_on", repeats=5, warmup=1)(
    _obs_answer_case(traced=True)
)


@obs_overhead.case("querylog.record_x1000", repeats=5, warmup=1)
def _obs_querylog():
    from repro.obs import querylog

    log = querylog.QueryLog(capacity=256)
    record = querylog.QueryRecord(
        ts=0.0, query="SELECT SUM(value) FROM MED", lane="scalar",
        mapping_semantics="by-tuple", aggregate_semantics="range",
        status="ok", seconds=0.001, rows=1000,
    )

    def run():
        for _ in range(1000):
            log.record(record)

    return run


@obs_overhead.case("export.render_prometheus", repeats=5, warmup=1)
def _obs_export():
    from repro.obs import export
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    for index in range(100):
        registry.inc(f"bench.counter.{index}", index)
        registry.set_gauge(f"bench.gauge.{index}", float(index))
    for index in range(20):
        histogram = registry.histogram(f"bench.hist.{index}")
        for value in range(200):
            histogram.observe(float(value))

    return lambda: export.render_prometheus(registry)
