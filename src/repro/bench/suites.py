"""Built-in benchmark suites for the :mod:`repro.bench.harness` registry.

One suite per slice of the system, mirroring the ``benchmarks/bench_*.py``
scripts (each script names its suite in a ``HARNESS_SUITE`` constant and
forwards ``--harness`` runs here):

==============  =========================================================
suite           covers
==============  =========================================================
quick           the CI regression gate: sub-second cases across the
                compile/plan/execute pipeline, kernels, matcher, and
                streaming (baseline: ``BENCH_quick.json``)
engine          per-cell engine answering on the paper instance (fig 6)
exponential     the naive enumeration algorithms at tiny sizes (figs 7-8)
kernels         the PTIME scalar and vectorized kernels at medium size
                (figs 9-12, ablation_vectorized)
matcher         similarity, assignment, and top-K ranking (bench_matcher)
streaming       batch vs streaming vs vectorized (bench_streaming)
prepared-reuse  one-shot answer() vs prepared plans (bench_prepared_reuse)
columnar        row-walk scalar kernels vs the columnar array kernels on
                the same cells (baseline: ``BENCH_columnar.json``)
obs-overhead    telemetry on vs off: the same prepared answer loop with
                no sink, under an in-memory sink, and the query-log /
                exporter primitives (baseline: ``BENCH_obs_overhead.json``)
ablations       expected-COUNT methods and the MAX-distribution
                extension (bench_ablation_*)
serve           query-service wire latency and flood throughput at 1x
                and 2x offered load (bench_serve; baseline:
                ``BENCH_serve.json``)
==============  =========================================================

Importing this module registers every suite; the harness does so lazily
on first :func:`~repro.bench.harness.get_suite` call.  Case factories
build their workload *inside* the factory (untimed), so listing suites
stays free.
"""

from __future__ import annotations

import importlib.util

from repro.bench.harness import Suite, register_suite

_HAVE_NUMPY = importlib.util.find_spec("numpy") is not None


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
    from repro.core.streaming import RangeSumAccumulator, answer_stream
    from repro.sql.ast import AggregateOp

    context = make_synthetic_context(1000, 8, 5)

    def run():
        return answer_stream(
            iter(context.table.rows),
            context.table.relation,
            context.pmapping,
            context.query(AggregateOp.SUM),
            RangeSumAccumulator,
        )

    return run, context.close


# -- engine: figure 6 / table III -------------------------------------------

engine_suite = register_suite(Suite(
    "engine", "per-cell answering on the paper's Table I instance (fig 6)"
))


def _engine_cell_case(msem: str, asem: str):
    def factory():
        from repro.core.engine import AggregationEngine
        from repro.data import realestate

        engine = AggregationEngine(
            [realestate.paper_instance()],
            realestate.paper_pmapping(),
            allow_exponential=True,
        )
        return (lambda: engine.answer(realestate.Q1, msem, asem)), engine.close

    return factory


for _msem in ("by-table", "by-tuple"):
    for _asem in ("range", "distribution", "expected-value"):
        engine_suite.case(f"q1.{_msem}.{_asem}")(
            _engine_cell_case(_msem, _asem)
        )


# -- exponential: figures 7-8 ------------------------------------------------

exponential = register_suite(Suite(
    "exponential", "naive enumeration at tiny sizes (figs 7-8 regime)"
))


def _naive_case(algorithm: str, tuples: int, mappings: int):
    def factory():
        from repro.bench.algorithms import get_algorithm
        from repro.bench.contexts import make_synthetic_context

        context = make_synthetic_context(tuples, 8, mappings)
        runner = get_algorithm(algorithm)
        return (lambda: runner(context)), context.close

    return factory


for _name in ("ByTuplePDSUM", "ByTuplePDAVG", "ByTuplePDMAX",
              "ByTupleExpValAVG", "ByTupleExpValMAX"):
    exponential.case(f"naive.{_name}")(_naive_case(_name, 8, 2))
exponential.case("naive.many_mappings.ByTuplePDSUM")(
    _naive_case("ByTuplePDSUM", 5, 5)
)


# -- kernels: figures 9-12 and the vectorized ablation -----------------------

kernels = register_suite(Suite(
    "kernels", "PTIME scalar/vectorized kernels at medium size (figs 9-12)"
))


def _kernel_case(algorithm: str, *, tuples: int = 20000, mappings: int = 5,
                 vectorized: bool = False):
    def factory():
        from repro.bench.algorithms import get_algorithm
        from repro.bench.contexts import make_synthetic_context

        context = make_synthetic_context(
            tuples, 10, mappings,
            use_vectorized=vectorized,
            prematerialize=algorithm in ("ByTableCOUNT", "ByTupleExpValSUM"),
            prebuild_columnar=vectorized,
        )
        runner = get_algorithm(algorithm)
        return (lambda: runner(context)), context.close

    return factory


for _name in ("ByTupleRangeCOUNT", "ByTupleRangeSUM", "ByTupleRangeAVG",
              "ByTupleRangeMAX", "ByTupleRangeMIN", "ByTupleExpValSUM",
              "ByTableCOUNT"):
    kernels.case(f"scalar.{_name}")(_kernel_case(_name))
kernels.case("scalar.ByTuplePDCOUNT")(
    _kernel_case("ByTuplePDCOUNT", tuples=2000)
)
if _HAVE_NUMPY:
    for _name in ("ByTupleRangeCOUNT", "ByTupleRangeSUM", "ByTupleRangeAVG"):
        kernels.case(f"vectorized.{_name}")(
            _kernel_case(_name, vectorized=True)
        )


# -- matcher ------------------------------------------------------------------

matcher_suite = register_suite(Suite(
    "matcher", "similarity scoring, assignment, top-K ranking (bench_matcher)"
))

matcher_suite.case("paper_pmapping")(_quick_matcher)


@matcher_suite.case("hungarian.50x50")
def _matcher_hungarian():
    import random

    from repro.schema.matcher.hungarian import solve_assignment

    rng = random.Random(11)
    cost = [[rng.random() for _ in range(50)] for _ in range(50)]
    return lambda: solve_assignment(cost)


@matcher_suite.case("murty.top20_of_20x20")
def _matcher_murty():
    import random

    from repro.schema.matcher.murty import top_k_assignments

    rng = random.Random(13)
    cost = [[rng.random() for _ in range(20)] for _ in range(20)]
    return lambda: list(top_k_assignments(cost, 20))


# -- streaming ----------------------------------------------------------------

streaming_suite = register_suite(Suite(
    "streaming", "batch vs single-pass vs vectorized (bench_streaming)"
))


@streaming_suite.case("batch.sum.range")
def _streaming_batch():
    from repro.bench.contexts import make_synthetic_context
    from repro.core.bytuple_sum import by_tuple_range_sum
    from repro.sql.ast import AggregateOp

    context = make_synthetic_context(20000, 10, 5)
    query = context.query(AggregateOp.SUM)
    return (
        lambda: by_tuple_range_sum(context.table, context.pmapping, query)
    ), context.close


@streaming_suite.case("stream.sum.range")
def _streaming_stream():
    from repro.bench.contexts import make_synthetic_context
    from repro.core.streaming import RangeSumAccumulator, answer_stream
    from repro.sql.ast import AggregateOp

    context = make_synthetic_context(20000, 10, 5)

    def run():
        return answer_stream(
            iter(context.table.rows),
            context.table.relation,
            context.pmapping,
            context.query(AggregateOp.SUM),
            RangeSumAccumulator,
        )

    return run, context.close


if _HAVE_NUMPY:
    @streaming_suite.case("vectorized.sum.range")
    def _streaming_vectorized():
        from repro.bench.contexts import make_synthetic_context
        from repro.core.semantics import AggregateSemantics
        from repro.core.vectorized import run_grouped_vectorized
        from repro.sql.ast import AggregateOp

        context = make_synthetic_context(20000, 10, 5, prebuild_columnar=True)
        query = context.query(AggregateOp.SUM)
        return (
            lambda: run_grouped_vectorized(
                context.columnar,
                context.pmapping,
                query,
                AggregateSemantics.RANGE,
            )
        ), context.close


# -- prepared-reuse -----------------------------------------------------------

prepared_reuse = register_suite(Suite(
    "prepared-reuse", "one-shot answer() vs prepared plans (bench_prepared_reuse)"
))


@prepared_reuse.case("oneshot.count_range_x50", repeats=3)
def _reuse_oneshot():
    from repro.core.engine import AggregationEngine
    from repro.data import synthetic
    from repro.sql.ast import AggregateOp

    workload = synthetic.generate_workload(1000, 12, 10, seed=0)
    engine = AggregationEngine([workload.table], workload.pmapping)
    query = workload.query(AggregateOp.COUNT)

    def run():
        for _ in range(50):
            engine.answer(query, "by-tuple", "range")

    return run, engine.close


@prepared_reuse.case("prepared.count_range_x50", repeats=3)
def _reuse_prepared():
    from repro.core.engine import AggregationEngine
    from repro.data import synthetic
    from repro.sql.ast import AggregateOp

    workload = synthetic.generate_workload(1000, 12, 10, seed=0)
    engine = AggregationEngine([workload.table], workload.pmapping)
    prepared = engine.prepare(workload.query(AggregateOp.COUNT))

    def run():
        for _ in range(50):
            prepared.answer("by-tuple", "range")

    return run, engine.close


# -- ablations ----------------------------------------------------------------

ablations = register_suite(Suite(
    "ablations", "expected-COUNT methods, MAX-distribution extension"
))


def _expected_count_case(method: str):
    def factory():
        from repro.bench.contexts import make_synthetic_context
        from repro.core.bytuple_count import by_tuple_expected_count
        from repro.sql.ast import AggregateOp

        context = make_synthetic_context(1500, 10, 5)
        query = context.query(AggregateOp.COUNT)
        return (
            lambda: by_tuple_expected_count(
                context.table, context.pmapping, query, method=method
            )
        ), context.close

    return factory


ablations.case("expected_count.distribution")(
    _expected_count_case("distribution")
)
ablations.case("expected_count.linear")(_expected_count_case("linear"))


@ablations.case("extension.max_distribution")
def _ablation_extension_max():
    from repro.bench.contexts import make_synthetic_context
    from repro.core.extensions import by_tuple_distribution_max
    from repro.sql.ast import AggregateOp

    context = make_synthetic_context(2000, 6, 3)
    query = context.query(AggregateOp.MAX)
    return (
        lambda: by_tuple_distribution_max(
            context.table, context.pmapping, query
        )
    ), context.close


# -- columnar -----------------------------------------------------------------

columnar_suite = register_suite(Suite(
    "columnar",
    "row-walk scalar kernels vs the columnar array kernels at 50k tuples "
    "(baseline: BENCH_columnar.json)",
))

#: Large enough that the per-row interpreter overhead dominates the scalar
#: walk; the columnar view is prebuilt so both sides time only the fold.
_COLUMNAR_TUPLES = 50_000
_COLUMNAR_ATTRIBUTES = 8
_COLUMNAR_MAPPINGS = 5

#: ``(case key, scalar one-shot, aggregate op, aggregate semantics)``.
#: The COUNT distribution cell is deliberately absent: its DP is O(n^2)
#: in the qualifying-row count, so at this size it times the DP, not the
#: storage layout.  Both expected-COUNT sides use the linear method.
_COLUMNAR_CELLS = (
    ("count.range", "by_tuple_range_count", "COUNT", "RANGE"),
    ("count.expected", "by_tuple_expected_count", "COUNT", "EXPECTED_VALUE"),
    ("sum.range", "by_tuple_range_sum", "SUM", "RANGE"),
    ("sum.expected", "by_tuple_expected_sum", "SUM", "EXPECTED_VALUE"),
    ("avg.range", "by_tuple_range_avg", "AVG", "RANGE"),
    ("max.range", "by_tuple_range_max", "MAX", "RANGE"),
)


def _columnar_pair_case(key: str, scalar_name: str, op: str, semantics: str,
                        *, vectorized: bool):
    def factory():
        import repro.core.bytuple_avg as avg_mod
        import repro.core.bytuple_count as count_mod
        import repro.core.bytuple_minmax as minmax_mod
        import repro.core.bytuple_sum as sum_mod
        from repro.bench.contexts import make_synthetic_context
        from repro.sql.ast import AggregateOp

        context = make_synthetic_context(
            _COLUMNAR_TUPLES, _COLUMNAR_ATTRIBUTES, _COLUMNAR_MAPPINGS,
            prebuild_columnar=vectorized,
        )
        query = context.query(AggregateOp[op])
        if vectorized:
            from repro.core.semantics import AggregateSemantics
            from repro.core.vectorized import run_grouped_vectorized

            ctable = context.columnar
            cell_semantics = AggregateSemantics[semantics]
            return (
                lambda: run_grouped_vectorized(
                    ctable, context.pmapping, query, cell_semantics
                )
            ), context.close
        scalar = None
        for module in (count_mod, sum_mod, avg_mod, minmax_mod):
            scalar = getattr(module, scalar_name, scalar)
        if key == "count.expected":
            return (
                lambda: scalar(
                    context.table, context.pmapping, query, method="linear"
                )
            ), context.close
        return (
            lambda: scalar(context.table, context.pmapping, query)
        ), context.close

    return factory


for _key, _scalar, _op, _semantics in _COLUMNAR_CELLS:
    columnar_suite.case(f"rowwalk.{_key}")(
        _columnar_pair_case(_key, _scalar, _op, _semantics, vectorized=False)
    )
    if _HAVE_NUMPY:
        columnar_suite.case(f"columnar.{_key}")(
            _columnar_pair_case(_key, _scalar, _op, _semantics, vectorized=True)
        )


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


# -- serve: the query service over real sockets ------------------------------

serve = register_suite(Suite(
    "serve",
    "query service latency and saturation throughput (1x and 2x offered "
    "load; baseline: BENCH_serve.json)",
))


def _serve_fixture(*, max_concurrency=4, queue_depth=8):
    """A running service on an ephemeral port + its teardown."""
    from repro.obs.metrics import MetricsRegistry
    from repro.serve import DatasetRegistry, ServeConfig, ServiceThread

    registry = DatasetRegistry()
    registry.add_synthetic(
        "bench", tuples=1000, attributes=6, mappings=5, seed=11
    )
    service = ServiceThread(
        registry,
        config=ServeConfig(
            port=0,
            max_concurrency=max_concurrency,
            queue_depth=queue_depth,
        ),
        metrics_registry=MetricsRegistry(),
    ).start()
    return service, service.stop


#: The serve bench workload: the sampling lane at a fixed sample count,
#: ~10 ms per request — slow enough to saturate, fast enough for CI.
_SERVE_REQUEST = {
    "dataset": "bench",
    "query": "SELECT SUM(value) FROM T WHERE value < 800",
    "mapping_semantics": "by-tuple",
    "aggregate_semantics": "distribution",
    "samples": 60,
    "seed": 3,
}


@serve.case("roundtrip.single", repeats=30, warmup=5)
def _serve_roundtrip():
    from repro.serve import ServeClient

    service, close = _serve_fixture()
    client = ServeClient(port=service.port)

    def teardown():
        client.close()
        close()

    return (
        lambda: client.query(**_SERVE_REQUEST).answer
    ), teardown


def _serve_flood_case(offered_multiple):
    def factory():
        from repro.serve import LoadGenerator

        service, close = _serve_fixture(max_concurrency=4, queue_depth=4)
        # Saturation counts executing slots plus the bounded queue: at
        # 1x every arrival is admitted, at 2x the excess sheds.
        concurrency = (4 + 4) * offered_multiple

        def run():
            flood = LoadGenerator(
                "127.0.0.1", service.port, _SERVE_REQUEST,
                concurrency=concurrency, requests_per_worker=4,
            ).run()
            assert flood.transport_errors == 0
            assert flood.admitted > 0

        return run, close

    return factory


serve.case("flood.1x", repeats=3, warmup=1)(_serve_flood_case(1))
serve.case("flood.2x.saturated", repeats=3, warmup=1)(_serve_flood_case(2))
