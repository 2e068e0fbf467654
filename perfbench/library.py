"""The in-process workloads: ``scan`` and ``six-semantics``.

Both drive the library through its public surfaces only:
``repro.storage.csv_io`` and ``repro.schema.serialize`` to load the
generated files, ``AggregationEngine`` (with the serving defaults) and
``PreparedQuery`` to answer, ``repro.sql.parser`` for the parse timing.
One closed-loop client; each op's latency is its call's wall time.
"""

from __future__ import annotations

import gc
import random
from collections.abc import Iterator

from common import (
    PTIME_CELLS,
    Speed,
    Trace,
    clock,
    latency_metrics,
    median,
    overhead_pct,
    self_peak_rss_mb,
)

AGGREGATES = ["COUNT(*)", "SUM(value)", "AVG(value)", "MIN(value)", "MAX(value)"]

#: ``scan``: rows of the generated table (8 REAL attributes, 5 mappings).
SCAN_ROWS = 100_000
SCAN_SETUPS = 3

#: ``six-semantics``: rows, and the sampling estimator's fixed size.
SIX_ROWS = 500
SIX_SAMPLES = 100
SIX_SETUPS = 5

#: The first-query warm-up of a set-up uses one fixed threshold (and
#: ``<=``, so its texts never recur in the measured stream), so set-up
#: cost does not depend on the seed.
WARM_THRESHOLD = 500.0

#: Reference-kernel samples taken before each set-up.
SPEED_SAMPLES = 30

#: Stored answers cover this many leading rounds; one is verified.
VERIFY_ROUNDS = 10


def query_text(aggregate: str, threshold: float, op: str = "<") -> str:
    return f"SELECT {aggregate} FROM T WHERE value {op} {threshold}"


def fresh_thresholds(rng: random.Random) -> Iterator[float]:
    """Distinct thresholds, so every query text is new to the engine."""
    seen: set[float] = set()
    while True:
        threshold = round(rng.uniform(50.0, 950.0), 4)
        if threshold not in seen:
            seen.add(threshold)
            yield threshold


def rounds(items: list, rng: random.Random) -> Iterator[tuple[int, object]]:
    """``items`` in shuffled rounds: an exact, evenly spread mix."""
    index = 0
    while True:
        order = list(items)
        rng.shuffle(order)
        for item in order:
            yield index, item
            index += 1


def cell_stream(rng: random.Random) -> Iterator[tuple[int, str, str, str]]:
    """``(index, text, aggregate semantics, label)`` over the PTIME cells."""
    thresholds = fresh_thresholds(rng)
    for index, (aggregate, semantics, label) in rounds(PTIME_CELLS, rng):
        yield index, query_text(aggregate, next(thresholds)), semantics, label


def load_engine(data_path: str, mapping_path: str, **overrides: object):
    """Load the generated files and build an engine with serving defaults.

    Returns ``(engine, table, csv_load_seconds)``.
    """
    from repro import AggregationEngine
    from repro.schema.serialize import load_pmapping
    from repro.serve.registry import SERVING_ENGINE_DEFAULTS
    from repro.storage.csv_io import load_table_csv

    pmapping = load_pmapping(mapping_path)
    start = clock()
    table = load_table_csv(pmapping.source, data_path)
    csv_load = clock() - start
    engine = AggregationEngine(
        [table], pmapping, **dict(SERVING_ENGINE_DEFAULTS, **overrides)
    )
    return engine, table, csv_load


def timed_setups(
    count: int, data_path: str, mapping_path: str, warm, speed: Speed
) -> dict:
    """Set up ``count`` times; returns the last engine and median timings.

    One set-up is: load the CSV and p-mapping, build the engine, run the
    first-query warm-up ``warm(engine)``.  Earlier engines are released
    before the next load so peak memory reflects one engine.  Each
    set-up time is scaled by the speed factor sampled just before it.
    """
    setups, loads = [], []
    engine = table = None
    for _ in range(count):
        engine = table = None
        gc.collect()
        before = clock()
        speed.sample(SPEED_SAMPLES)
        factor = speed.factor(before)
        start = clock()
        engine, table, csv_load = load_engine(data_path, mapping_path)
        warm(engine)
        setups.append((clock() - start) / factor)
        loads.append(csv_load)
    return {
        "engine": engine,
        "table": table,
        "setup_s": median(setups),
        "csv_load_s": median(loads),
    }


def columnar_build_s(table, repeats: int = 3) -> float:
    from repro.storage.columnar import ColumnarTable

    times = []
    for _ in range(repeats):
        start = clock()
        ColumnarTable(table)
        times.append(clock() - start)
    return median(times)


def parse_timing(trace: Trace, text: str) -> None:
    """Time ``parse_query`` on its own (the compile stage parses again)."""
    from repro.sql.parser import parse_query

    start = clock()
    parse_query(text)
    trace.timings.setdefault("sql.parse", []).append(clock() - start)


def _delta(after: dict, before: dict, key: str) -> int:
    return after.get(key, 0) - before.get(key, 0)


def traced_answer(
    engine, trace: Trace, text: str, mapping: str, semantics: str, label: str
):
    """One ``engine.answer`` op split into its public calls, traced.

    ``engine.compile`` -> ``engine.plan`` -> ``plan.answer()`` is the path
    ``engine.answer`` takes (``engine.plan`` re-reads the compile cache,
    one extra hit the metrics below leave out).  Cache outcomes come from
    ``metrics_snapshot()`` read before and after the op, outside its span.
    """
    parse_timing(trace, text)
    op = trace.new_op()
    before = engine.metrics_snapshot()
    t0 = clock()
    engine.compile(text)
    t1 = clock()
    plan = engine.plan(text, mapping, semantics)
    t2 = clock()
    answer = plan.answer()
    t3 = clock()
    after = engine.metrics_snapshot()
    record = engine.recent_queries(1)[0]
    plan_hit = _delta(after, before, "plan.cache.miss") == 0
    root = trace.add("op", t0, t3, op)
    trace.add(
        "engine.compile", t0, t1, op, root,
        miss=_delta(after, before, "compile.cache.miss") > 0,
    )
    trace.add("engine.plan", t1, t2, op, root, miss=not plan_hit)
    trace.add(
        "plan.answer", t2, t3, op, root,
        cell=label, lane=plan.lane, plan_hit=plan_hit, rows=record.rows or 0,
    )
    return answer, t3 - t0


def counter_ratios(before: dict, after: dict) -> dict:
    hits = _delta(after, before, "vectorized.hit")
    attempts = hits + _delta(after, before, "vectorized.fallback")
    return {
        "vectorized.hit_ratio": (hits / attempts if attempts else 0.0, "ratio"),
    }


class Outcome:
    """Counts and samples of one measured phase."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.start = clock()
        #: ``(end time, latency)`` of each untraced op, in issue order.
        self.ops: list[tuple[float, float]] = []
        #: Latencies of the traced ops (every other op of a traced run).
        self.traced_latencies: list[float] = []
        self.stored: dict[int, tuple] = {}
        self.errors: list[str] = []

    def record(self, latency: float, traced: bool) -> None:
        if traced:
            self.traced_latencies.append(latency)
        else:
            self.ops.append((clock(), latency))

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


# -- scan --------------------------------------------------------------------


def run_scan(run) -> dict:
    """Ad-hoc by-tuple PTIME queries over a 100k-row CSV-loaded table."""
    data_path, mapping_path = run.inputs(SCAN_ROWS)

    def warm(engine) -> None:
        for aggregate, semantics, _ in PTIME_CELLS:
            engine.answer(
                query_text(aggregate, WARM_THRESHOLD, "<="), "by-tuple", semantics
            )

    speed = Speed()
    setup = timed_setups(SCAN_SETUPS, data_path, mapping_path, warm, speed)
    engine = setup["engine"]
    stream = cell_stream(random.Random(run.seed))
    cells = len(PTIME_CELLS)

    def measure(seconds: float, trace: Trace | None) -> Outcome:
        outcome = Outcome()
        deadline = outcome.start + seconds
        for index, text, semantics, label in stream:
            if clock() >= deadline:
                break
            outcome.attempted += 1
            traced = trace is not None and index % 2 == 1
            try:
                if not traced:
                    t0 = clock()
                    answer = engine.answer(text, "by-tuple", semantics)
                    latency = clock() - t0
                else:
                    answer, latency = traced_answer(
                        engine, trace, text, "by-tuple", semantics, label
                    )
            except Exception as error:  # any failure is a failed op
                outcome.fail(f"{text}: {error!r}")
                continue
            outcome.record(latency, traced)
            speed.sample()
            if index < VERIFY_ROUNDS * cells:
                outcome.stored[index] = (text, semantics, answer)
        return outcome

    def verify(outcome: Outcome) -> None:
        scalar, _, _ = load_engine(data_path, mapping_path, vectorize=False)
        for _, (text, semantics, answer) in sample_round(
            outcome.stored, cells, run.seed
        ):
            expected = scalar.answer(text, "by-tuple", semantics)
            if answer != expected:
                outcome.fail(f"{text} {semantics}: {answer!r} != scalar {expected!r}")

    return run_library(run, setup, measure, verify, engine, speed)


def sample_round(stored: dict, size: int, seed: int) -> list:
    """Every stored op of one seeded round (covers each cell once)."""
    complete = [
        r for r in range(VERIFY_ROUNDS)
        if all(r * size + k in stored for k in range(size))
    ]
    if not complete:
        return sorted(stored.items())[:size]
    chosen = random.Random(seed ^ 0xC0FFEE).choice(complete)
    return [(i, stored[i]) for i in range(chosen * size, (chosen + 1) * size)]


def run_library(run, setup: dict, measure, verify, counters, speed: Speed) -> dict:
    """Measure one run; a traced run alternates traced and untraced ops."""
    if not run.trace:
        outcome = measure(run.seconds, None)
        verify(outcome)
        metrics = {"setup_s": (setup["setup_s"], "s")}
        metrics.update(
            latency_metrics(outcome.ops, outcome.start, speed)
        )
        metrics["peak_rss_mb"] = (self_peak_rss_mb(), "MiB")
        return {
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "problems": outcome.errors,
            "metrics": metrics,
            "trace": None,
            "speed": speed,
        }
    # Traced and untraced ops alternate, so both see the same engine state.
    trace = Trace()
    before = counters.metrics_snapshot()
    outcome = measure(run.seconds, trace)
    after = counters.metrics_snapshot()
    verify(outcome)
    metrics = {
        "storage.csv_load_s": (setup["csv_load_s"], "s"),
        "storage.columnar_build_s": (columnar_build_s(setup["table"]), "s"),
        "trace.overhead_pct": (
            overhead_pct(
                [latency for _, latency in outcome.ops], outcome.traced_latencies
            ),
            "%",
        ),
    }
    metrics.update(counter_ratios(before, after))
    return {
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.errors,
        "metrics": metrics,
        "trace": trace,
        "speed": speed,
    }


# -- six-semantics -----------------------------------------------------------


def six_stream(rng: random.Random) -> Iterator[tuple[int, str, int]]:
    """``(index, text, per-request sampling seed)``, aggregates in rounds."""
    thresholds = fresh_thresholds(rng)
    for index, aggregate in rounds(AGGREGATES, rng):
        yield index, query_text(aggregate, next(thresholds)), rng.randrange(1 << 30)


def _label(aggregate: str, mapping, semantics) -> str:
    short = {"range": "range", "distribution": "distribution",
             "expected-value": "expected"}[semantics.value]
    name = aggregate.split("(")[0].lower()
    prefix = "" if mapping.value == "by-tuple" else "bytable."
    return f"{prefix}{name}.{short}"


def traced_six(engine, trace: Trace, text: str, seed: int):
    """One ``answer_six`` op split into ``prepare`` / ``plan_for`` / answer.

    The same calls ``engine.answer_six`` makes: one ``engine.prepare``,
    then per cell ``PreparedQuery.plan_for`` and ``plan.answer``.
    """
    from repro import IntractableError
    from repro.core.semantics import AggregateSemantics, MappingSemantics

    parse_timing(trace, text)
    aggregate = text.split()[1]
    op = trace.new_op()
    before = engine.metrics_snapshot()
    spans = []
    results = {}
    t0 = clock()
    prepared = engine.prepare(text)
    spans.append(("engine.prepare", t0, clock(), {}))
    first_by_tuple = True
    for mapping in MappingSemantics:
        for semantics in AggregateSemantics:
            a = clock()
            plan = prepared.plan_for(mapping, semantics)
            b = clock()
            try:
                answer = plan.answer(samples=SIX_SAMPLES, seed=seed)
            except IntractableError as error:
                answer = error
            c = clock()
            results[(mapping, semantics)] = answer
            materialize = mapping is MappingSemantics.BY_TUPLE and first_by_tuple
            first_by_tuple = first_by_tuple and not materialize
            label = _label(aggregate, mapping, semantics)
            spans.append(("prepared.plan_for", a, b, {
                "cell": label, "materialize": materialize,
            }))
            spans.append(("plan.answer", b, c, {
                "cell": label, "lane": plan.lane, "mapping": mapping.value,
            }))
    end = clock()
    after = engine.metrics_snapshot()
    # One query-log record per answered cell, oldest first.
    rows = iter([r.rows or 0 for r in engine.recent_queries(len(results))])
    compile_miss = _delta(after, before, "compile.cache.miss") > 0
    # Every text is new, so each cell's plan misses when any does.
    plan_miss = _delta(after, before, "plan.cache.miss") > 0
    root = trace.add("op", t0, end, op)
    for name, start, stop, attrs in spans:
        if name == "engine.prepare":
            attrs = {"miss": compile_miss}
        elif name == "prepared.plan_for":
            attrs = dict(attrs, miss=plan_miss)
        else:
            attrs = dict(attrs, plan_hit=not plan_miss, rows=next(rows, 0))
        trace.add(name, start, stop, op, root, **attrs)
    return results, end - t0


def run_six(run) -> dict:
    """The paper's six-semantics table per query on a small table."""
    data_path, mapping_path = run.inputs(SIX_ROWS)

    def warm(engine) -> None:
        for aggregate in AGGREGATES:
            engine.answer_six(
                query_text(aggregate, WARM_THRESHOLD, "<="),
                samples=SIX_SAMPLES, seed=1,
            )

    speed = Speed()
    setup = timed_setups(SIX_SETUPS, data_path, mapping_path, warm, speed)
    engine = setup["engine"]
    stream = six_stream(random.Random(run.seed))
    size = len(AGGREGATES)

    def measure(seconds: float, trace: Trace | None) -> Outcome:
        outcome = Outcome()
        deadline = outcome.start + seconds
        for index, text, seed in stream:
            if clock() >= deadline:
                break
            outcome.attempted += 1
            traced = trace is not None and index % 2 == 1
            try:
                if not traced:
                    t0 = clock()
                    results = engine.answer_six(text, samples=SIX_SAMPLES, seed=seed)
                    latency = clock() - t0
                else:
                    results, latency = traced_six(engine, trace, text, seed)
            except Exception as error:  # any failure is a failed op
                outcome.fail(f"{text}: {error!r}")
                continue
            refused = [k for k, v in results.items() if isinstance(v, Exception)]
            if refused:
                outcome.fail(f"{text}: cells refused {refused}")
                continue
            outcome.record(latency, traced)
            speed.sample()
            if index < VERIFY_ROUNDS * size:
                outcome.stored[index] = (text, seed, results)
        return outcome

    def verify(outcome: Outcome) -> None:
        scalar, _, _ = load_engine(data_path, mapping_path, vectorize=False)
        for _, (text, seed, results) in sample_round(
            outcome.stored, size, run.seed
        ):
            expected = scalar.answer_six(text, samples=SIX_SAMPLES, seed=seed)
            for cell, answer in results.items():
                if answer != expected[cell]:
                    outcome.fail(
                        f"{text} {cell}: {answer!r} != scalar {expected[cell]!r}"
                    )

    return run_library(run, setup, measure, verify, engine, speed)
