"""One execution record per outermost execution, on every path.

The query log's :class:`~repro.obs.querylog.QueryRecord` is the only
per-execution fact store: the executing thread reads it back as
``context.last_record`` (the very object the log appended), EXPLAIN
ANALYZE and the serving tier report from it, and it says which lane
answered and how exact the answer is — for ok, degraded, error and
runtime-fallback executions alike.
"""

from __future__ import annotations

import threading

import pytest

from repro import AggregationEngine
from repro.core import sampling
from repro.core.guard import Budget
from repro.core.planner import Lane
from repro.data import ebay, realestate
from repro.exceptions import QueryTimeoutError
from repro.obs import metrics
from repro.serve import DatasetRegistry, ServeClient, ServeConfig, ServiceThread

SUM_DISTRIBUTION = "SELECT SUM(listPrice) FROM T1 WHERE date < '2008-1-20'"
NESTED = (
    "SELECT AVG(R1.price) FROM (SELECT SUM(R2.price) FROM T2 AS R2 "
    "GROUP BY R2.auctionID) AS R1"
)


def realestate_engine(**kwargs) -> AggregationEngine:
    return AggregationEngine(
        [realestate.paper_instance()], realestate.paper_pmapping(), **kwargs
    )


def ebay_engine(**kwargs) -> AggregationEngine:
    return AggregationEngine(
        [ebay.paper_instance()], ebay.paper_pmapping(), **kwargs
    )


#: name -> (engine factory, query, mapping sem., aggregate sem., status,
#: planned lane, executed lane, epsilon or None).
CASES = {
    "ok": (
        realestate_engine,
        realestate.Q1, "by-tuple", "range",
        "ok", Lane.SCALAR, Lane.SCALAR, None,
    ),
    "planned-sampling": (
        lambda: realestate_engine(allow_sampling=True, samples=150, seed=2),
        SUM_DISTRIBUTION, "by-tuple", "distribution",
        "ok", Lane.SAMPLING, Lane.SAMPLING, sampling.dkw_epsilon(150),
    ),
    "degraded": (
        lambda: realestate_engine(
            allow_exponential=True, degrade=True, timeout_ms=0,
            samples=400, seed=3,
        ),
        SUM_DISTRIBUTION, "by-tuple", "distribution",
        "degraded", Lane.NAIVE, Lane.SAMPLING, sampling.dkw_epsilon(400),
    ),
    "degraded-clamped": (
        lambda: realestate_engine(
            allow_exponential=True, degrade=True,
            budget=Budget(timeout_ms=0, max_worlds=100), samples=2000,
            seed=3,
        ),
        SUM_DISTRIBUTION, "by-tuple", "distribution",
        "degraded", Lane.NAIVE, Lane.SAMPLING, sampling.dkw_epsilon(100),
    ),
    "error": (
        lambda: realestate_engine(degrade=True, timeout_ms=0),
        realestate.Q1, "by-tuple", "distribution",
        "error", Lane.SCALAR, Lane.SCALAR, None,
    ),
    "fallback": (
        # Nested composition declines an inner SUM at run time and the
        # sampling fallback answers: the record must say so.
        lambda: ebay_engine(
            use_extensions=True, allow_sampling=True, samples=200
        ),
        NESTED, "by-tuple", "distribution",
        "ok", Lane.NESTED_COMPOSE, Lane.SAMPLING, sampling.dkw_epsilon(200),
    ),
}


def run_case(name: str):
    factory, query, msem, asem, status, *_ = CASES[name]
    engine = factory()
    if status == "error":
        with pytest.raises(QueryTimeoutError):
            engine.answer(query, msem, asem)
    else:
        engine.answer(query, msem, asem)
    return engine


@pytest.mark.parametrize("name", sorted(CASES))
def test_last_record_is_the_logged_record(name):
    engine = run_case(name)
    _, _, _, _, status, lane, executed, epsilon = CASES[name]
    record = engine.context.last_record
    assert record is engine.recent_queries()[-1]
    assert len(engine.recent_queries()) == 1
    assert record.status == status
    assert record.lane == lane
    assert record.executed_lane == executed
    assert record.epsilon == epsilon
    assert (record.degraded is not None) == (status == "degraded")
    if record.degraded is not None:
        assert record.degraded["epsilon"] == record.epsilon
        assert record.breach == "QueryTimeoutError"
    if status == "error":
        assert record.error == "QueryTimeoutError"
        assert record.actuals["cost"] is None
    else:
        assert record.error is None
        assert record.actuals["lane"] == executed
    assert record.estimates["lane"] == lane
    data = record.to_dict()
    assert data["executed_lane"] == executed
    assert data["estimates"] is record.estimates


def test_query_log_keys_keep_their_names():
    engine = run_case("degraded")
    data = engine.context.last_record.to_dict()
    assert set(data) == {
        "ts", "query", "digest", "mapping_semantics", "aggregate_semantics",
        "lane", "executed_lane", "status", "degraded", "breach", "error",
        "seconds", "rows", "worlds", "guard", "epsilon", "plan_digest",
        "est_cost", "actual_cost", "estimates", "actuals", "misestimation",
    }
    assert data["lane"] == "naive"
    assert data["actual_cost"] == data["actuals"]["cost"]
    assert data["est_cost"] == data["estimates"]["cost"]


def test_explain_analyze_reads_the_record():
    engine = realestate_engine(
        allow_exponential=True, degrade=True, timeout_ms=0, samples=200
    )
    report = engine.explain_analyze(
        SUM_DISTRIBUTION, "by-tuple", "distribution"
    )
    record = engine.context.last_record
    assert report["executed_lane"] == record.executed_lane == Lane.SAMPLING
    assert report["estimates"] is record.estimates
    assert report["actuals"] is record.actuals
    assert report["misestimation"] is record.misestimation
    assert report["degradation"] == record.degraded


def test_concurrent_threads_read_their_own_record():
    engine = realestate_engine(allow_sampling=True, samples=50)
    queries = [
        realestate.Q1,
        "SELECT SUM(listPrice) FROM T1",
        "SELECT MAX(listPrice) FROM T1",
        "SELECT AVG(listPrice) FROM T1 WHERE date < '2008-1-20'",
    ]
    barrier = threading.Barrier(len(queries))
    seen: dict[str, list] = {}
    failures: list[BaseException] = []

    def worker(query: str) -> None:
        try:
            barrier.wait(timeout=10)
            records = []
            for _ in range(20):
                engine.answer(query, "by-tuple", "range")
                records.append(engine.context.last_record)
            seen[query] = records
        except BaseException as error:  # surfaced below
            failures.append(error)

    threads = [threading.Thread(target=worker, args=(q,)) for q in queries]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not failures and len(seen) == len(queries)
    logged = engine.recent_queries()
    for query, records in seen.items():
        text = engine.prepare(query).text
        assert len({id(record) for record in records}) == 20
        for record in records:
            assert record.query == text
            assert any(record is entry for entry in logged)


@pytest.mark.parametrize(
    "name", ["ok", "planned-sampling", "degraded", "fallback"]
)
def test_served_lane_and_status_come_from_the_record(name):
    factory, query, msem, asem, status, _, executed, epsilon = CASES[name]
    engine = factory()
    registry = DatasetRegistry()
    registry.add_engine("d", engine)
    service = ServiceThread(
        registry,
        config=ServeConfig(port=0, close_registry_on_drain=False),
        metrics_registry=metrics.MetricsRegistry(),
    ).start()
    try:
        with ServeClient(port=service.port) as client:
            response = client.query("d", query, msem, asem)
    finally:
        service.stop()
    assert response.ok, response.payload
    record = engine.recent_queries()[-1]
    assert response.status == record.status == status
    assert response.lane == record.executed_lane == executed
    if status == "degraded":
        assert response.degradation == record.degraded
        assert response.payload["epsilon"] == record.epsilon == epsilon
    else:
        assert "epsilon" not in response.payload
