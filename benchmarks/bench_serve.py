"""The query service under load: latency percentiles and saturation.

The serving tier's performance contract (ISSUE acceptance criterion):
flooded at **2x saturation**, the service sheds the excess with typed
rejections while the *admitted* requests' p95 latency stays within 2x of
the 1x-load p95 — backpressure protects the work it admits instead of
letting queueing delay grow without bound.

``pytest benchmarks/bench_serve.py`` asserts that contract at small CI
scale; ``python benchmarks/bench_serve.py`` prints the full report
(p50/p95/p99 per offered load, saturation throughput, shed accounting).
"""

from __future__ import annotations

import json

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.serve import (
    DatasetRegistry,
    LoadGenerator,
    ServeConfig,
    ServiceThread,
)

MAX_CONCURRENCY = 4
QUEUE_DEPTH = 4

#: ~10 ms per request on the 1k-tuple dataset: the sampling lane's
#: sample count is the workload's latency knob.
REQUEST = {
    "dataset": "bench",
    "query": "SELECT SUM(value) FROM T WHERE value < 800",
    "mapping_semantics": "by-tuple",
    "aggregate_semantics": "distribution",
    "samples": 60,
    "seed": 3,
}


def start_service() -> ServiceThread:
    registry = DatasetRegistry()
    registry.add_synthetic(
        "bench", tuples=1000, attributes=6, mappings=5, seed=11
    )
    return ServiceThread(
        registry,
        config=ServeConfig(
            port=0,
            max_concurrency=MAX_CONCURRENCY,
            queue_depth=QUEUE_DEPTH,
        ),
        metrics_registry=MetricsRegistry(),
    ).start()


def flood(service: ServiceThread, multiple: int, requests: int = 6) -> dict:
    """Offered load at ``multiple`` times the service's full capacity.

    Saturation is the whole system — executing slots *plus* the bounded
    queue — so 1x keeps every arrival admitted and 2x forces shedding.
    """
    generator = LoadGenerator(
        "127.0.0.1",
        service.port,
        REQUEST,
        concurrency=(MAX_CONCURRENCY + QUEUE_DEPTH) * multiple,
        requests_per_worker=requests,
    ).run()
    report = generator.report()
    report["offered"] = f"{multiple}x"
    return report


@pytest.fixture(scope="module")
def service():
    running = start_service()
    yield running
    running.stop()


def test_saturation_sheds_typed_and_bounds_admitted_latency(service):
    at_1x = flood(service, 1)
    at_2x = flood(service, 2)
    # 1x load fits entirely: nothing shed, nothing dropped.
    assert at_1x["transport_errors"] == 0
    assert at_1x["shed"] == 0, at_1x
    assert at_1x["admitted"] == at_1x["total"]
    # 2x load sheds the excess with typed rejections, drops nothing.
    assert at_2x["transport_errors"] == 0
    assert at_2x["shed"] > 0, at_2x
    assert at_2x["admitted"] + at_2x["shed"] == at_2x["total"]
    # Backpressure bound: admitted p95 under 2x within 2x of the 1x p95
    # (generous floor guards the tiny-sample CI runs against jitter).
    assert at_2x["p95_ms"] <= max(2.0 * at_1x["p95_ms"], at_1x["p95_ms"] + 50)


def test_flood_answers_match_direct_execution(service):
    from repro.serve import ServeClient

    engine = service.service.registry.engine("bench")
    direct = engine.answer(
        REQUEST["query"],
        REQUEST["mapping_semantics"],
        REQUEST["aggregate_semantics"],
        samples=REQUEST["samples"],
        seed=REQUEST["seed"],
    )
    with ServeClient(port=service.port) as client:
        assert client.query(**REQUEST).answer == direct


if __name__ == "__main__":
    running = start_service()
    try:
        report = {
            "workload": REQUEST,
            "service": {
                "max_concurrency": MAX_CONCURRENCY,
                "queue_depth": QUEUE_DEPTH,
            },
            "loads": [
                flood(running, 1, requests=10),
                flood(running, 2, requests=10),
            ],
        }
    finally:
        running.stop()
    print(json.dumps(report, indent=2))
