"""The serving tier: protocol, admission, integration, chaos, drain.

The robustness contract under test, end to end over real sockets:

* served answers are **bit-identical** to the embedded engine's;
* overload and drain shed with **typed JSON errors** (429/503), never a
  hung or half-written connection — including under injected faults at
  the ``serve.*`` seams;
* per-tenant budgets degrade one tenant's expensive query without
  starving another's cheap ones;
* a drain finishes every in-flight request and flushes state.
"""

from __future__ import annotations

import asyncio
import datetime
import json
import math
import socket
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.answers import (
    DistributionAnswer,
    ExpectedValueAnswer,
    GroupedAnswer,
    RangeAnswer,
)
from repro.core.guard import Budget, combine
from repro.exceptions import (
    AdmissionRejectedError,
    BudgetExceededError,
    GuardrailError,
    ProtocolError,
    QueryTimeoutError,
    ReproError,
    ServiceDrainingError,
    ServiceOverloadedError,
    ServiceStartupError,
    UnknownDatasetError,
    exit_code_for,
)
from repro.obs import metrics
from repro.prob.distribution import DiscreteDistribution
from repro.serve import (
    AdmissionController,
    DatasetRegistry,
    ServeClient,
    ServeConfig,
    ServiceThread,
    TenantPolicy,
    protocol,
)
from repro.testing import faults

#: The sampling lane costs ~0.3 ms per sample on the 2k-tuple dataset:
#: ``samples`` is the latency knob the load tests turn.
HEAVY = {
    "query": "SELECT SUM(value) FROM T WHERE value < 800",
    "mapping_semantics": "by-tuple",
    "aggregate_semantics": "distribution",
}


@pytest.fixture(autouse=True)
def _clean_failpoints():
    faults.reset()
    yield
    faults.reset()


@pytest.fixture(scope="module")
def registry():
    reg = DatasetRegistry()
    reg.add_synthetic("demo", tuples=2000, attributes=6, mappings=6, seed=1)
    yield reg
    # Module teardown: the engines outlive each ServiceThread because
    # tests run with close_registry_on_drain=False.
    for name in list(reg.names()):
        reg.drop(name)


def make_service(registry, **config_kwargs):
    """A started ServiceThread on an ephemeral port, isolated metrics."""
    config_kwargs.setdefault("close_registry_on_drain", False)
    service = ServiceThread(
        registry,
        config=ServeConfig(port=0, **config_kwargs),
        metrics_registry=metrics.MetricsRegistry(),
    )
    return service.start()


# -- protocol: answers round-trip exactly ------------------------------------


ANSWERS = [
    RangeAnswer(3, 17),
    RangeAnswer(0.1 + 0.2, 1e300),  # floats survive via repr
    DistributionAnswer(
        DiscreteDistribution({2: 0.25, 3: 0.5, 5: 0.25}), 0.0
    ),
    DistributionAnswer(None, 1.0),  # all-undefined: no distribution
    DistributionAnswer(
        DiscreteDistribution({0.30000000000000004: 1.0}), 0.0
    ),
    ExpectedValueAnswer(42.00000000000001),
    GroupedAnswer({
        "north": RangeAnswer(1, 2),
        datetime.date(2008, 1, 20): ExpectedValueAnswer(7.5),
        3: DistributionAnswer(DiscreteDistribution({1: 1.0}), 0.0),
        None: RangeAnswer(0, 0),
    }),
]


@pytest.mark.parametrize("answer", ANSWERS, ids=lambda a: type(a).__name__)
def test_answer_roundtrip_bit_identical(answer):
    # Through real JSON text, as the wire would carry it.
    wire = json.loads(json.dumps(protocol.answer_to_json(answer)))
    assert protocol.answer_from_json(wire) == answer


def test_answer_from_json_rejects_junk():
    with pytest.raises(ProtocolError):
        protocol.answer_from_json({"kind": "no-such-kind"})
    with pytest.raises(ProtocolError):
        protocol.answer_from_json({"low": 1})


# -- protocol: request validation --------------------------------------------


def test_parse_query_request_defaults():
    qr = protocol.parse_query_request(
        {"dataset": "d", "query": "SELECT COUNT(*) FROM T"}
    )
    assert qr.tenant == "default"
    assert qr.mapping_semantics == "by-table"
    assert qr.aggregate_semantics == "distribution"
    assert qr.samples is None and qr.timeout_ms is None


@pytest.mark.parametrize(
    "payload",
    [
        {"query": "SELECT COUNT(*) FROM T"},  # missing dataset
        {"dataset": "d"},  # missing query
        {"dataset": "d", "query": "q", "mapping_semantics": "psychic"},
        {"dataset": "d", "query": "q", "aggregate_semantics": "vibes"},
        {"dataset": "d", "query": "q", "samples": 0},
        {"dataset": "d", "query": "q", "samples": "many"},
        {"dataset": "d", "query": "q", "timeout_ms": -1},
        {"dataset": "d", "query": "q", "surprise": True},  # unknown field
        {"dataset": 7, "query": "q"},
    ],
)
def test_parse_query_request_rejects(payload):
    with pytest.raises(ProtocolError):
        protocol.parse_query_request(payload)


@pytest.mark.parametrize(
    "text",
    [
        '{"dataset": "d", "query": "q", "timeout_ms": NaN}',
        '{"dataset": "d", "query": "q", "timeout_ms": Infinity}',
        '{"dataset": "d", "query": "q", "timeout_ms": 1' + "0" * 400 + "}",
    ],
)
def test_parse_query_request_rejects_unusable_deadlines(text):
    # json.loads accepts NaN/Infinity and integers too large for a float;
    # a NaN deadline would never expire.
    with pytest.raises(ProtocolError):
        protocol.parse_query_request(json.loads(text))


REQUEST_FIELDS = (
    "dataset", "query", "mapping_semantics", "aggregate_semantics",
    "tenant", "samples", "seed", "timeout_ms",
)

_HUGE = 10 ** 400

json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=_HUGE, max_value=_HUGE * 10),
    st.integers(min_value=-_HUGE * 10, max_value=-_HUGE),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=12),
    st.sampled_from(
        ["d", "by-tuple", "by-table", "range", "distribution",
         "expected-value", "default", "SELECT COUNT(*) FROM T"]
    ),
)
json_values = st.recursive(
    json_leaves,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)


@settings(max_examples=400, deadline=None)
@given(payload=st.dictionaries(st.sampled_from(REQUEST_FIELDS), json_values))
def test_parse_query_request_fuzz(payload):
    # Through real JSON text, as the wire carries it.
    payload = json.loads(json.dumps(payload))
    try:
        qr = protocol.parse_query_request(payload)
    except ProtocolError:
        return
    assert isinstance(qr, protocol.QueryRequest)
    if qr.timeout_ms is not None:
        assert math.isfinite(qr.timeout_ms) and qr.timeout_ms >= 0


# -- protocol: typed errors ---------------------------------------------------


@pytest.mark.parametrize(
    ("error", "status"),
    [
        (QueryTimeoutError("t", timeout_ms=5.0, elapsed_ms=9.0), 504),
        (ServiceOverloadedError("o"), 429),
        (AdmissionRejectedError("a"), 429),
        (ServiceDrainingError("d"), 503),
        (BudgetExceededError("b"), 422),
        (UnknownDatasetError("u", dataset="x", known=("a",)), 404),
        (ProtocolError("p"), 400),
        (OSError("injected"), 500),
    ],
)
def test_error_status_mapping(error, status):
    got_status, body = protocol.error_to_json(error)
    assert got_status == status
    assert body["error"]["message"]
    if isinstance(error, ReproError):
        assert body["error"]["type"] == type(error).__name__
        assert body["error"]["code"] == exit_code_for(error)
    else:
        assert body["error"]["type"] == "InternalError"


def test_error_roundtrip_preserves_type_and_fields():
    original = ServiceOverloadedError(
        "full", in_flight=4, waiting=9, queue_depth=9, retry_after_ms=900.0
    )
    _, body = protocol.error_to_json(original)
    rebuilt = protocol.error_from_json(json.loads(json.dumps(body)))
    assert isinstance(rebuilt, ServiceOverloadedError)
    assert rebuilt.waiting == 9
    assert rebuilt.retry_after_ms == 900.0


def test_service_startup_error_exit_code():
    assert exit_code_for(ServiceStartupError("x", host="h", port=1)) == 15


# -- protocol: HTTP framing ---------------------------------------------------


def parse_bytes(raw: bytes):
    async def _parse():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await protocol.read_request(reader)

    return asyncio.run(_parse())


def test_read_request_roundtrip():
    body = b'{"x":1}'
    raw = (
        b"POST /query?trace=1 HTTP/1.1\r\ncontent-length: "
        + str(len(body)).encode()
        + b"\r\nConnection: keep-alive\r\n\r\n"
        + body
    )
    request = parse_bytes(raw)
    assert request.method == "POST"
    assert request.path == "/query"
    assert request.query == "trace=1"
    assert request.json() == {"x": 1}
    assert request.keep_alive


def test_read_request_clean_eof_is_none():
    assert parse_bytes(b"") is None


@pytest.mark.parametrize(
    "raw",
    [
        b"GET /\r\n\r\n",  # malformed request line
        b"GET / SPDY/3\r\n\r\n",  # bad version
        b"GET / HTTP/1.1\r\ncontent-length: nope\r\n\r\n",
        b"POST / HTTP/1.1\r\ncontent-length: 10\r\n\r\nshort",  # truncated
        b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n",
    ],
)
def test_read_request_rejects_malformed(raw):
    with pytest.raises(ProtocolError):
        parse_bytes(raw)


def test_deeply_nested_body_is_a_protocol_error():
    body = b"[" * 200_000
    raw = b"POST /query HTTP/1.1\r\ncontent-length: %d\r\n\r\n" % len(body)
    request = parse_bytes(raw + body)
    with pytest.raises(ProtocolError):
        request.json()


_LINE_PIECES = st.sampled_from([
    b"GET / HTTP/1.1", b"POST /query HTTP/1.1", b"POST /query HTTP/1.0",
    b"GET", b"GET / SPDY/3", b"content-length: 5", b"Content-Length: -1",
    b"content-length: 99999999999", b"content-length: x",
    b"connection: close", b"no-colon", b"", b"\xff\xfe", b"x" * 9000,
    b'{"dataset": "d"}', b"[[[[", b"\x00",
])
http_bytes = st.one_of(
    st.binary(max_size=300),
    st.lists(
        st.one_of(_LINE_PIECES, st.binary(max_size=20)), max_size=6
    ).map(lambda lines: b"\r\n".join(lines)),
    st.tuples(
        _LINE_PIECES, st.lists(_LINE_PIECES, max_size=3),
        st.binary(max_size=40),
    ).map(
        lambda parts: parts[0] + b"\r\n" + b"".join(
            line + b"\r\n" for line in parts[1]
        ) + b"\r\n" + parts[2]
    ),
)


@settings(max_examples=400, deadline=None)
@given(raw=http_bytes)
def test_read_request_fuzz(raw):
    try:
        request = parse_bytes(raw)
    except ProtocolError:
        return
    assert request is None or isinstance(request, protocol.HttpRequest)
    if request is not None and request.body:
        try:
            payload = request.json()
        except ProtocolError:
            return
        assert isinstance(payload, dict)


def test_render_response_is_complete():
    body = protocol.json_body({"ok": True})
    raw = protocol.render_response(200, body, keep_alive=False)
    head, _, got_body = raw.partition(b"\r\n\r\n")
    assert got_body == body
    assert b"HTTP/1.1 200 OK" in head
    assert f"Content-Length: {len(body)}".encode() in head
    assert b"Connection: close" in head


# -- guard.combine (the tenant/request budget merge) --------------------------


def test_combine_takes_tightest_per_dimension():
    merged = combine(
        Budget(timeout_ms=500.0, max_rows=1000),
        Budget(timeout_ms=200.0, max_worlds=50),
        None,
    )
    assert merged.timeout_ms == 200.0
    assert merged.max_rows == 1000
    assert merged.max_worlds == 50


def test_combine_all_unlimited_is_none():
    assert combine(None, Budget(), None) is None


def test_tightened_never_loosens():
    tight = Budget(timeout_ms=100.0).tightened(timeout_ms=500.0, max_rows=10)
    assert tight.timeout_ms == 100.0
    assert tight.max_rows == 10


# -- admission controller -----------------------------------------------------


def test_admission_sheds_when_saturated_and_queue_full():
    async def scenario():
        controller = AdmissionController(
            max_concurrency=1, queue_depth=1,
            registry=metrics.MetricsRegistry(),
        )
        release = asyncio.Event()

        async def hold():
            async with controller.admit("t"):
                await release.wait()

        holder = asyncio.create_task(hold())
        await asyncio.sleep(0)
        assert controller.in_flight == 1

        async def queued():
            async with controller.admit("t"):
                pass

        waiter = asyncio.create_task(queued())
        await asyncio.sleep(0)
        assert controller.waiting == 1
        # Slot busy, queue full: the third arrival sheds immediately.
        with pytest.raises(ServiceOverloadedError) as exc:
            async with controller.admit("t"):
                pass
        assert exc.value.retry_after_ms > 0
        release.set()
        await asyncio.gather(holder, waiter)
        assert controller.in_flight == 0
        assert controller.metrics.counter("serve.shed.queue_full").value == 1
        assert controller.metrics.counter("serve.admitted").value == 2

    asyncio.run(scenario())


def test_admission_queue_timeout_sheds():
    async def scenario():
        controller = AdmissionController(
            max_concurrency=1, queue_depth=4, queue_timeout_ms=20.0,
            registry=metrics.MetricsRegistry(),
        )
        release = asyncio.Event()

        async def hold():
            async with controller.admit("t"):
                await release.wait()

        holder = asyncio.create_task(hold())
        await asyncio.sleep(0)
        with pytest.raises(ServiceOverloadedError):
            async with controller.admit("t"):
                pass
        assert (
            controller.metrics.counter("serve.shed.queue_timeout").value == 1
        )
        release.set()
        await holder

    asyncio.run(scenario())


def test_admission_drain_sheds_new_and_queued():
    async def scenario():
        controller = AdmissionController(
            max_concurrency=1, queue_depth=4,
            registry=metrics.MetricsRegistry(),
        )
        release = asyncio.Event()

        async def hold():
            async with controller.admit("t"):
                await release.wait()

        holder = asyncio.create_task(hold())
        await asyncio.sleep(0)

        async def queued():
            async with controller.admit("t"):
                pass

        waiter = asyncio.create_task(queued())
        await asyncio.sleep(0)
        controller.begin_drain()
        with pytest.raises(ServiceDrainingError):
            async with controller.admit("t"):
                pass
        release.set()
        await holder
        # The queued request woke into a draining controller: shed too.
        with pytest.raises(ServiceDrainingError):
            await waiter
        assert await controller.wait_idle(1.0)

    asyncio.run(scenario())


# -- integration: answers, errors, tenancy ------------------------------------


CELLS = [
    ("SELECT COUNT(*) FROM T", "by-table", "range"),
    ("SELECT COUNT(*) FROM T WHERE value < 500", "by-table", "distribution"),
    ("SELECT SUM(value) FROM T", "by-table", "expected-value"),
    ("SELECT COUNT(*) FROM T WHERE value < 500", "by-tuple", "distribution"),
    ("SELECT AVG(value) FROM T WHERE value < 500", "by-table", "range"),
]


def test_served_answers_bit_identical_to_engine(registry):
    engine = registry.engine("demo")
    service = make_service(registry)
    try:
        with ServeClient(port=service.port) as client:
            for query, msem, asem in CELLS:
                direct = engine.answer(query, msem, asem)
                served = client.answer("demo", query, msem, asem)
                assert served == direct, (query, msem, asem)
            # Seeded sampling is reproducible across the wire too.
            direct = engine.answer(
                HEAVY["query"], "by-tuple", "distribution",
                samples=64, seed=7,
            )
            served = client.answer(
                "demo", HEAVY["query"], "by-tuple", "distribution",
                samples=64, seed=7,
            )
            assert served == direct
    finally:
        service.stop()


def test_metrics_endpoint_scrapes(registry):
    """GET /metrics is the scrape endpoint: the service registry's
    Prometheus exposition, counting the requests it served."""
    service = make_service(registry)
    try:
        with ServeClient(port=service.port) as client:
            client.answer("demo", "SELECT COUNT(*) FROM T", "by-table", "range")
            text = client.metrics_text()
    finally:
        service.stop()
    assert "# TYPE repro_serve_requests_total counter" in text
    assert "repro_serve_requests_total " in text


def test_typed_errors_over_the_wire(registry):
    service = make_service(registry)
    try:
        with ServeClient(port=service.port) as client:
            unknown = client.query("nope", "SELECT COUNT(*) FROM T",
                                   "by-table", "range")
            assert unknown.status_code == 404
            assert isinstance(unknown.error, UnknownDatasetError)
            assert unknown.payload["error"]["known"] == ["demo"]

            bad_sql = client.query("demo", "SELEC COUNT(*) FROM T",
                                   "by-table", "range")
            assert bad_sql.status_code == 400
            assert bad_sql.error_type == "SQLSyntaxError"

            bad_field = client.query("demo", "SELECT COUNT(*) FROM T",
                                     "by-table", "range", samples=-3)
            assert bad_field.status_code == 400
            assert bad_field.error_type == "ProtocolError"

            with pytest.raises(UnknownDatasetError):
                client.answer("nope", "SELECT COUNT(*) FROM T",
                              "by-table", "range")
    finally:
        service.stop()


def test_cost_based_admission_rejects_over_budget_tenant(registry):
    registry.set_tenant(
        TenantPolicy("cramped", budget=Budget(max_rows=100))
    )
    service = make_service(registry)
    try:
        with ServeClient(port=service.port) as client:
            # 2000 estimated row visits against max_rows=100: rejected at
            # admission, before any execution.
            rejected = client.query(
                "demo", "SELECT COUNT(*) FROM T", "by-table", "range",
                tenant="cramped",
            )
            assert rejected.status_code == 429
            assert isinstance(rejected.error, AdmissionRejectedError)
            assert rejected.payload["error"]["resource"] == "rows"
            assert rejected.payload["error"]["limit"] == 100
            # The same query sails through for an unbudgeted tenant.
            assert client.query(
                "demo", "SELECT COUNT(*) FROM T", "by-table", "range"
            ).ok
            # Shed accounting: the rejection reached the query log
            # (status "shed") and the serve.* counters.
            records = registry.engine("demo").recent_queries(5)
            shed = [r for r in records if r.status == "shed"]
            assert shed and shed[-1].lane == "admission"
            assert shed[-1].error == "AdmissionRejectedError"
            counters = service.service.metrics
            assert counters.counter("serve.shed.cost").value == 1
            assert counters.counter("serve.shed").value == 1
    finally:
        service.stop()


def test_tenant_budget_degrades_without_starving_others(registry):
    registry.set_tenant(
        TenantPolicy("impatient", budget=Budget(timeout_ms=40.0))
    )
    service = make_service(registry, max_concurrency=4)
    results: dict[str, object] = {}

    def heavy():
        with ServeClient(port=service.port) as client:
            results["heavy"] = client.query(
                "demo", tenant="impatient", samples=4000, seed=1, **HEAVY
            )

    def cheap():
        with ServeClient(port=service.port) as client:
            results["cheap"] = [
                client.query("demo", "SELECT COUNT(*) FROM T",
                             "by-table", "range")
                for _ in range(5)
            ]

    try:
        threads = [threading.Thread(target=heavy),
                   threading.Thread(target=cheap)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        heavy_response = results["heavy"]
        # The impatient tenant's ~1.3 s query hit its 40 ms budget: it
        # either degraded to a cheaper answer or failed *typed* — and
        # promptly, because the deadline bounds the execution itself.
        if heavy_response.ok:
            assert heavy_response.status == "degraded"
            assert heavy_response.degradation is not None
        else:
            assert isinstance(
                heavy_response.error, (GuardrailError, ReproError)
            )
        # Meanwhile the unbudgeted tenant never noticed.
        assert all(r.ok for r in results["cheap"])
    finally:
        service.stop()


# -- integration: overload shedding -------------------------------------------


def test_overload_sheds_typed_and_accounts_exactly(registry):
    from repro.serve import LoadGenerator

    service = make_service(
        registry, max_concurrency=2, queue_depth=1,
    )
    try:
        flood = LoadGenerator(
            "127.0.0.1", service.port,
            dict(dataset="demo", samples=150, seed=3, **HEAVY),
            concurrency=10, requests_per_worker=3,
        ).run()
        report = flood.report()
        assert flood.transport_errors == 0, report
        assert flood.admitted > 0, report
        assert flood.shed > 0, report  # 10-way flood vs 3 slots must shed
        assert flood.admitted + flood.shed == flood.total, report
        # Client-side tallies match the server's serve.* counters.
        counters = service.service.metrics
        assert counters.counter("serve.admitted").value == flood.admitted
        assert (
            counters.counter("serve.shed.queue_full").value
            == flood.outcomes.get("ServiceOverloadedError", 0)
        )
        assert counters.gauge("serve.in_flight").value == 0
    finally:
        service.stop()


# -- integration: graceful drain ----------------------------------------------


def test_drain_completes_in_flight_and_sheds_latecomers(registry):
    service = make_service(registry, max_concurrency=4, queue_depth=4)
    barrier = threading.Barrier(7)
    responses: list[object] = []
    lock = threading.Lock()

    def one_query():
        with ServeClient(port=service.port) as client:
            client.healthz()  # establish the connection pre-drain
            barrier.wait()
            response = client.query(
                "demo", samples=300, seed=5, **HEAVY
            )
            with lock:
                responses.append(response)

    threads = [threading.Thread(target=one_query) for _ in range(6)]
    for thread in threads:
        thread.start()
    barrier.wait()  # all six requests are being written now
    import time

    time.sleep(0.05)  # let some be admitted mid-execution
    report = service.stop()
    for thread in threads:
        thread.join(timeout=30)

    # Zero dropped in-flight: every request got a complete response —
    # an answer for the admitted, a typed shed for the rest.
    assert len(responses) == 6
    for response in responses:
        if response.ok:
            assert response.payload["answer"]["kind"] == "distribution"
        else:
            assert isinstance(
                response.error,
                (ServiceDrainingError, ServiceOverloadedError),
            )
    assert any(r.ok for r in responses)  # the drain finished real work
    assert report["drained_clean"] is True
    assert report["abandoned_requests"] == 0
    # The listener is gone: fresh connections are refused.
    with pytest.raises(OSError):
        socket.create_connection(("127.0.0.1", service.port), timeout=1)


def test_readyz_flips_to_503_during_drain(registry):
    import time

    service = make_service(registry)
    with ServeClient(port=service.port) as probe:
        assert probe.readyz().status_code == 200
        # Hold the drain open with a slow in-flight query, then observe
        # readiness flip on the already-established probe connection.
        holder = threading.Thread(
            target=lambda: ServeClient(port=service.port).query(
                "demo", samples=2000, seed=9, **HEAVY
            )
        )
        holder.start()
        time.sleep(0.1)  # the heavy query is executing now
        service.service.request_drain()
        deadline = time.monotonic() + 5
        ready = probe.readyz()
        while ready.status_code != 503 and time.monotonic() < deadline:
            ready = probe.readyz()
        assert ready.status_code == 503
        assert ready.payload["status"] == "draining"
        holder.join(timeout=30)
    report = service.stop()
    assert report["drained_clean"] is True


def _raw_exchange(port: int, parts: list[bytes], *, half_close: bool = False):
    """Send ``parts`` on a fresh connection (then optionally shut the
    write side) and read until the server closes: ``(status, error type,
    seconds waited)``."""
    import time

    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        for part in parts:
            sock.sendall(part)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        started = time.monotonic()
        received = b""
        while chunk := sock.recv(65536):
            received += chunk
        waited = time.monotonic() - started
    head, _, body = received.partition(b"\r\n\r\n")
    status = int(head.split()[1])
    return status, json.loads(body)["error"]["type"], waited


@pytest.mark.parametrize(
    "parts, half_close",
    [
        # Stalled body: 6 of 100 promised bytes, then nothing.
        ([b"POST /query HTTP/1.1\r\ncontent-length: 100\r\n\r\n", b"{\"a\":1"],
         False),
        # Stalled headers.
        ([b"POST /query HTTP/1.1\r\ncontent-le"], False),
        # Stalled request line.
        ([b"GET /heal"], False),
        # Truncated body, then a half-close: no need to wait.
        ([b"POST /query HTTP/1.1\r\ncontent-length: 100\r\n\r\n", b"{\"a\":1"],
         True),
    ],
    ids=["stalled-body", "stalled-headers", "stalled-line", "half-close"],
)
@pytest.mark.parametrize("python310", [False, True], ids=["timeout", "wait_for"])
def test_stalled_request_gets_a_typed_400_and_a_close(
    registry, monkeypatch, parts, half_close, python310
):
    monkeypatch.setattr(protocol, "REQUEST_TIMEOUT_S", 0.3)
    if python310:  # no asyncio.timeout: the bound runs through wait_for
        monkeypatch.setattr(protocol, "_timeout", None)
    service = make_service(registry, default_timeout_ms=500)
    try:
        status, error, waited = _raw_exchange(
            service.port, parts, half_close=half_close
        )
        assert (status, error) == (400, "ProtocolError")
        assert waited < 5.0
        # The service keeps serving.
        with ServeClient(port=service.port) as client:
            assert client.healthz().status_code == 200
    finally:
        report = service.stop()
    assert report["drained_clean"] is True


def test_idle_keep_alive_connection_is_not_cut(registry, monkeypatch):
    import time

    monkeypatch.setattr(protocol, "REQUEST_TIMEOUT_S", 0.2)
    service = make_service(registry)
    try:
        with ServeClient(port=service.port) as client:
            assert client.healthz().status_code == 200
            time.sleep(0.5)  # idle between requests, past the request bound
            assert client.healthz().status_code == 200
    finally:
        report = service.stop()
    assert report["drained_clean"] is True


def test_drain_report_flushes_registry():
    reg = DatasetRegistry()
    reg.add_synthetic("flush", tuples=100, attributes=4, mappings=3, seed=2)
    service = ServiceThread(
        reg,
        config=ServeConfig(port=0),  # default: close_registry_on_drain
        metrics_registry=metrics.MetricsRegistry(),
    ).start()
    with ServeClient(port=service.port) as client:
        assert client.query("flush", "SELECT COUNT(*) FROM T",
                            "by-table", "range").ok
    report = service.stop()
    assert report["flushed"]["flush"]["query_log_records"] == 1
    assert len(reg) == 0  # engines closed and deregistered


# -- startup failure ----------------------------------------------------------


def test_bind_failure_is_typed_startup_error():
    blocker = socket.socket()
    blocker.bind(("127.0.0.1", 0))
    blocker.listen(1)
    port = blocker.getsockname()[1]
    reg = DatasetRegistry()
    reg.add_synthetic("x", tuples=10, attributes=3, mappings=2, seed=0)
    try:
        with pytest.raises(ServiceStartupError) as exc:
            ServiceThread(
                reg, config=ServeConfig(port=port)
            ).start()
        assert exc.value.port == port
        assert exit_code_for(exc.value) == 15
    finally:
        blocker.close()
        reg.close()


# -- chaos: the serve.* failpoints --------------------------------------------


class TestServeChaos:
    """Injected faults at every serve seam surface as typed JSON."""

    def test_accept_raise_is_typed_500(self, registry):
        service = make_service(registry)
        try:
            with ServeClient(port=service.port) as client:
                faults.arm("serve.accept", "raise:OSError")
                response = client.query("demo", "SELECT COUNT(*) FROM T",
                                        "by-table", "range")
                assert response.status_code == 500
                assert response.payload["error"]["type"] == "InternalError"
                assert "injected" in response.payload["error"]["message"]
                faults.reset()
                # The service recovered: next request is served normally.
                assert client.query("demo", "SELECT COUNT(*) FROM T",
                                    "by-table", "range").ok
        finally:
            service.stop()

    def test_accept_corrupt_is_detected(self, registry):
        service = make_service(registry)
        try:
            with ServeClient(port=service.port) as client:
                faults.arm("serve.accept", "corrupt")
                response = client.query("demo", "SELECT COUNT(*) FROM T",
                                        "by-table", "range")
                assert response.status_code == 500
                assert response.error_type == "ServeError"
                assert "corruption" in response.payload["error"]["message"]
        finally:
            service.stop()

    def test_handler_raise_is_typed_500(self, registry):
        service = make_service(registry)
        try:
            with ServeClient(port=service.port) as client:
                faults.arm("serve.handler", "raise:OSError")
                response = client.query("demo", "SELECT COUNT(*) FROM T",
                                        "by-table", "range")
                assert response.status_code == 500
                assert response.payload["error"]["type"] == "InternalError"
        finally:
            service.stop()

    def test_handler_corrupt_poisons_payload_detectably(self, registry):
        service = make_service(registry)
        try:
            with ServeClient(port=service.port) as client:
                faults.arm("serve.handler", "corrupt")
                response = client.query("demo", "SELECT COUNT(*) FROM T",
                                        "by-table", "range")
                # The corrupted answer cannot serialize: the client sees
                # a typed EvaluationError, never a wrong answer.
                assert response.status_code == 500
                assert response.error_type == "EvaluationError"
                faults.reset()
                assert client.query("demo", "SELECT COUNT(*) FROM T",
                                    "by-table", "range").ok
        finally:
            service.stop()

    def test_drain_fault_is_contained(self, registry):
        service = make_service(registry)
        faults.arm("serve.drain", "raise:OSError")
        report = service.stop()
        # The fault is recorded, but the drain still completed cleanly.
        assert report["fault"] == "OSError"
        assert report["drained_clean"] is True

    @pytest.mark.parametrize("name", ["serve.accept", "serve.handler"])
    def test_delay_faults_only_slow_never_break(self, registry, name):
        service = make_service(registry)
        try:
            with ServeClient(port=service.port) as client:
                faults.arm(name, "delay:0.01")
                response = client.query("demo", "SELECT COUNT(*) FROM T",
                                        "by-table", "range")
                assert response.ok
        finally:
            service.stop()


# -- CLI glue -----------------------------------------------------------------


def test_parse_tenant_spec():
    from repro.cli import _parse_tenant_spec

    policy = _parse_tenant_spec("gold:timeout_ms=500,max_worlds=1e6,samples=64")
    assert policy.name == "gold"
    assert policy.budget.timeout_ms == 500.0
    assert policy.budget.max_worlds == 1e6
    assert policy.samples == 64
    bare = _parse_tenant_spec("plain")
    assert bare.budget is None and bare.samples is None
    with pytest.raises(ValueError):
        _parse_tenant_spec("gold:vibes=1")
    with pytest.raises(ValueError):
        _parse_tenant_spec(":timeout_ms=1")
