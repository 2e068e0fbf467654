"""The asyncio query service: routing, execution, telemetry, drain.

One :class:`QueryService` owns a listening socket, an
:class:`~repro.serve.admission.AdmissionController`, a
:class:`~repro.serve.registry.DatasetRegistry`, and a thread pool sized
to the admission concurrency.  The event loop only parses, routes, and
sheds; every engine call runs on a worker thread, where the engine's
cooperative guardrails (budgets, deadlines, degradation) bound it — the
loop is never blocked by an ``m^n`` query.

Robustness contract (tested by the serve chaos matrix and
``scripts/serve_smoke_check.py``):

* every response is a fully-rendered typed JSON document — injected
  faults surface as ``{"error": {...}}``, never a hung or half-written
  connection;
* overload sheds promptly (429/503) instead of queueing unboundedly,
  and predictably-over-budget queries are rejected at admission using
  the plan-time cost estimate;
* SIGTERM (or :meth:`QueryService.request_drain`) stops accepting,
  finishes in-flight requests under the drain deadline, then closes
  every engine and reports each dataset's query-log record count.

Per-request telemetry: a ``serve.request`` span per executed query,
``serve.*`` metrics on the existing registry (scrapeable at
``GET /metrics``), and one :class:`~repro.obs.querylog.QueryRecord` per
admitted execution *and* per shed request (status ``"shed"``) in the
dataset engine's query log.
"""

from __future__ import annotations

import asyncio
import signal
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.core import guard
from repro.core.engine import AggregationEngine
from repro.core.planner import ExecutionPlan
from repro.exceptions import (
    AdmissionRejectedError,
    ProtocolError,
    ReproError,
    ServeError,
    ServiceStartupError,
)
from repro.obs import export, metrics, querylog, trace
from repro.obs.timers import Stopwatch
from repro.serve import protocol
from repro.serve.admission import AdmissionController
from repro.serve.registry import DatasetRegistry, TenantPolicy
from repro.testing import faults


class ServeConfig:
    """Service tunables (mirrored by the ``repro-bench serve`` flags)."""

    __slots__ = (
        "host",
        "port",
        "max_concurrency",
        "queue_depth",
        "queue_timeout_ms",
        "default_timeout_ms",
        "drain_timeout_ms",
        "close_registry_on_drain",
    )

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_concurrency: int = 8,
        queue_depth: int = 16,
        queue_timeout_ms: float | None = None,
        default_timeout_ms: float | None = None,
        drain_timeout_ms: float = 10000.0,
        close_registry_on_drain: bool = True,
    ) -> None:
        self.host = host
        self.port = port
        self.max_concurrency = max_concurrency
        self.queue_depth = queue_depth
        self.queue_timeout_ms = queue_timeout_ms
        self.default_timeout_ms = default_timeout_ms
        self.drain_timeout_ms = drain_timeout_ms
        self.close_registry_on_drain = close_registry_on_drain

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class QueryService:
    """The asyncio HTTP/JSON front end over a :class:`DatasetRegistry`."""

    def __init__(
        self,
        registry: DatasetRegistry,
        *,
        config: ServeConfig | None = None,
        admission: AdmissionController | None = None,
        metrics_registry: metrics.MetricsRegistry | None = None,
    ) -> None:
        self.registry = registry
        self.config = config if config is not None else ServeConfig()
        self.metrics = (
            metrics_registry
            if metrics_registry is not None
            else metrics.get_registry()
        )
        self.admission = admission if admission is not None else AdmissionController(
            max_concurrency=self.config.max_concurrency,
            queue_depth=self.config.queue_depth,
            queue_timeout_ms=self.config.queue_timeout_ms,
            registry=self.metrics,
        )
        self._server: asyncio.base_events.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.max_concurrency,
            thread_name_prefix="repro-serve",
        )
        self._active_requests = 0
        self._requests_idle = asyncio.Event()
        self._requests_idle.set()
        self._writers: set[asyncio.StreamWriter] = set()
        self._connection_tasks: set[asyncio.Task] = set()
        self._drain_task: asyncio.Task | None = None
        self._done = asyncio.Event()
        self.drain_report: dict | None = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> "QueryService":
        """Bind and start accepting; :class:`ServiceStartupError` on failure."""
        if self._server is not None:
            return self
        self._loop = asyncio.get_running_loop()
        try:
            self._server = await asyncio.start_server(
                self._handle_connection,
                host=self.config.host,
                port=self.config.port,
            )
        except OSError as error:
            raise ServiceStartupError(
                f"cannot bind query service on "
                f"{self.config.host}:{self.config.port}: {error}",
                host=self.config.host,
                port=self.config.port,
            ) from error
        self.metrics.set_gauge("serve.up", 1)
        return self

    @property
    def port(self) -> int:
        """The bound TCP port (the ephemeral one when configured with 0)."""
        if self._server is None:
            raise ServeError("service is not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT trigger a graceful drain (CLI entry point)."""
        assert self._loop is not None, "start() first"
        for signum in (signal.SIGTERM, signal.SIGINT):
            self._loop.add_signal_handler(signum, self._ensure_drain)

    async def serve_forever(self) -> dict:
        """Serve until a drain completes; returns the drain report."""
        await self._done.wait()
        return self.drain_report or {}

    # -- drain -------------------------------------------------------------

    def _ensure_drain(self) -> asyncio.Task:
        if self._drain_task is None:
            assert self._loop is not None
            self._drain_task = self._loop.create_task(self._drain())
        return self._drain_task

    def request_drain(self) -> None:
        """Begin a graceful drain from any thread (idempotent)."""
        assert self._loop is not None, "start() first"
        try:
            self._loop.call_soon_threadsafe(self._ensure_drain)
        except RuntimeError:
            # The loop already exited: only possible after the drain ran.
            assert self._done.is_set()

    async def drain(self) -> dict:
        """Begin (or join) the graceful drain; returns its report."""
        return await self._ensure_drain()

    async def _drain(self) -> dict:
        report: dict = {
            "in_flight_at_signal": self.admission.in_flight,
            "waiting_at_signal": self.admission.waiting,
            "active_requests_at_signal": self._active_requests,
        }
        self.metrics.inc("serve.drain.requested")
        self.metrics.set_gauge("serve.up", 0)
        watch = Stopwatch()
        with watch:
            try:
                faults.maybe_fire("serve.drain")
            except Exception as error:
                # A drain-seam fault is contained: shutdown must finish.
                self.metrics.inc("serve.drain.fault")
                report["fault"] = type(error).__name__
            self.admission.begin_drain()
            if self._server is not None:
                self._server.close()
                await self._server.wait_closed()
            timeout_ms = self.config.drain_timeout_ms
            clean = await self._wait_requests_idle(
                timeout_ms / 1000.0 if timeout_ms is not None else None
            )
            report["drained_clean"] = clean
            report["abandoned_requests"] = 0 if clean else self._active_requests
            # Idle keep-alive connections hold no requests: closing their
            # transports lets each handler loop see EOF and exit cleanly.
            for writer in list(self._writers):
                writer.close()
            if self._connection_tasks:
                await asyncio.wait(
                    list(self._connection_tasks), timeout=1.0
                )
            for task in list(self._connection_tasks):
                task.cancel()
            self._executor.shutdown(wait=False)
            if self.config.close_registry_on_drain:
                report["flushed"] = self.registry.close()
        report["seconds"] = watch.elapsed
        self.metrics.observe("serve.drain.seconds", watch.elapsed)
        self.drain_report = report
        self._done.set()
        return report

    async def _wait_requests_idle(self, timeout_s: float | None) -> bool:
        if timeout_s is None:
            await self._requests_idle.wait()
            return True
        try:
            await asyncio.wait_for(self._requests_idle.wait(), timeout_s)
            return True
        except asyncio.TimeoutError:
            return False

    # -- connection handling ------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connection_tasks.add(task)
        self._writers.add(writer)
        try:
            while True:
                try:
                    request = await protocol.read_request(reader)
                except ProtocolError as error:
                    await self._write(
                        writer, self._error_response(error, keep_alive=False)
                    )
                    break
                if request is None:
                    break
                response, keep_alive = await self._process(request)
                await self._write(writer, response)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._writers.discard(writer)
            if task is not None:
                self._connection_tasks.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _write(self, writer: asyncio.StreamWriter, payload: bytes) -> None:
        writer.write(payload)
        await writer.drain()

    def _error_response(
        self, error: BaseException, *, keep_alive: bool = True
    ) -> bytes:
        status, body = protocol.error_to_json(error)
        return protocol.render_response(
            status, protocol.json_body(body), keep_alive=keep_alive
        )

    async def _process(self, request: protocol.HttpRequest) -> tuple[bytes, bool]:
        """Route one request; always returns a complete typed response."""
        self.metrics.inc("serve.requests")
        self._active_requests += 1
        self._requests_idle.clear()
        try:
            corrupt = faults.maybe_fire("serve.accept")
            if corrupt is faults.CORRUPT:
                raise ServeError(
                    "injected corruption at serve.accept (detected)"
                )
            status, payload = await self._route(request)
            if isinstance(payload, str):  # the Prometheus exposition
                body = payload.encode("utf-8")
                content_type = export.CONTENT_TYPE
            else:
                body = protocol.json_body(payload)
                content_type = protocol.JSON_CONTENT_TYPE
            return (
                protocol.render_response(
                    status,
                    body,
                    content_type=content_type,
                    keep_alive=request.keep_alive,
                ),
                request.keep_alive,
            )
        except Exception as error:
            # The chaos invariant: any failure — library, injected, or
            # programming error — becomes a typed JSON response on an
            # intact connection (closed afterwards for non-library ones).
            keep_alive = request.keep_alive and isinstance(error, ReproError)
            self.metrics.inc("serve.errors")
            return self._error_response(error, keep_alive=keep_alive), keep_alive
        finally:
            self._active_requests -= 1
            if self._active_requests == 0:
                self._requests_idle.set()

    async def _route(self, request: protocol.HttpRequest) -> tuple[int, dict | str]:
        path = request.path
        if path == "/healthz":
            return 200, {"status": "ok"}
        if path == "/readyz":
            snapshot = self.admission.snapshot()
            if self.admission.draining:
                return 503, {"status": "draining", **snapshot}
            return 200, {"status": "ready", **snapshot}
        if path == "/metrics":
            return 200, export.render_prometheus(self.metrics)
        if path == "/datasets":
            return 200, {
                "datasets": self.registry.names(),
                "tenants": [
                    policy.to_dict() for policy in self.registry.tenants()
                ],
            }
        if path == "/query":
            if request.method != "POST":
                raise ProtocolError("POST /query (method not allowed)")
            return await self._handle_query(request)
        raise ProtocolError(
            f"no route for {request.method} {path} (endpoints: /query, "
            "/healthz, /readyz, /metrics, /datasets)"
        )

    # -- the query endpoint --------------------------------------------------

    async def _handle_query(self, request: protocol.HttpRequest) -> tuple[int, dict]:
        qr = protocol.parse_query_request(request.json())
        engine = self.registry.engine(qr.dataset)
        policy = self.registry.tenant(qr.tenant)
        timeout_ms = (
            qr.timeout_ms
            if qr.timeout_ms is not None
            else self.config.default_timeout_ms
        )
        budget = guard.combine(
            policy.budget,
            guard.Budget(timeout_ms=timeout_ms)
            if timeout_ms is not None
            else None,
        )
        samples = qr.samples if qr.samples is not None else policy.samples
        assert self._loop is not None
        try:
            async with self.admission.admit(policy.name):
                corrupt = faults.maybe_fire("serve.handler")
                result = await self._loop.run_in_executor(
                    self._executor,
                    self._execute,
                    engine,
                    qr,
                    policy,
                    budget,
                    samples,
                    corrupt is faults.CORRUPT,
                )
        except ReproError as error:
            self._record_outcome(engine, qr, error=error)
            raise
        self.metrics.inc("serve.completed")
        self.metrics.observe("serve.latency_seconds", result.pop("_seconds"))
        if result["status"] == querylog.STATUS_DEGRADED:
            self.metrics.inc("serve.degraded")
        return 200, result

    def _execute(
        self,
        engine: AggregationEngine,
        qr: protocol.QueryRequest,
        policy: TenantPolicy,
        budget: guard.Budget | None,
        samples: int | None,
        corrupt: bool,
    ) -> dict:
        """Worker-thread body: plan, admission cost check, execute, shape.

        Runs on the service's thread pool; the context's ``last_record``
        is thread-local, so the execution record read back here belongs
        to *this* request even with the engine shared across concurrent
        workers.
        """
        with trace.span(
            "serve.request",
            dataset=qr.dataset,
            tenant=policy.name,
            digest=querylog.query_digest(qr.query),
        ):
            plan = engine.plan(
                qr.query, qr.mapping_semantics, qr.aggregate_semantics
            )
            self._admission_cost_check(plan, budget, samples, engine)
            watch = Stopwatch()
            with watch:
                answer = plan.answer(
                    samples=samples, seed=qr.seed, budget=budget
                )
            if corrupt:
                # The seam's detectable corruption: a payload that cannot
                # be an answer, caught by serialization below.
                answer = faults.CORRUPT  # type: ignore[assignment]
            record = engine.context.last_record
            payload = protocol.answer_to_json(answer)
        result: dict = {
            "protocol": protocol.PROTOCOL_VERSION,
            "dataset": qr.dataset,
            "tenant": policy.name,
            "digest": querylog.query_digest(qr.query),
            "mapping_semantics": qr.mapping_semantics,
            "aggregate_semantics": qr.aggregate_semantics,
            "status": record.status,
            "lane": record.executed_lane,
            "answer": payload,
            "seconds": watch.elapsed,
            "_seconds": watch.elapsed,
        }
        if record.degraded is not None:
            result["degradation"] = dict(record.degraded)
            result["epsilon"] = record.epsilon
        return result

    def _admission_cost_check(
        self,
        plan: ExecutionPlan,
        budget: guard.Budget | None,
        samples: int | None,
        engine: AggregationEngine,
    ) -> None:
        """Reject queries the cost model already prices over budget.

        Only dimensions degradation cannot save reject: every lane scans
        at least the source rows, so ``rows`` over ``max_rows`` is
        predictably fatal; ``worlds`` rejects only when no candidate lane
        (including a sampling degradation at the effective sample count)
        fits under ``max_worlds``.  Deadlines never reject — a time
        budget is a measurement, not an estimate.
        """
        estimate = plan.estimate
        if budget is None or estimate is None:
            return
        if budget.max_rows is not None and estimate.rows > budget.max_rows:
            self.metrics.inc("serve.shed.cost")
            raise AdmissionRejectedError(
                f"estimated {estimate.rows:g} row visits exceed the "
                f"tenant's max_rows budget ({budget.max_rows})",
                resource="rows",
                estimate=estimate.rows,
                limit=budget.max_rows,
            )
        if budget.max_worlds is None:
            return
        effective_samples = (
            samples if samples is not None else engine.context.samples
        )
        cheapest = estimate.worlds
        if engine.context.degrade:
            for candidate in estimate.candidates.values():
                worlds = candidate.worlds
                if candidate.lane == "sampling":
                    worlds = float(effective_samples)
                cheapest = min(cheapest, worlds)
        if cheapest > budget.max_worlds:
            self.metrics.inc("serve.shed.cost")
            raise AdmissionRejectedError(
                f"estimated {cheapest:g} possible worlds exceed the "
                f"tenant's max_worlds budget ({budget.max_worlds}) on "
                "every available lane",
                resource="worlds",
                estimate=cheapest,
                limit=budget.max_worlds,
            )

    def _record_outcome(
        self,
        engine: AggregationEngine,
        qr: protocol.QueryRequest,
        *,
        error: ReproError,
    ) -> None:
        """Log a shed/rejected request into the dataset's query log.

        Executed requests are logged by the engine's own outermost
        execution frame; this covers the ones admission turned away, so
        the query log accounts for every request the service saw.
        """
        if not isinstance(
            error, (AdmissionRejectedError, ServeError)
        ) or isinstance(error, ProtocolError):
            return
        try:
            self.metrics.inc("serve.shed")
            engine.context.query_log.record(
                querylog.QueryRecord(
                    ts=querylog.now(),
                    query=qr.query,
                    mapping_semantics=qr.mapping_semantics,
                    aggregate_semantics=qr.aggregate_semantics,
                    lane=querylog.ADMISSION_LANE,
                    status=querylog.STATUS_SHED,
                    seconds=0.0,
                    rows=0,
                    error=type(error).__name__,
                )
            )
        except Exception:
            # Telemetry must never turn a shed into a crash.
            self.metrics.inc("serve.querylog_error")


class ServiceThread:
    """A service running on its own event loop in a daemon thread.

    The integration seam for tests, benches, and smoke checks: start,
    get the bound port, drive it with blocking clients, then
    :meth:`stop` (drain + join).  Startup errors surface in
    :meth:`start` as the typed :class:`ServiceStartupError`.
    """

    def __init__(
        self,
        registry: DatasetRegistry,
        *,
        config: ServeConfig | None = None,
        metrics_registry: metrics.MetricsRegistry | None = None,
    ) -> None:
        self.service = QueryService(
            registry, config=config, metrics_registry=metrics_registry
        )
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None
        self._port: int | None = None

    def _main(self) -> None:
        async def body() -> None:
            try:
                await self.service.start()
                self._port = self.service.port
            except BaseException as error:  # noqa: BLE001 - reported to caller
                self._startup_error = error
                self._started.set()
                return
            self._started.set()
            await self.service.serve_forever()

        asyncio.run(body())

    def start(self) -> "ServiceThread":
        if self._thread is not None:
            return self
        self._thread = threading.Thread(
            target=self._main, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            raise self._startup_error
        return self

    @property
    def port(self) -> int:
        assert self._port is not None, "start() first"
        return self._port

    def request_drain(self) -> None:
        self.service.request_drain()

    def stop(self, timeout_s: float = 30.0) -> dict | None:
        """Drain gracefully and join the loop thread."""
        if self._thread is None:
            return None
        self.service.request_drain()
        self._thread.join(timeout=timeout_s)
        return self.service.drain_report

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
