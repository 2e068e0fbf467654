"""A blocking client and a threaded load generator for the query service.

:class:`ServeClient` wraps :mod:`http.client` with the service's JSON
protocol: it posts query requests, decodes answers back into the same
:class:`~repro.core.answers.AggregateAnswer` objects the embedded engine
returns (so tests can compare them ``==`` bit-identically), and
reconstructs typed errors from the service's error envelope — a shed
request raises the *same* exception class on the client that the
admission controller raised on the server.

:class:`LoadGenerator` floods the service from a thread pool at a fixed
offered concurrency, tallying admitted/shed/error outcomes and latency
percentiles — the instrument behind ``benchmarks/bench_serve.py`` and
``scripts/serve_smoke_check.py``.

Both are stdlib-only and synchronous: the service's robustness is
exercised from the outside, over real sockets.
"""

from __future__ import annotations

import http.client
import json
import threading
import time

from repro.core.answers import AggregateAnswer
from repro.exceptions import ProtocolError, ReproError
from repro.serve import protocol


class ServeResponse:
    """One decoded service response (success or typed error)."""

    __slots__ = ("status_code", "payload")

    def __init__(self, status_code: int, payload: dict) -> None:
        self.status_code = status_code
        self.payload = payload

    @property
    def ok(self) -> bool:
        return "error" not in self.payload

    @property
    def error(self) -> ReproError | None:
        """The reconstructed typed error, or ``None`` on success."""
        if self.ok:
            return None
        return protocol.error_from_json(self.payload)

    @property
    def error_type(self) -> str | None:
        if self.ok:
            return None
        return self.payload["error"].get("type")

    @property
    def answer(self) -> AggregateAnswer:
        """The decoded answer object (raises the typed error if any)."""
        error = self.error
        if error is not None:
            raise error
        return protocol.answer_from_json(self.payload["answer"])

    @property
    def status(self) -> str | None:
        """The execution status (``"ok"``/``"degraded"``), if present."""
        return self.payload.get("status")

    @property
    def lane(self) -> str | None:
        return self.payload.get("lane")

    @property
    def degradation(self) -> dict | None:
        return self.payload.get("degradation")

    def __repr__(self) -> str:
        tag = "ok" if self.ok else self.error_type
        return f"ServeResponse({self.status_code}, {tag})"


class ServeClient:
    """A blocking keep-alive client for one service endpoint.

    Not thread-safe (one underlying HTTP connection); give each load
    thread its own client.  Usable as a context manager.
    """

    def __init__(
        self, host: str = "127.0.0.1", port: int = 0, *, timeout_s: float = 30.0
    ) -> None:
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self._conn: http.client.HTTPConnection | None = None

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout_s
            )
        return self._conn

    def _request(
        self, method: str, path: str, body: bytes | None = None
    ) -> tuple[int, str, bytes]:
        headers = {}
        if body is not None:
            headers["Content-Type"] = protocol.JSON_CONTENT_TYPE
        try:
            conn = self._connection()
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            data = response.read()
            return response.status, response.getheader("Content-Type", ""), data
        except (http.client.HTTPException, ConnectionError, OSError):
            # The server closes connections on fatal errors and during
            # drain; retry exactly once on a fresh connection so a stale
            # keep-alive socket is not mistaken for an outage.
            self.close()
            conn = self._connection()
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            data = response.read()
            return response.status, response.getheader("Content-Type", ""), data

    def _json(self, method: str, path: str, payload: dict | None = None) -> ServeResponse:
        body = None
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
        status, _, data = self._request(method, path, body)
        try:
            decoded = json.loads(data.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as error:
            raise ProtocolError(
                f"service returned non-JSON body for {method} {path}: "
                f"{data[:200]!r}"
            ) from error
        return ServeResponse(status, decoded)

    # -- endpoints ---------------------------------------------------------

    def query(
        self,
        dataset: str,
        query: str,
        mapping_semantics: str,
        aggregate_semantics: str,
        *,
        tenant: str = "default",
        samples: int | None = None,
        seed: int | None = None,
        timeout_ms: float | None = None,
    ) -> ServeResponse:
        """POST /query; returns the decoded response, never raises typed
        service errors itself (inspect ``.ok`` / ``.error``, or use
        :meth:`ServeResponse.answer` to raise them)."""
        payload: dict = {
            "dataset": dataset,
            "query": query,
            "mapping_semantics": mapping_semantics,
            "aggregate_semantics": aggregate_semantics,
            "tenant": tenant,
        }
        if samples is not None:
            payload["samples"] = samples
        if seed is not None:
            payload["seed"] = seed
        if timeout_ms is not None:
            payload["timeout_ms"] = timeout_ms
        return self._json("POST", "/query", payload)

    def answer(self, *args, **kwargs) -> AggregateAnswer:
        """:meth:`query`, unwrapped: the answer object or a typed raise."""
        return self.query(*args, **kwargs).answer

    def healthz(self) -> ServeResponse:
        return self._json("GET", "/healthz")

    def readyz(self) -> ServeResponse:
        return self._json("GET", "/readyz")

    def datasets(self) -> ServeResponse:
        return self._json("GET", "/datasets")

    def metrics_text(self) -> str:
        """GET /metrics — the raw Prometheus exposition."""
        status, _, data = self._request("GET", "/metrics")
        if status != 200:
            raise ProtocolError(f"GET /metrics returned {status}")
        return data.decode("utf-8")

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def percentile(samples: list[float], q: float) -> float:
    """The ``q``-quantile (0..1) by nearest-rank on sorted ``samples``."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


class LoadGenerator:
    """Threaded closed-loop load against one service.

    ``concurrency`` worker threads each run their own
    :class:`ServeClient` back-to-back for ``duration_s`` (or
    ``requests_per_worker`` requests), tallying outcomes by class:
    ``ok``, ``degraded``, shed classes by error type, and transport
    errors.  Offered load is expressed as concurrency relative to the
    service's ``max_concurrency`` — 2x saturation means
    ``concurrency = 2 * (max_concurrency + queue_depth)`` arrivals
    competing for slots.
    """

    def __init__(
        self,
        host: str,
        port: int,
        request: dict,
        *,
        concurrency: int = 8,
        duration_s: float | None = None,
        requests_per_worker: int | None = None,
        timeout_s: float = 30.0,
    ) -> None:
        if (duration_s is None) == (requests_per_worker is None):
            raise ValueError(
                "give exactly one of duration_s / requests_per_worker"
            )
        self.host = host
        self.port = port
        self.request = dict(request)
        self.concurrency = concurrency
        self.duration_s = duration_s
        self.requests_per_worker = requests_per_worker
        self.timeout_s = timeout_s
        self._lock = threading.Lock()
        self.latencies_s: list[float] = []
        self.outcomes: dict[str, int] = {}
        self.transport_errors = 0
        self.elapsed_s = 0.0

    def _tally(self, outcome: str, seconds: float | None) -> None:
        with self._lock:
            self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
            if seconds is not None:
                self.latencies_s.append(seconds)

    def _worker(self, deadline: float | None) -> None:
        client = ServeClient(self.host, self.port, timeout_s=self.timeout_s)
        sent = 0
        try:
            while True:
                if deadline is not None and time.monotonic() >= deadline:
                    break
                if (
                    self.requests_per_worker is not None
                    and sent >= self.requests_per_worker
                ):
                    break
                sent += 1
                started = time.monotonic()
                try:
                    response = client.query(**self.request)
                except Exception:
                    with self._lock:
                        self.transport_errors += 1
                    client.close()
                    continue
                seconds = time.monotonic() - started
                if response.ok:
                    self._tally(response.status or "ok", seconds)
                else:
                    # Shed/rejected latency is not service latency.
                    self._tally(response.error_type or "error", None)
        finally:
            client.close()

    def run(self) -> "LoadGenerator":
        """Run the flood to completion; returns self for chaining."""
        deadline = (
            time.monotonic() + self.duration_s
            if self.duration_s is not None
            else None
        )
        threads = [
            threading.Thread(
                target=self._worker, args=(deadline,), name=f"repro-load-{i}"
            )
            for i in range(self.concurrency)
        ]
        started = time.monotonic()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.elapsed_s = time.monotonic() - started
        return self

    # -- results -----------------------------------------------------------

    @property
    def admitted(self) -> int:
        """Requests that executed (``ok`` + ``degraded``)."""
        return self.outcomes.get("ok", 0) + self.outcomes.get("degraded", 0)

    @property
    def shed(self) -> int:
        """Requests rejected with a typed overload/drain/admission error."""
        return sum(
            count
            for outcome, count in self.outcomes.items()
            if outcome
            in (
                "ServiceOverloadedError",
                "ServiceDrainingError",
                "AdmissionRejectedError",
            )
        )

    @property
    def total(self) -> int:
        return sum(self.outcomes.values()) + self.transport_errors

    def report(self) -> dict:
        """Latency percentiles, throughput, and the outcome tally."""
        return {
            "total": self.total,
            "admitted": self.admitted,
            "shed": self.shed,
            "transport_errors": self.transport_errors,
            "outcomes": dict(sorted(self.outcomes.items())),
            "throughput_rps": (
                self.admitted / self.elapsed_s if self.elapsed_s > 0 else 0.0
            ),
            "p50_ms": percentile(self.latencies_s, 0.50) * 1e3,
            "p95_ms": percentile(self.latencies_s, 0.95) * 1e3,
            "p99_ms": percentile(self.latencies_s, 0.99) * 1e3,
        }
