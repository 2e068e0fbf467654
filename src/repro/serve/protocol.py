"""The query service's wire protocol: HTTP framing, JSON schema, errors.

Three concerns, all dependency-free:

* **HTTP/1.1 framing** — :func:`read_request` parses one request off an
  :class:`asyncio.StreamReader` (request line, headers, Content-Length
  body; keep-alive by default), :func:`render_response` produces the
  byte-complete response.  The service never streams partial bodies:
  every response is rendered in full before the first byte is written,
  so an injected fault can never leave a half-written connection.
* **Request/answer JSON** — :func:`parse_query_request` validates the
  ``POST /query`` body into a :class:`QueryRequest`;
  :func:`answer_to_json` / :func:`answer_from_json` round-trip every
  :class:`~repro.core.answers.AggregateAnswer` type *exactly* (floats
  survive via ``repr``, so a served answer compares ``==`` to the same
  engine's direct answer).
* **Typed errors** — :func:`error_to_json` maps any exception to an
  HTTP status and a ``{"error": {...}}`` body whose ``type`` is the
  exception class, ``code`` the CLI-aligned exit code
  (:data:`repro.exceptions.ERROR_EXIT_CODES`), plus the class's
  structured fields (guard progress, shed counters, admission
  estimates); :func:`error_from_json` rebuilds the typed exception on
  the client side.
"""

from __future__ import annotations

import asyncio
import datetime
import json
import math

from repro.core.answers import (
    AggregateAnswer,
    DistributionAnswer,
    ExpectedValueAnswer,
    GroupedAnswer,
    RangeAnswer,
)
from repro.exceptions import (
    AdmissionRejectedError,
    BudgetExceededError,
    EvaluationError,
    GuardrailError,
    IntractableError,
    MappingError,
    ProtocolError,
    QueryTimeoutError,
    ReformulationError,
    ReproError,
    SchemaError,
    ServeError,
    ServiceDrainingError,
    ServiceOverloadedError,
    SQLSyntaxError,
    StorageError,
    UnknownDatasetError,
    UnsupportedQueryError,
    exit_code_for,
)
from repro.prob.distribution import DiscreteDistribution

#: Version stamped into every response envelope; bump on incompatible
#: schema changes so clients can refuse to misparse.
PROTOCOL_VERSION = 1

JSON_CONTENT_TYPE = "application/json; charset=utf-8"

#: Upper bounds keeping a misbehaving client from exhausting memory.
MAX_REQUEST_LINE = 8192
MAX_HEADER_BYTES = 32768
MAX_BODY_BYTES = 8 << 20

#: Seconds the rest of a request (line, headers, body) may take once its
#: first byte has arrived; a client stalling mid-request then gets a
#: typed 400 and a close instead of holding its connection open.  The
#: idle wait for a keep-alive connection's next request is unbounded.
REQUEST_TIMEOUT_S = 10.0

_timeout = getattr(asyncio, "timeout", None)

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Exception class -> HTTP status, most specific first (isinstance walk).
ERROR_STATUS: tuple[tuple[type, int], ...] = (
    (QueryTimeoutError, 504),
    (AdmissionRejectedError, 429),
    (ServiceOverloadedError, 429),
    (ServiceDrainingError, 503),
    (BudgetExceededError, 422),
    (GuardrailError, 422),
    (IntractableError, 422),
    (UnknownDatasetError, 404),
    (ProtocolError, 400),
    (SQLSyntaxError, 400),
    (UnsupportedQueryError, 400),
    (SchemaError, 400),
    (MappingError, 400),
    (ReformulationError, 400),
    (StorageError, 500),
    (EvaluationError, 500),
    (ReproError, 500),
)

#: Error type name -> class, for client-side reconstruction.
_ERROR_TYPES: dict[str, type] = {
    cls.__name__: cls
    for cls, _ in ERROR_STATUS
}


class HttpRequest:
    """One parsed HTTP request (method, path, query string, body)."""

    __slots__ = ("method", "path", "query", "headers", "body", "keep_alive")

    def __init__(
        self,
        method: str,
        path: str,
        query: str,
        headers: dict[str, str],
        body: bytes,
        keep_alive: bool,
    ) -> None:
        self.method = method
        self.path = path
        self.query = query
        self.headers = headers
        self.body = body
        self.keep_alive = keep_alive

    def json(self) -> dict:
        """The body as a JSON object; :class:`ProtocolError` otherwise."""
        if not self.body:
            raise ProtocolError("request body is empty (expected JSON)")
        try:
            payload = json.loads(self.body)
        except (ValueError, RecursionError) as error:  # too deeply nested
            raise ProtocolError(f"request body is not valid JSON: {error}")
        if not isinstance(payload, dict):
            raise ProtocolError("request body must be a JSON object")
        return payload


async def _read_line(reader: asyncio.StreamReader, limit: int) -> bytes:
    try:
        line = await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return b""  # clean EOF between requests
        raise ProtocolError("connection closed mid-request")
    except asyncio.LimitOverrunError:
        raise ProtocolError("request line or header too long")
    if len(line) > limit:
        raise ProtocolError("request line or header too long")
    return line


async def read_request(reader: asyncio.StreamReader) -> HttpRequest | None:
    """Parse one request; ``None`` on clean EOF (client closed keep-alive).

    Raises :class:`ProtocolError` on malformed framing, and when the
    request is not complete :data:`REQUEST_TIMEOUT_S` after its first
    byte — the server answers it with a typed 400 and closes the
    connection.
    """
    first = await reader.read(1)
    if not first:
        return None
    rest = _read_rest(reader, first)
    try:
        if _timeout is None:  # Python 3.10
            return await asyncio.wait_for(rest, REQUEST_TIMEOUT_S)
        # Cheaper than wait_for before 3.12: no task per request.
        async with _timeout(REQUEST_TIMEOUT_S):
            return await rest
    except asyncio.TimeoutError:
        raise ProtocolError(
            f"request incomplete {REQUEST_TIMEOUT_S:g} s after its first byte"
        ) from None


async def _read_rest(reader: asyncio.StreamReader, first: bytes) -> HttpRequest:
    request_line = first
    if first != b"\n":
        request_line += await _read_line(reader, MAX_REQUEST_LINE - 1)
    parts = request_line.decode("latin-1").strip().split()
    if len(parts) != 3:
        raise ProtocolError(f"malformed request line: {request_line!r}")
    method, target, version = parts
    if not version.startswith("HTTP/1."):
        raise ProtocolError(f"unsupported HTTP version {version!r}")
    headers: dict[str, str] = {}
    header_bytes = 0
    while True:
        line = await _read_line(reader, MAX_REQUEST_LINE)
        if not line:
            raise ProtocolError("connection closed inside headers")
        if line in (b"\r\n", b"\n"):
            break
        header_bytes += len(line)
        if header_bytes > MAX_HEADER_BYTES:
            raise ProtocolError("headers too large")
        name, separator, value = line.decode("latin-1").partition(":")
        if not separator:
            raise ProtocolError(f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        raise ProtocolError(f"bad Content-Length {length_text!r}")
    if length < 0 or length > MAX_BODY_BYTES:
        raise ProtocolError(f"unacceptable Content-Length {length}")
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise ProtocolError("connection closed inside body")
    path, _, query = target.partition("?")
    connection = headers.get("connection", "").lower()
    keep_alive = connection != "close" and version != "HTTP/1.0"
    return HttpRequest(method.upper(), path, query, headers, body, keep_alive)


def render_response(
    status: int,
    body: bytes,
    *,
    content_type: str = JSON_CONTENT_TYPE,
    keep_alive: bool = True,
    extra_headers: dict[str, str] | None = None,
) -> bytes:
    """The byte-complete HTTP/1.1 response (rendered before any write)."""
    reason = _REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + body


def json_body(payload: dict) -> bytes:
    """The payload as compact UTF-8 JSON bytes."""
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


# -- request schema ----------------------------------------------------------


class QueryRequest:
    """A validated ``POST /query`` body."""

    __slots__ = (
        "dataset",
        "query",
        "mapping_semantics",
        "aggregate_semantics",
        "tenant",
        "samples",
        "seed",
        "timeout_ms",
    )

    def __init__(
        self,
        *,
        dataset: str,
        query: str,
        mapping_semantics: str,
        aggregate_semantics: str,
        tenant: str = "default",
        samples: int | None = None,
        seed: int | None = None,
        timeout_ms: float | None = None,
    ) -> None:
        self.dataset = dataset
        self.query = query
        self.mapping_semantics = mapping_semantics
        self.aggregate_semantics = aggregate_semantics
        self.tenant = tenant
        self.samples = samples
        self.seed = seed
        self.timeout_ms = timeout_ms


_MAPPING_SEMANTICS = ("by-table", "by-tuple")
_AGGREGATE_SEMANTICS = ("range", "distribution", "expected-value")


def _field(payload: dict, name: str, kind: type, *, default=None, required=False):
    value = payload.get(name, default)
    if value is None:
        if required:
            raise ProtocolError(f"missing required field {name!r}")
        return None
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError:
            raise ProtocolError(f"field {name!r} is out of range")
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise ProtocolError(
            f"field {name!r} must be {kind.__name__}, got "
            f"{type(value).__name__}"
        )
    return value


def parse_query_request(payload: dict) -> QueryRequest:
    """Validate a ``POST /query`` JSON object into a :class:`QueryRequest`."""
    known = {
        "dataset", "query", "mapping_semantics", "aggregate_semantics",
        "tenant", "samples", "seed", "timeout_ms",
    }
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ProtocolError(f"unknown field(s): {', '.join(unknown)}")
    msem = _field(payload, "mapping_semantics", str, default="by-table")
    asem = _field(payload, "aggregate_semantics", str, default="distribution")
    if msem not in _MAPPING_SEMANTICS:
        raise ProtocolError(
            f"mapping_semantics must be one of {_MAPPING_SEMANTICS}, "
            f"got {msem!r}"
        )
    if asem not in _AGGREGATE_SEMANTICS:
        raise ProtocolError(
            f"aggregate_semantics must be one of {_AGGREGATE_SEMANTICS}, "
            f"got {asem!r}"
        )
    samples = _field(payload, "samples", int)
    if samples is not None and samples < 1:
        raise ProtocolError(f"samples must be >= 1, got {samples}")
    timeout_ms = _field(payload, "timeout_ms", float)
    if timeout_ms is not None and not 0 <= timeout_ms < math.inf:
        # json.loads accepts NaN and Infinity; a NaN deadline never expires.
        raise ProtocolError(
            f"timeout_ms must be finite and >= 0, got {timeout_ms}"
        )
    return QueryRequest(
        dataset=_field(payload, "dataset", str, required=True),
        query=_field(payload, "query", str, required=True),
        mapping_semantics=msem,
        aggregate_semantics=asem,
        tenant=_field(payload, "tenant", str, default="default"),
        samples=samples,
        seed=_field(payload, "seed", int),
        timeout_ms=timeout_ms,
    )


# -- answer (de)serialization ------------------------------------------------


def _encode_key(key: object):
    """A group key as JSON, preserving exact type for the round trip."""
    if isinstance(key, datetime.date):
        return {"date": key.isoformat()}
    if key is None or isinstance(key, (str, int, float, bool)):
        return key
    raise EvaluationError(
        f"cannot serialize group key of type {type(key).__name__}"
    )


def _decode_key(data: object) -> object:
    if isinstance(data, dict):
        return datetime.date.fromisoformat(data["date"])
    return data


def answer_to_json(answer: AggregateAnswer) -> dict:
    """The JSON form of any aggregate answer (exact float round trip)."""
    if isinstance(answer, RangeAnswer):
        return {"kind": "range", "low": answer.low, "high": answer.high}
    if isinstance(answer, DistributionAnswer):
        outcomes = None
        if answer.distribution is not None:
            outcomes = [[v, p] for v, p in answer.distribution.items()]
        return {
            "kind": "distribution",
            "outcomes": outcomes,
            "undefined_probability": answer.undefined_probability,
        }
    if isinstance(answer, ExpectedValueAnswer):
        return {"kind": "expected-value", "value": answer.value}
    if isinstance(answer, GroupedAnswer):
        return {
            "kind": "grouped",
            "groups": [
                [_encode_key(key), answer_to_json(value)]
                for key, value in answer.groups.items()
            ],
        }
    raise EvaluationError(
        f"cannot serialize answer of type {type(answer).__name__}"
    )


def answer_from_json(data: dict) -> AggregateAnswer:
    """Rebuild the :class:`AggregateAnswer` a service response carries.

    The inverse of :func:`answer_to_json`: the result compares ``==`` to
    the original answer object (bit-identical floats).
    """
    try:
        kind = data["kind"]
    except (TypeError, KeyError):
        raise ProtocolError(f"not an answer payload: {data!r}")
    if kind == "range":
        return RangeAnswer(data["low"], data["high"])
    if kind == "distribution":
        outcomes = data["outcomes"]
        distribution = None
        if outcomes is not None:
            distribution = DiscreteDistribution(
                {value: probability for value, probability in outcomes}
            )
        return DistributionAnswer(
            distribution, data.get("undefined_probability", 0.0)
        )
    if kind == "expected-value":
        return ExpectedValueAnswer(data["value"])
    if kind == "grouped":
        return GroupedAnswer({
            _decode_key(key): answer_from_json(value)
            for key, value in data["groups"]
        })
    raise ProtocolError(f"unknown answer kind {kind!r}")


# -- typed errors ------------------------------------------------------------

#: Structured attributes copied into the error body per class.
_ERROR_FIELDS = (
    "progress", "resource", "limit", "used", "timeout_ms", "elapsed_ms",
    "in_flight", "waiting", "queue_depth", "retry_after_ms", "estimate",
    "dataset", "known", "position",
)


def http_status_for(error: BaseException) -> int:
    """The HTTP status for ``error`` (most specific ERROR_STATUS entry)."""
    for cls, status in ERROR_STATUS:
        if isinstance(error, cls):
            return status
    return 500


def error_to_json(error: BaseException) -> tuple[int, dict]:
    """``(http_status, body)`` for any exception.

    Library errors keep their class name and structured fields;
    unexpected exceptions (the chaos matrix's injected ``OSError``\\ s,
    say) are reported as an ``InternalError`` naming the original class —
    typed JSON either way, never a traceback or a hung connection.
    """
    if isinstance(error, ReproError):
        body = {
            "type": type(error).__name__,
            "code": exit_code_for(error),
            "message": str(error),
        }
        for field in _ERROR_FIELDS:
            value = getattr(error, field, None)
            if value is not None and value != ():
                body[field] = list(value) if isinstance(value, tuple) else value
        return http_status_for(error), {"error": body}
    return 500, {
        "error": {
            "type": "InternalError",
            "code": 2,
            "message": f"{type(error).__name__}: {error}",
        }
    }


def error_from_json(payload: dict) -> ReproError:
    """The typed exception a ``{"error": {...}}`` body describes.

    Unknown types come back as a plain :class:`ServeError` so the caller
    still gets the library's base class.
    """
    body = payload.get("error") or {}
    type_name = body.get("type", "ServeError")
    message = body.get("message", "service error")
    cls = _ERROR_TYPES.get(type_name)
    if cls is None or cls in (GuardrailError,):
        error: ReproError = ServeError(f"{type_name}: {message}")
    else:
        try:
            error = cls(message)
        except TypeError:  # classes with required keyword fields
            error = ServeError(f"{type_name}: {message}")
    for field in _ERROR_FIELDS:
        if field in body and getattr(error, field, None) is None:
            try:
                setattr(error, field, body[field])
            except AttributeError:  # __slots__ without the field
                continue
    return error
