"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError`, so a
caller can catch one type to handle any library failure.  The subtypes mirror
the major subsystems: schema/mapping validation, SQL parsing, query
reformulation, storage, and the aggregate-answering engine.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SchemaError(ReproError):
    """An invalid schema, relation, or attribute definition."""


class MappingError(ReproError):
    """An invalid schema mapping.

    Raised when a mapping violates Definition 1 or 2 of the paper: a
    correspondence references a missing attribute, a mapping is not
    one-to-one, or a p-mapping's probabilities do not form a distribution.
    """


class SQLSyntaxError(ReproError):
    """The SQL text could not be tokenized or parsed.

    Carries the approximate position of the failure to help users locate the
    offending token.
    """

    def __init__(self, message: str, position: int | None = None) -> None:
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class ReformulationError(ReproError):
    """A query could not be rewritten under a given mapping.

    Typically the query references a target attribute for which the mapping
    has no correspondence.
    """


class StorageError(ReproError):
    """A storage-layer failure (unknown table/column, type mismatch, ...)."""


class EvaluationError(ReproError):
    """An aggregate query could not be evaluated.

    For example: AVG over zero qualifying tuples in a semantics that demands
    a defined value, or an unsupported aggregate/semantics combination when
    exponential fallbacks are disabled.
    """


class EngineClosedError(EvaluationError, StorageError):
    """An operation was attempted on an engine whose backend was closed.

    Both an evaluation failure (the engine can no longer answer) and a
    storage failure (the backing database is gone), so handlers catching
    either — or plain :class:`ReproError` — see it.
    """


class IntractableError(EvaluationError):
    """The requested semantics cell has no PTIME algorithm.

    Raised by the planner when the caller asked for an exact answer in one of
    the cells the paper leaves open (e.g. by-tuple/distribution SUM) while
    forbidding the exponential fallback.  The caller may retry with
    ``allow_exponential=True`` or switch to the sampling estimator.
    """


class UnsupportedQueryError(ReproError):
    """The query shape is outside the supported aggregate-SQL subset."""


class ObservabilityError(ReproError):
    """A failure in the observability tooling (export, serving, query log).

    Never raised from the answer pipeline itself — telemetry must not
    fail queries — only from the explicitly-requested tooling around it
    (e.g. reading a query-log trail).
    """


class ServeError(ReproError):
    """A failure in the query service tier (:mod:`repro.serve`).

    Never raised from the library's embedded answer pipeline — only from
    the HTTP/JSON service wrapped around it: startup, admission control,
    request protocol, and drain.
    """


class ServiceStartupError(ServeError):
    """The query service could not bind or start its listening socket.

    Typically the requested ``host:port`` is already in use or not
    bindable;
    ``host``/``port`` carry the attempted address.  ``repro-bench serve``
    maps it to its own exit code (15).
    """

    def __init__(
        self,
        message: str,
        *,
        host: str | None = None,
        port: int | None = None,
    ) -> None:
        super().__init__(message)
        self.host = host
        self.port = port


class ProtocolError(ServeError):
    """A malformed service request (bad HTTP framing, JSON, or fields).

    The service answers it with a 400-style typed JSON error rather than
    executing anything.
    """


class UnknownDatasetError(ServeError):
    """The request named a dataset the registry does not hold.

    ``dataset`` carries the requested name, ``known`` the registered
    ones, so the 404 response can say what *would* work.
    """

    def __init__(
        self,
        message: str,
        *,
        dataset: str | None = None,
        known: tuple[str, ...] = (),
    ) -> None:
        super().__init__(message)
        self.dataset = dataset
        self.known = tuple(known)


class ServiceOverloadedError(ServeError):
    """Admission control shed the request: the accept queue is full.

    The 429-style response: the service is up but saturated, and queueing
    further would only grow latency unboundedly.  ``in_flight`` /
    ``waiting`` / ``queue_depth`` snapshot the controller at shed time;
    ``retry_after_ms`` is a backoff hint for well-behaved clients.
    """

    def __init__(
        self,
        message: str,
        *,
        in_flight: int | None = None,
        waiting: int | None = None,
        queue_depth: int | None = None,
        retry_after_ms: float | None = None,
    ) -> None:
        super().__init__(message)
        self.in_flight = in_flight
        self.waiting = waiting
        self.queue_depth = queue_depth
        self.retry_after_ms = retry_after_ms


class ServiceDrainingError(ServeError):
    """The service is draining (shutdown requested) and admits no new work.

    The 503-style response: in-flight requests finish under the drain
    deadline, new ones should go to another replica.
    """


class AdmissionRejectedError(ServeError):
    """Admission control rejected a predictably-over-budget query.

    The plan-time cost estimate (:mod:`repro.core.cost`) already exceeds
    the tenant's budget on a dimension degradation cannot save, so the
    service refuses up front instead of burning the budget to learn the
    same thing.  ``resource`` names the dimension, ``estimate`` the
    plan-time prediction, ``limit`` the budget cap.
    """

    def __init__(
        self,
        message: str,
        *,
        resource: str | None = None,
        estimate: float | None = None,
        limit: float | None = None,
    ) -> None:
        super().__init__(message)
        self.resource = resource
        self.estimate = estimate
        self.limit = limit


def _rebuild_guardrail_error(cls, args, state):
    error = cls(*args)
    error.__dict__.update(state)
    return error


class GuardrailError(EvaluationError):
    """An execution guardrail stopped a query before it finished.

    Carries ``progress``: a structured snapshot of how far execution got
    before the guard fired (rows scanned, worlds enumerated, largest
    distribution support seen, elapsed milliseconds).  Subclasses say
    *which* guardrail fired; catching this type handles both.
    """

    def __init__(self, message: str, *, progress: dict | None = None) -> None:
        super().__init__(message)
        self.progress: dict = dict(progress or {})

    def __reduce__(self):
        # Keep the structured payload across a pickle round trip.
        return (_rebuild_guardrail_error, (type(self), self.args, self.__dict__))


class QueryTimeoutError(GuardrailError):
    """The query's wall-clock deadline expired before it finished.

    ``timeout_ms`` is the configured deadline; ``elapsed_ms`` the wall
    clock actually spent before the cooperative check noticed.
    """

    def __init__(
        self,
        message: str,
        *,
        timeout_ms: float | None = None,
        elapsed_ms: float | None = None,
        progress: dict | None = None,
    ) -> None:
        super().__init__(message, progress=progress)
        self.timeout_ms = timeout_ms
        self.elapsed_ms = elapsed_ms


class BudgetExceededError(GuardrailError):
    """A resource budget (rows, worlds, or support size) was exhausted.

    ``resource`` names the budget dimension (``"rows"``, ``"worlds"``,
    ``"support"``), ``limit`` its configured cap, and ``used`` the value
    that tripped it.
    """

    def __init__(
        self,
        message: str,
        *,
        resource: str | None = None,
        limit: int | None = None,
        used: int | None = None,
        progress: dict | None = None,
    ) -> None:
        super().__init__(message, progress=progress)
        self.resource = resource
        self.limit = limit
        self.used = used


#: Process exit codes per error class, most specific class first so
#: ``isinstance`` walks resolve subclasses before their bases
#: (EngineClosedError lands on StorageError's code, QueryTimeoutError
#: beats GuardrailError).  Shared by the CLI (its exit codes) and the
#: query service (the ``code`` field of typed JSON error responses), so
#: both surfaces name failure classes identically.  Code 1 is reserved
#: for shape-check failures, 2 for usage errors and errors outside this
#: table.
ERROR_EXIT_CODES: tuple[tuple[type, int], ...] = (
    (QueryTimeoutError, 10),
    (BudgetExceededError, 11),
    (GuardrailError, 12),
    (IntractableError, 9),
    (SQLSyntaxError, 3),
    (UnsupportedQueryError, 4),
    (SchemaError, 5),
    (MappingError, 6),
    (ReformulationError, 7),
    (StorageError, 8),
    (ServiceStartupError, 15),
    (ServeError, 16),
    (EvaluationError, 13),
)


def exit_code_for(error: BaseException) -> int:
    """The exit code for ``error`` (most specific ERROR_EXIT_CODES entry)."""
    for cls, code in ERROR_EXIT_CODES:
        if isinstance(error, cls):
            return code
    return 2
