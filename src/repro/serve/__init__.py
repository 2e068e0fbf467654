"""The asyncio multi-tenant query service (HTTP/JSON, stdlib only).

This package turns the embedded :class:`~repro.core.engine.AggregationEngine`
into a *service contract*: persistent per-dataset engines behind a
:class:`~repro.serve.registry.DatasetRegistry` (the prepared-plan and
columnar caches amortize across requests), an
:class:`~repro.serve.admission.AdmissionController` that sheds load with
typed 429/503-style JSON rejections instead of queueing unboundedly,
per-tenant :class:`~repro.core.guard.Budget` policies riding the existing
guardrail/degradation machinery, and graceful drain on SIGTERM — stop
accepting, finish in-flight work under a drain deadline, close every
engine and report its query-log record count.

Layers (socket to kernel):

* :mod:`repro.serve.protocol` — HTTP/1.1 framing, the request/response
  JSON schema, answer (de)serialization, typed error mapping;
* :mod:`repro.serve.admission` — semaphore-bounded concurrency with a
  bounded accept queue and drain awareness;
* :mod:`repro.serve.registry` — named datasets to persistent engines,
  plus tenant policies;
* :mod:`repro.serve.service` — the asyncio server, request routing,
  per-request telemetry, and drain orchestration;
* :mod:`repro.serve.client` — a blocking client and a threaded load
  generator for tests, benches, and smoke checks.

See ``docs/serving.md`` for the endpoint contract and the operational
runbook.
"""

from __future__ import annotations

import importlib

#: Each public name and the submodule defining it.  They load on first
#: access (PEP 562), so importing one submodule — the registry, say —
#: does not pull in the client's HTTP/TLS stack or the service's asyncio.
_EXPORTS = {
    "AdmissionController": "admission",
    "DatasetRegistry": "registry",
    "LoadGenerator": "client",
    "QueryService": "service",
    "ServeClient": "client",
    "ServeConfig": "service",
    "ServeResponse": "client",
    "ServiceThread": "service",
    "TenantPolicy": "registry",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> object:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
