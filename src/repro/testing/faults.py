"""Named failpoints for chaos testing the execution engine.

The engine's seams call :func:`maybe_fire` with a registered failpoint
name; when a test has armed that name, the harness *injects* a fault —
raise an exception, delay, or hand back a corruption hook — on the Nth
hit.  Unarmed, ``maybe_fire`` is one dict lookup on an empty dict, so
the instrumentation stays in production code at zero practical cost.

Registered failpoints (see :data:`FAILPOINTS`):

==================  =====================================================
name                seam
==================  =====================================================
execute.dispatch    :func:`repro.core.execute.execute_plan`, before lane
                    dispatch
sqlite.cursor       :class:`repro.storage.sqlite_backend.SQLiteBackend`,
                    before every cursor execute (``raise:OperationalError``
                    exercises the retry-with-backoff path)
plan.cache.evict    :class:`repro.core.execute.ExecutionContext`, when an
                    LRU cache evicts an entry
serve.accept        :meth:`repro.serve.service.QueryService`, after a
                    request is parsed off a connection, before routing
serve.handler       the service's query handler, after admission and
                    before plan/execute (``corrupt`` poisons the answer
                    payload, which serialization detects)
serve.drain         :meth:`repro.serve.service.QueryService.drain`, at
                    drain start (a raise is contained: drain completes
                    and reports the fault, it never hangs shutdown)
==================  =====================================================

Arming
------
Programmatic (preferred in tests)::

    with faults.failpoint("execute.dispatch", "raise:OSError"):
        ...

or via the environment (for a subprocess, such as the ``serve`` child)::

    REPRO_FAILPOINTS="execute.dispatch=raise:OSError@2;sqlite.cursor=delay:0.01"

The action grammar is ``kind[:argument][@nth]``:

* ``raise:ExcName`` — raise (``OSError``, ``RuntimeError``, ``MemoryError``,
  ``OperationalError`` (sqlite3), ``EvaluationError``, ``StorageError``,
  ``TimeoutError``, ``ValueError``);
* ``delay:seconds`` — sleep, then continue;
* ``corrupt`` — return :data:`CORRUPT`; the seam applies a site-specific,
  *detectable* corruption (the chaos invariant is "typed error or correct
  answer", so corruption must surface as a typed error, never silently).

``@nth`` fires on the Nth hit only (counting from 1); without it every
hit fires.  Hit counters persist until :func:`reset`.
"""

from __future__ import annotations

import os
import sqlite3
import threading
import time
from contextlib import contextmanager

from repro.exceptions import EvaluationError, StorageError
from repro.obs import metrics

#: Every failpoint name the engine's seams call; arming any other name
#: is an error (it would silently never fire).
FAILPOINTS = (
    "execute.dispatch",
    "sqlite.cursor",
    "plan.cache.evict",
    "serve.accept",
    "serve.handler",
    "serve.drain",
)

#: Sentinel returned by :func:`maybe_fire` for a ``corrupt`` action.
CORRUPT = object()

ENV_VAR = "REPRO_FAILPOINTS"

_EXCEPTIONS = {
    "OSError": OSError,
    "RuntimeError": RuntimeError,
    "ValueError": ValueError,
    "MemoryError": MemoryError,
    "TimeoutError": TimeoutError,
    "OperationalError": sqlite3.OperationalError,
    "EvaluationError": EvaluationError,
    "StorageError": StorageError,
}

#: Message used for injected sqlite3.OperationalError — the transient
#: error the backend's retry loop recognizes.
LOCKED_MESSAGE = "database is locked"


class FaultSpec:
    """One armed failpoint: what to do, and on which hit."""

    __slots__ = ("name", "kind", "argument", "nth", "hits", "fired")

    def __init__(
        self, name: str, kind: str, argument: str | None, nth: int | None
    ) -> None:
        if name not in FAILPOINTS:
            raise ValueError(
                f"unknown failpoint {name!r} (registered: {', '.join(FAILPOINTS)})"
            )
        if kind not in ("raise", "delay", "corrupt"):
            raise ValueError(f"unknown fault kind {kind!r}")
        if kind == "raise" and argument not in _EXCEPTIONS:
            raise ValueError(
                f"unknown exception {argument!r} for failpoint {name!r} "
                f"(choices: {', '.join(sorted(_EXCEPTIONS))})"
            )
        if kind == "delay":
            argument = str(float(argument if argument is not None else 0.01))
        self.name = name
        self.kind = kind
        self.argument = argument
        self.nth = nth
        self.hits = 0
        self.fired = 0

    def execute(self):
        """Apply the action; returns :data:`CORRUPT` for corruptions."""
        self.fired += 1
        metrics.inc(f"faults.fired.{self.name}")
        if self.kind == "raise":
            exc_type = _EXCEPTIONS[self.argument]
            if exc_type is sqlite3.OperationalError:
                raise exc_type(LOCKED_MESSAGE)
            raise exc_type(f"injected fault at {self.name}")
        if self.kind == "delay":
            time.sleep(float(self.argument))
            return None
        return CORRUPT


def parse_action(name: str, action: str) -> FaultSpec:
    """Parse a ``kind[:argument][@nth]`` action string into a spec."""
    nth: int | None = None
    if "@" in action:
        action, _, nth_text = action.rpartition("@")
        nth = int(nth_text)
        if nth < 1:
            raise ValueError(f"@nth must be >= 1, got {nth}")
    kind, _, argument = action.partition(":")
    return FaultSpec(name, kind, argument or None, nth)


_lock = threading.Lock()
_active: dict[str, FaultSpec] = {}
_env_loaded = False


def _load_env() -> None:
    """Arm failpoints from :data:`ENV_VAR` (once per process)."""
    global _env_loaded
    _env_loaded = True
    raw = os.environ.get(ENV_VAR, "").strip()
    if not raw:
        return
    for entry in raw.split(";"):
        entry = entry.strip()
        if not entry:
            continue
        name, separator, action = entry.partition("=")
        if not separator:
            raise ValueError(
                f"bad {ENV_VAR} entry {entry!r}; expected name=action"
            )
        _active[name.strip()] = parse_action(name.strip(), action.strip())


def maybe_fire(name: str):
    """Fire the named failpoint if armed; the engine's seams call this.

    Returns ``None`` (continue normally) or :data:`CORRUPT` (the seam
    must apply its detectable corruption).  Raises whatever an armed
    ``raise`` action specifies.
    """
    if not _env_loaded:
        with _lock:
            if not _env_loaded:
                _load_env()
    spec = _active.get(name)
    if spec is None:
        return None
    with _lock:
        spec.hits += 1
        due = spec.nth is None or spec.hits == spec.nth
    if not due:
        return None
    return spec.execute()


def arm(name: str, action: str) -> FaultSpec:
    """Arm a failpoint programmatically; returns the live spec."""
    spec = parse_action(name, action)
    with _lock:
        _active[name] = spec
    return spec


def disarm(name: str) -> None:
    """Disarm one failpoint (no-op when not armed)."""
    with _lock:
        _active.pop(name, None)


def reset() -> None:
    """Disarm everything and forget the env var was ever read."""
    global _env_loaded
    with _lock:
        _active.clear()
        _env_loaded = True  # a reset also suppresses re-reading the env


def reload_env() -> None:
    """Disarm everything, then re-arm from the environment (tests)."""
    with _lock:
        _active.clear()
        _load_env()


@contextmanager
def failpoint(name: str, action: str):
    """Arm ``name`` for the ``with`` body; always disarms on exit.

    Yields the :class:`FaultSpec` so tests can assert ``spec.fired``.
    """
    spec = arm(name, action)
    try:
        yield spec
    finally:
        disarm(name)


def active() -> dict[str, str]:
    """The armed failpoints, as ``{name: kind}`` (for diagnostics)."""
    with _lock:
        return {name: spec.kind for name, spec in _active.items()}
