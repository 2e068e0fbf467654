"""Nestable tracing spans with pluggable sinks, safe under concurrency.

The answering pipeline is instrumented with ``with span("plan.select_lane"):``
blocks.  When no sink is installed — the default — :func:`span` returns a
shared no-op context manager, so instrumentation costs one context-variable
read per block and nothing else; the prepared-reuse benchmark guards this
(``benchmarks/bench_prepared_reuse.py``) and the ``obs_overhead`` suite
measures the sink-installed cost.

Install a sink to start recording::

    sink = InMemorySink()
    with use_sink(sink):
        engine.answer(...)
    sink.roots[0].to_dict()   # the span tree of the answer() call

Spans nest: a span entered while another is open becomes its child, and
only *root* spans are handed to the sink (as complete trees).  The span
catalog is documented in ``docs/observability.md``.

**Trace context is carried in** :mod:`contextvars`: both the active sink
and the open-span stack are context-local, so two threads (or two asyncio
tasks) answering queries at the same time each build their own span tree
and record to their own sink — concurrent executions never interleave
into one tree.  :func:`use_sink` installs a sink for the current context
only; :func:`install_sink` sets a process-wide *default* sink that any
context without its own sink falls back to.  A thread starts with a fresh
context, so a sink installed with :func:`use_sink` does **not** leak into
threads spawned inside the ``with`` block — callers that fan out capture
:func:`current_sink` and re-enter :func:`use_sink` on the worker side.

Sinks are deliberately minimal: anything with a ``handle(span)`` method
works.  :class:`InMemorySink` keeps the last N root spans in a ring
buffer; :class:`JSONLSink` appends one JSON object per root span to a
file.  Both are safe to share between threads.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from collections.abc import Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path


class Span:
    """One timed, attributed, nestable region of work.

    Created by :func:`span` (do not instantiate directly); duration runs
    from ``__enter__`` to ``__exit__`` on :func:`time.perf_counter`, and
    ``start_ts`` additionally records the wall-clock epoch time at entry
    so spans from different processes or runs can be correlated.
    """

    __slots__ = ("name", "attributes", "start", "end", "start_ts",
                 "children", "_token")

    def __init__(self, name: str, attributes: dict) -> None:
        self.name = name
        self.attributes = attributes
        self.start: float | None = None
        self.end: float | None = None
        #: Wall-clock epoch seconds at ``__enter__`` (``time.time()``),
        #: for cross-process/cross-run correlation; ``seconds`` stays on
        #: the monotonic clock.
        self.start_ts: float | None = None
        self.children: list[Span] = []
        self._token = None

    @property
    def seconds(self) -> float:
        """Monotonic duration; 0.0 while the span is still open."""
        if self.start is None or self.end is None:
            return 0.0
        return self.end - self.start

    def set(self, key: str, value: object) -> None:
        """Attach (or overwrite) one attribute."""
        self.attributes[key] = value

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict:
        """A JSON-ready form of the span tree rooted here."""
        return {
            "name": self.name,
            "seconds": self.seconds,
            "start_ts": self.start_ts,
            "attributes": dict(self.attributes),
            "children": [child.to_dict() for child in self.children],
        }

    def __enter__(self) -> "Span":
        stack = _STACK.get()
        self._token = _STACK.set(stack + (self,))
        self.start_ts = time.time()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.end = time.perf_counter()
        if self._token is not None:
            _STACK.reset(self._token)
            self._token = None
        stack = _STACK.get()
        if stack:
            stack[-1].children.append(self)
        else:
            sink = current_sink()
            if sink is not None:
                sink.handle(self)

    def __repr__(self) -> str:
        return f"Span({self.name!r}, {self.seconds * 1e3:.3f} ms)"


class _NoOpSpan:
    """The shared do-nothing span returned while no sink is installed."""

    __slots__ = ()

    def __enter__(self) -> "_NoOpSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass

    def set(self, key: str, value: object) -> None:
        pass


_NOOP = _NoOpSpan()

#: Sentinel distinguishing "no context-local sink set" (fall back to the
#: process default) from an explicit ``use_sink(None)`` (trace nothing).
_UNSET = object()

#: The context-local sink (set by :func:`use_sink`); falls back to the
#: process-wide default installed by :func:`install_sink`.
_SINK: ContextVar[object] = ContextVar("repro_trace_sink", default=_UNSET)

#: The open-span stack of the current context, as an immutable tuple so a
#: copied context never shares (or mutates) another context's stack.
_STACK: ContextVar[tuple[Span, ...]] = ContextVar(
    "repro_trace_stack", default=()
)

#: The process-wide default sink (:func:`install_sink`), used by contexts
#: that have not set their own.
_PROCESS_SINK = None


def span(name: str, **attributes: object):
    """A context manager timing one named region.

    With no sink installed this is the shared no-op object; otherwise a
    fresh :class:`Span` that nests under any currently open span of the
    same context.
    """
    if current_sink() is None:
        return _NOOP
    return Span(name, attributes)


def add_attribute(key: str, value: object) -> None:
    """Set an attribute on the innermost open span (no-op without one)."""
    stack = _STACK.get()
    if stack:
        stack[-1].set(key, value)


def current_sink():
    """The effective sink of this context (context-local, else the
    process-wide default), or ``None``."""
    sink = _SINK.get()
    if sink is _UNSET:
        return _PROCESS_SINK
    return sink


def install_sink(sink) -> None:
    """Install ``sink`` as the process-wide *default* span sink.

    Contexts that set their own sink with :func:`use_sink` are
    unaffected; everything else records here.
    """
    global _PROCESS_SINK
    _PROCESS_SINK = sink


def uninstall_sink() -> None:
    """Remove the process-wide default sink."""
    global _PROCESS_SINK
    _PROCESS_SINK = None


@contextmanager
def use_sink(sink):
    """Install ``sink`` for the current context, restoring the previous
    state on exit.

    ``use_sink(None)`` explicitly disables tracing for the block even
    when a process-wide default sink is installed.
    """
    token = _SINK.set(sink)
    try:
        yield sink
    finally:
        _SINK.reset(token)


class InMemorySink:
    """A ring buffer of the last ``capacity`` completed root span trees.

    Safe to share between threads: the deque append is atomic, and
    :attr:`roots` snapshots the buffer.
    """

    def __init__(self, capacity: int = 256) -> None:
        self._roots: deque[Span] = deque(maxlen=capacity)

    @property
    def roots(self) -> list[Span]:
        """The buffered root spans, oldest first."""
        return list(self._roots)

    def handle(self, root: Span) -> None:
        self._roots.append(root)

    def clear(self) -> None:
        """Drop every buffered span."""
        self._roots.clear()

    def spans(self) -> Iterator[Span]:
        """Every buffered span (roots and descendants), depth-first."""
        for root in self._roots:
            yield from root.walk()

    def find(self, name: str) -> list[Span]:
        """All buffered spans with this name."""
        return [s for s in self.spans() if s.name == name]

    def __len__(self) -> int:
        return len(self._roots)


class JSONLSink:
    """Appends one JSON object per completed root span tree to a file.

    A lock serializes writes, so one sink can collect roots from several
    threads without interleaving lines.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._handle = self.path.open("a")
        self._lock = threading.Lock()

    def handle(self, root: Span) -> None:
        line = json.dumps(root.to_dict()) + "\n"
        with self._lock:
            self._handle.write(line)

    def close(self) -> None:
        """Flush and close the file."""
        self._handle.close()

    def __enter__(self) -> "JSONLSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
