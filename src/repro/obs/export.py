"""Prometheus text exposition over the metrics registry.

:func:`render_prometheus` renders a :class:`~repro.obs.metrics.MetricsRegistry`
in the Prometheus text format (version 0.0.4) — the lingua franca any
scraping service tier understands — and :class:`MetricsServer` wraps it
in a stdlib :mod:`http.server` scrape endpoint for ``repro stats
--serve``.  Zero dependencies, like the rest of :mod:`repro.obs`.

Naming conventions (documented in ``docs/observability.md``):

* every metric is prefixed ``repro_`` and sanitized to the Prometheus
  grammar — characters outside ``[a-zA-Z0-9_:]`` (the registry uses
  dotted names) become ``_``, so ``plan.cache.hit`` exports as
  ``repro_plan_cache_hit_total``;
* counters gain the conventional ``_total`` suffix and ``# TYPE ...
  counter``;
* gauges export under their sanitized name with ``# TYPE ... gauge``;
* histograms export as Prometheus *summaries*: ``{quantile="0.5|0.95|
  0.99"}`` sample lines from the reservoir estimate, plus the exact
  ``_sum`` and ``_count`` series (quantile lines are omitted while the
  histogram is empty — NaN quantiles scrape poorly).
"""

from __future__ import annotations

import re
import threading

from repro.exceptions import MetricsExportError
from repro.obs import metrics as metrics_mod

#: Prefix applied to every exported metric name.
PREFIX = "repro_"

#: Content type of the text exposition format.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_INVALID_CHARS = re.compile(r"[^a-zA-Z0-9_:]")
_INVALID_FIRST = re.compile(r"^[^a-zA-Z_:]")


def sanitize(name: str, *, prefix: str = PREFIX) -> str:
    """The registry metric name as a valid Prometheus metric name."""
    cleaned = _INVALID_CHARS.sub("_", name)
    cleaned = _INVALID_FIRST.sub("_", cleaned)
    return prefix + cleaned


def _format_value(value: float) -> str:
    """A Prometheus-parseable sample value (repr keeps full precision)."""
    if value != value:  # NaN
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    return repr(value) if isinstance(value, float) else str(value)


def render_prometheus(
    registry: metrics_mod.MetricsRegistry | None = None,
    *,
    prefix: str = PREFIX,
) -> str:
    """The registry in the Prometheus text exposition format.

    Defaults to the effective default registry
    (:func:`repro.obs.metrics.get_registry`).  Families are emitted in
    sorted name order, each with its ``# HELP``/``# TYPE`` header; the
    output always ends with a newline (scrapers require it).
    """
    if registry is None:
        registry = metrics_mod.get_registry()
    lines: list[str] = []
    for name in sorted(registry._counters):
        counter = registry._counters[name]
        exported = sanitize(name, prefix=prefix) + "_total"
        lines.append(f"# HELP {exported} repro counter {name}")
        lines.append(f"# TYPE {exported} counter")
        lines.append(f"{exported} {_format_value(counter.value)}")
    for name in sorted(registry._gauges):
        gauge = registry._gauges[name]
        exported = sanitize(name, prefix=prefix)
        lines.append(f"# HELP {exported} repro gauge {name}")
        lines.append(f"# TYPE {exported} gauge")
        lines.append(f"{exported} {_format_value(gauge.value)}")
    for name in sorted(registry._histograms):
        histogram = registry._histograms[name]
        exported = sanitize(name, prefix=prefix)
        lines.append(f"# HELP {exported} repro histogram {name}")
        lines.append(f"# TYPE {exported} summary")
        if histogram.count:
            for q in (0.5, 0.95, 0.99):
                value = histogram.percentile(q * 100.0)
                lines.append(
                    f'{exported}{{quantile="{q}"}} {_format_value(value)}'
                )
        lines.append(f"{exported}_sum {_format_value(histogram.total)}")
        lines.append(f"{exported}_count {histogram.count}")
    return "\n".join(lines) + "\n"


class MetricsServer:
    """A background Prometheus scrape endpoint over one registry.

    Binds immediately (``port=0`` picks an ephemeral port, exposed as
    :attr:`port` — tests and the CLI print it); :meth:`start` serves from
    a daemon thread, :meth:`stop` shuts down and joins.  Usable as a
    context manager.

    Raises
    ------
    MetricsExportError
        When the requested address cannot be bound (port already in use,
        privileged port, unresolvable host) — the typed form of the
        underlying :class:`OSError`, so ``repro-bench stats --serve``
        reports one clean line instead of a traceback.
    """

    def __init__(
        self,
        registry: metrics_mod.MetricsRegistry | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        # Imported here: the library path never serves scrapes, and
        # http.server would load its HTTP stack into every process.
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        class ScrapeHandler(BaseHTTPRequestHandler):
            """GET /metrics (or /) returns the current exposition; 404
            otherwise."""

            server_version = "repro-stats/1"

            def do_GET(self) -> None:  # noqa: N802 (http.server API)
                if self.path.split("?", 1)[0] not in ("/", "/metrics"):
                    self.send_error(404, "scrape /metrics")
                    return
                body = render_prometheus(self.server.registry).encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", CONTENT_TYPE)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args: object) -> None:
                # Scrapes every few seconds would otherwise spam stderr.
                pass

        try:
            self._server = ThreadingHTTPServer((host, port), ScrapeHandler)
        except OSError as error:
            raise MetricsExportError(
                f"cannot bind metrics endpoint on {host}:{port}: {error}",
                host=host,
                port=port,
            ) from error
        self._server.registry = (
            registry if registry is not None else metrics_mod.get_registry()
        )
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        """The bound TCP port (the ephemeral one when created with 0)."""
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        """The scrape URL."""
        host = self._server.server_address[0]
        return f"http://{host}:{self.port}/metrics"

    def start(self) -> "MetricsServer":
        """Serve scrapes from a daemon thread (idempotent)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._server.serve_forever,
                name="repro-metrics-server",
                daemon=True,
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop serving and release the socket."""
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def serve_forever(self) -> None:
        """Serve scrapes on the calling thread until interrupted."""
        try:
            self._server.serve_forever()
        finally:
            self._server.server_close()

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
