#!/usr/bin/env python
"""CI smoke check: the query service survives flood and SIGTERM, end to end.

Launches the real CLI entry point (``repro-bench serve``) as a child
process and drives it over real sockets through three phases:

1. **1x load** — offered load within capacity: every request is admitted
   and answered; nothing is shed.
2. **2x flood** — offered load at twice the execute+queue capacity: the
   excess is shed with *typed* 429 JSON rejections, nothing is dropped
   on the floor, and the admitted requests' p95 latency stays within the
   backpressure bound (2x of the 1x p95, plus a CI-jitter floor).
3. **SIGTERM drain** — with requests mid-flight, the process receives
   SIGTERM: every in-flight request still gets a complete response (an
   answer or a typed 503), the drain report says ``drained_clean`` with
   zero abandoned requests, and the process exits 0.

Run from the repository root::

    PYTHONPATH=src python scripts/serve_smoke_check.py
"""

from __future__ import annotations

import json
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.exceptions import (  # noqa: E402
    ServiceDrainingError,
    ServiceOverloadedError,
)
from repro.serve import LoadGenerator, ServeClient  # noqa: E402

MAX_CONCURRENCY = 4
QUEUE_DEPTH = 4
CAPACITY = MAX_CONCURRENCY + QUEUE_DEPTH

REQUEST = {
    "dataset": "smoke",
    "query": "SELECT SUM(value) FROM T WHERE value < 800",
    "mapping_semantics": "by-tuple",
    "aggregate_semantics": "distribution",
    "samples": 60,
    "seed": 3,
}

failures: list[str] = []


def check(condition: bool, message: str) -> None:
    tag = "ok" if condition else "FAIL"
    print(f"  {tag}: {message}")
    if not condition:
        failures.append(message)


def flood(port: int, multiple: int) -> dict:
    report = LoadGenerator(
        "127.0.0.1", port, REQUEST,
        concurrency=CAPACITY * multiple, requests_per_worker=5,
    ).run().report()
    print(f"  {multiple}x: {json.dumps(report['outcomes'])} "
          f"p95={report['p95_ms']:.1f}ms "
          f"throughput={report['throughput_rps']:.1f}rps")
    return report


def main() -> int:
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--port", "0",
            "--synthetic", "smoke:1000:6:5",
            "--max-concurrency", str(MAX_CONCURRENCY),
            "--queue-depth", str(QUEUE_DEPTH),
            "--drain-timeout-ms", "30000",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=REPO_ROOT,
    )
    try:
        banner = process.stdout.readline()
        match = re.search(r"http://127\.0\.0\.1:(\d+)", banner)
        if not match:
            print(f"error: no port in banner {banner!r}", file=sys.stderr)
            return 1
        port = int(match.group(1))
        print(f"serving on port {port}")

        print("phase 1: offered load within capacity")
        at_1x = flood(port, 1)
        check(at_1x["transport_errors"] == 0, "1x: no transport errors")
        check(at_1x["shed"] == 0, "1x: nothing shed")
        check(at_1x["admitted"] == at_1x["total"], "1x: all admitted")

        print("phase 2: flood at 2x saturation")
        at_2x = flood(port, 2)
        check(at_2x["transport_errors"] == 0, "2x: no transport errors")
        check(at_2x["shed"] > 0, "2x: excess shed with typed rejections")
        check(
            at_2x["admitted"] + at_2x["shed"] == at_2x["total"],
            "2x: every request accounted admitted-or-shed",
        )
        bound_ms = max(2.0 * at_1x["p95_ms"], at_1x["p95_ms"] + 50.0)
        check(
            at_2x["p95_ms"] <= bound_ms,
            f"2x: admitted p95 {at_2x['p95_ms']:.1f}ms within "
            f"backpressure bound {bound_ms:.1f}ms",
        )

        print("phase 3: SIGTERM with requests in flight")
        responses: list[object] = []
        lock = threading.Lock()

        def one_inflight():
            with ServeClient(port=port) as client:
                client.healthz()  # connect before the listener closes
                response = client.query(
                    **{**REQUEST, "samples": 300}
                )
                with lock:
                    responses.append(response)

        threads = [
            threading.Thread(target=one_inflight) for _ in range(CAPACITY)
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.15)  # several queries are mid-execution now
        process.send_signal(signal.SIGTERM)
        for thread in threads:
            thread.join(timeout=60)
        out, err = process.communicate(timeout=60)

        check(process.returncode == 0, "process exited 0 after SIGTERM")
        check(
            len(responses) == CAPACITY,
            f"all {CAPACITY} in-flight requests got responses "
            f"(got {len(responses)})",
        )
        typed = all(
            r.ok
            or isinstance(
                r.error, (ServiceDrainingError, ServiceOverloadedError)
            )
            for r in responses
        )
        check(typed, "every response is an answer or a typed shed")
        check(
            any(r.ok for r in responses),
            "the drain completed real in-flight work",
        )
        report_match = re.search(r"drained: (\{.*\})", out)
        check(report_match is not None, f"drain report printed ({out!r})")
        if report_match:
            report = json.loads(report_match.group(1))
            check(report["drained_clean"] is True, "drain finished in time")
            check(
                report["abandoned_requests"] == 0,
                "zero in-flight requests abandoned",
            )
            check("flushed" in report, "query-log record counts reported")
        if err.strip():
            print(f"  stderr: {err.strip()[:500]}")
    finally:
        if process.poll() is None:
            process.kill()

    if failures:
        print(f"\nserve_smoke_check: {len(failures)} FAILURE(S)")
        for message in failures:
            print(f"  - {message}")
        return 1
    print("\nserve_smoke_check: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
