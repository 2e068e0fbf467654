"""The ``served`` workload: the real ``repro-bench serve`` child process.

The child is started with ``python -m repro.cli serve --port 0 --dataset
bench=DATA.csv:MAPPING.json``; its port is parsed from the start-up banner.
An open-loop generator (2 threads, one keep-alive ``ServeClient`` each)
sends requests on a fixed schedule at :data:`RATE` per second, each timed
from its due time.  Requests are cheap by-tuple PTIME cells drawn from a
Zipf-skewed pool of 4x the engine's 128-entry plan cache, so the head of
the pool hits the compile/plan caches and the tail misses.
"""

from __future__ import annotations

import json
import os
import random
import re
import selectors
import signal
import subprocess
import sys
import threading
import time

from common import (
    PTIME_CELLS,
    Speed,
    Trace,
    clock,
    latency_metrics,
    median,
    overhead_pct,
    quantile,
)
from library import (
    columnar_build_s,
    counter_ratios,
    fresh_thresholds,
    load_engine,
    query_text,
    traced_answer,
)

SERVED_ROWS = 2000
DATASET = "bench"
#: Offered rate: about a sixth of the closed-loop capacity of one
#: connection on this request mix (~620 req/s on a 2-core x86 VM).  Other
#: tenants of the shared machine slow it by up to ~1.9x for minutes at a
#: time; at 300 req/s such a phase saturated the service (p50 up to 52 ms
#: over ten seeds), at 100 req/s p50 stayed within 0.09 of its median.
RATE = 100.0
THREADS = 2
POOL = 4 * 128
ZIPF_S = 1.1
WARMUP_REQUESTS = 400
SETUPS = 5
#: Reference-kernel samples before each child start (see common.Speed).
SPEED_SAMPLES = 30
VERIFY_SAMPLE = 50
#: A run whose generator itself fell behind its schedule by more than
#: this (p99, ms) measured the generator, not the service: invalid.
GENERATOR_LATE_LIMIT_MS = 50.0
START_TIMEOUT_S = 30.0
STOP_TIMEOUT_S = 15.0

_PORT = re.compile(r"http://[^\s:]+:(\d+)")


class Child:
    """One ``repro-bench serve`` process; SIGTERM, then kill, on every path."""

    def __init__(self, root: str, workdir: str, data_path: str, mapping_path: str):
        self.workdir = workdir
        self.stderr = open(os.path.join(workdir, "serve.stderr"), "ab")
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.started = clock()
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                "--dataset", f"{DATASET}={data_path}:{mapping_path}",
            ],
            stdout=subprocess.PIPE,
            stderr=self.stderr,
            env=env,
            cwd=workdir,
        )
        self.port = 0
        self.drain_report: dict | None = None

    def wait_ready(self) -> float:
        """Seconds from process start until ``/readyz`` answers 200."""
        from repro.serve import ServeClient

        deadline = self.started + START_TIMEOUT_S
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            if not selector.select(timeout=max(0.0, deadline - clock())):
                raise RuntimeError("serve child printed no banner in time")
        banner = self.proc.stdout.readline().decode("utf-8", "replace")
        match = _PORT.search(banner)
        if match is None:
            raise RuntimeError(f"unexpected serve banner: {banner!r}")
        self.port = int(match.group(1))
        with ServeClient(port=self.port, timeout_s=5.0) as client:
            while clock() < deadline:
                if client.readyz().status_code == 200:
                    return clock() - self.started
                time.sleep(0.005)
        raise RuntimeError("serve child never became ready")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> dict | None:
        """SIGTERM, wait for the drain, kill if it hangs; the drain report."""
        if self.stderr.closed:
            return self.drain_report
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        self.stderr.close()
        for line in out.decode("utf-8", "replace").splitlines():
            if line.startswith("drained: "):
                self.drain_report = json.loads(line[len("drained: "):])
        return self.drain_report

    def drained_clean(self) -> bool:
        report = self.drain_report or {}
        return bool(report.get("drained_clean")) and report.get(
            "abandoned_requests"
        ) == 0


def request_pool(rng: random.Random) -> list[tuple[str, str, str]]:
    thresholds = fresh_thresholds(rng)
    return [
        (query_text(aggregate, next(thresholds)), semantics, label)
        for i in range(POOL)
        for aggregate, semantics, label in [PTIME_CELLS[i % len(PTIME_CELLS)]]
    ]


def zipf_stream(pool: list, count: int, rng: random.Random) -> list:
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(pool))]
    return rng.choices(pool, weights=weights, k=count)


class Result:
    __slots__ = ("due", "sent_lag", "done", "kind", "answer", "traced", "spans")

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.spans: list = []
        self.answer = None


def open_loop(port: int, requests: list, trace: bool) -> tuple[list, float]:
    """Send ``requests`` at :data:`RATE`; returns per-request results.

    With ``trace``, every other pair of requests (one per thread) records
    spans, so traced and untraced requests share the service's state.
    """
    from repro.serve import ServeClient

    results = [Result(trace and (i // 2) % 2 == 1) for i in range(len(requests))]
    start = clock() + 0.05

    def worker(offset: int) -> None:
        with ServeClient(port=port, timeout_s=10.0) as client:
            previous_done = start
            for i in range(offset, len(requests), THREADS):
                text, semantics, _ = requests[i]
                result = results[i]
                result.due = start + i / RATE
                wait = result.due - clock()
                if wait > 0:
                    time.sleep(wait)
                sent = clock()
                result.sent_lag = sent - max(result.due, previous_done)
                try:
                    response = client.query(DATASET, text, "by-tuple", semantics)
                    received = clock()
                    if response.ok:
                        result.answer = response.answer
                        result.kind = "ok"
                    elif response.status_code in (429, 503):
                        result.kind = "shed"
                    else:
                        result.kind = f"error:{response.error_type}"
                except Exception as error:  # transport failure of one request
                    received = clock()
                    result.kind = f"transport:{type(error).__name__}"
                result.done = clock()
                previous_done = result.done
                if result.traced and result.kind == "ok":
                    seconds = response.payload["seconds"]
                    result.spans = [
                        ("serve.roundtrip", sent, received),
                        ("serve.exec", received - seconds, received),
                        ("client.decode", received, result.done),
                    ]

    # Daemon threads: if the run is cut short they must not keep it alive.
    threads = [
        threading.Thread(target=worker, args=(k,), daemon=True)
        for k in range(THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results, start


def summarize(results: list, start: float, trace: Trace) -> dict:
    ok = [r for r in results if r.kind == "ok"]
    failures = [r.kind for r in results if r.kind != "ok"]
    for r in ok:
        if r.traced:
            op = trace.new_op()
            (_, rt0, rt1), (_, ex0, ex1), (_, de0, de1) = r.spans
            root = trace.add("op", rt0, de1, op)
            roundtrip = trace.add("serve.roundtrip", rt0, rt1, op, root)
            trace.add("serve.exec", ex0, ex1, op, roundtrip)
            trace.add("client.decode", de0, de1, op, root)
    return {
        "ops": [(r.done, r.done - r.due) for r in ok if not r.traced],
        "traced_latencies": [r.done - r.due for r in ok if r.traced],
        "start": start,
        "failures": failures,
        "late_ms": quantile([r.sent_lag * 1000.0 for r in results], 0.99),
    }


def queue_wait_p99_ms(port: int) -> float:
    from repro.serve import ServeClient

    with ServeClient(port=port) as client:
        text = client.metrics_text()
    pattern = re.compile(
        r'^repro_serve_queue_wait_seconds\{quantile="0\.99"\} (\S+)$', re.M
    )
    match = pattern.search(text)
    return float(match.group(1)) * 1000.0 if match else 0.0


def run_served(run) -> dict:
    data_path, mapping_path = run.inputs(SERVED_ROWS)
    rng = random.Random(run.seed)
    pool = request_pool(rng)
    warmup = zipf_stream(pool, WARMUP_REQUESTS, rng)
    requests = zipf_stream(pool, int(RATE * run.seconds), rng)

    problems: list[str] = []
    setups: list[float] = []
    speed = Speed()
    child = None
    try:
        for attempt in range(SETUPS):
            before = clock()
            speed.sample(SPEED_SAMPLES)
            factor = speed.factor(before)
            child = Child(run.root, run.workdir, data_path, mapping_path)
            setups.append(child.wait_ready() / factor)
            if attempt < SETUPS - 1:
                child.stop()
                if not child.drained_clean():
                    problems.append(f"set-up child drain: {child.drain_report}")
        from repro.serve import ServeClient

        with ServeClient(port=child.port) as client:
            for text, semantics, _ in warmup:
                client.query(DATASET, text, "by-tuple", semantics)
        results, start = open_loop(child.port, requests, run.trace)
        trace = Trace()
        phase = summarize(results, start, trace)
        if run.trace:
            queue_wait = queue_wait_p99_ms(child.port)
        peak_rss = child.peak_rss_mb()
    finally:
        if child is not None:
            child.stop()
    if not child.drained_clean():
        problems.append(f"drain report: {child.drain_report}")

    # Verify a seeded sample of served answers against the library.
    engine, table, csv_load = load_engine(data_path, mapping_path)
    layers: dict = {}
    if run.trace:
        before = engine.metrics_snapshot()
        replay(engine, trace, warmup, requests)
        layers = counter_ratios(before, engine.metrics_snapshot())
        layers.update({
            "storage.csv_load_s": (csv_load, "s"),
            "serve.queue_wait_ms": (queue_wait, "ms"),
            "load.late_ms": (phase["late_ms"], "ms"),
            "storage.columnar_build_s": (columnar_build_s(table), "s"),
        })
    mismatches = 0
    checked = random.Random(run.seed ^ 0xC0FFEE).sample(
        range(len(results)), min(VERIFY_SAMPLE, len(results))
    )
    for i in checked:
        if results[i].kind != "ok":
            continue
        text, semantics, _ = requests[i]
        expected = engine.answer(text, "by-tuple", semantics)
        if results[i].answer != expected:
            mismatches += 1
            problems.append(f"{text}: served {results[i].answer!r} != {expected!r}")
    if phase["late_ms"] > GENERATOR_LATE_LIMIT_MS:
        problems.append(
            f"invalid run: generator p99 lateness {phase['late_ms']:.1f} ms "
            f"> {GENERATOR_LATE_LIMIT_MS} ms (the load generator, not the "
            "service, was the bottleneck)"
        )
    failures = phase["failures"]
    problems.extend(sorted(set(failures))[:5])

    if not run.trace:
        metrics = {"setup_s": (median(setups), "s")}
        metrics.update(
            latency_metrics(phase["ops"], phase["start"], speed=None)
        )
        metrics["peak_rss_mb"] = (peak_rss, "MiB")
    else:
        metrics = layers
        metrics["trace.overhead_pct"] = (
            overhead_pct(
                [latency for _, latency in phase["ops"]], phase["traced_latencies"]
            ),
            "%",
        )
    return {
        "attempted": len(requests),
        "failed": len(failures) + mismatches,
        "problems": problems,
        "metrics": metrics,
        "trace": trace,
        "speed": speed,
    }


def replay(engine, trace: Trace, warmup: list, requests: list) -> None:
    """Replay the traced stream in-process for the compile/plan/execute split."""
    for text, semantics, _ in warmup:
        engine.answer(text, "by-tuple", semantics)
    for text, semantics, label in requests:
        traced_answer(engine, trace, text, "by-tuple", semantics, label)
