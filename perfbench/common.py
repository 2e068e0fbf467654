"""Shared pieces of the benchmark: statistics, spans, the Table III gate.

Everything here is benchmark-side.  Spans are recorded around calls into
the program's public functions; nothing is added inside the program.
"""

from __future__ import annotations

import bisect
import gc
import json
import os
import platform
import random
import resource
import sys
import time
from dataclasses import dataclass, field

clock = time.perf_counter

#: The by-tuple PTIME cells: (aggregate, aggregate semantics, label).
PTIME_CELLS = [
    ("COUNT(*)", "range", "count.range"),
    ("COUNT(*)", "expected-value", "count.expected"),
    ("SUM(value)", "range", "sum.range"),
    ("SUM(value)", "expected-value", "sum.expected"),
    ("AVG(value)", "range", "avg.range"),
    ("MIN(value)", "range", "min.range"),
    ("MAX(value)", "range", "max.range"),
]

#: Every per-layer metric a traced run prints, with its unit.  A layer a
#: workload does not exercise reads 0.
PER_LAYER = {
    "storage.csv_load_s": "s",
    "storage.columnar_build_s": "s",
    "sql.parse_us": "us",
    "compile.miss_us": "us",
    "compile.hit_ratio": "ratio",
    "planner.miss_us": "us",
    "planner.hit_ratio": "ratio",
    "execute.hit_us": "us",
    **{f"execute.{label}_ms": "ms" for _, _, label in PTIME_CELLS},
    "vectorized.hit_ratio": "ratio",
    "rows_per_query": "rows",
    "prepare.materialize_ms": "ms",
    "bytable.ms_per_request": "ms",
    "sampling.ms_per_request": "ms",
    "count_dp.ms": "ms",
    "serve.roundtrip_ms": "ms",
    "serve.exec_ms": "ms",
    "serve.overhead_ms": "ms",
    "serve.queue_wait_ms": "ms",
    "load.late_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.unattributed_pct": "%",
    "trace.ops": "count",
}


def quantile(values: list[float], q: float) -> float:
    """The ``q``-quantile (0..1) of ``values``, linearly interpolated."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: list[float]) -> float:
    return quantile(values, 0.5)


#: Median time of :func:`reference_kernel_s` on an unloaded core of the
#: 2-core x86 container the bounds were set on.  Timings are scaled by
#: ``REFERENCE_NOMINAL_S / measured kernel time`` (see :class:`Speed`).
REFERENCE_NOMINAL_S = 0.0002

_REFERENCE_DATA = [random.Random(0).random() for _ in range(3000)]


def reference_kernel_s() -> float:
    """Seconds taken by a fixed interpreter-bound job owned by the benchmark.

    Dict building, sorting and summing over 3 000 floats, with the cyclic
    collector paused so the program's heap size cannot leak into it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = clock()
        index = {}
        for i, value in enumerate(_REFERENCE_DATA):
            index[value] = i
        ordered = sorted(_REFERENCE_DATA)
        sum(index.values()) + ordered[0]
        return clock() - start
    finally:
        if enabled:
            gc.enable()


class Speed:
    """How fast the machine runs right now, from reference-kernel samples.

    Other tenants of a shared machine slow every code path by up to ~1.75x,
    in phases lasting from seconds to minutes.  The benchmark times
    :func:`reference_kernel_s` between its own ops and divides each op's
    latency by the factor ``median nearby kernel time / nominal``, so a
    phase cancels out while a change in the program does not (the kernel
    never calls it).  ``factor`` is about 1 on an unloaded machine.
    """

    #: Samples within this many seconds of an op set that op's factor.
    NEIGHBOURHOOD_S = 1.0

    def __init__(self) -> None:
        self.times: list[float] = []
        self.seconds: list[float] = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            seconds = reference_kernel_s()
            self.times.append(clock())
            self.seconds.append(seconds)

    def factor(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """The slowdown factor over ``[start, end]`` (all samples if none)."""
        low = bisect.bisect_left(self.times, start)
        high = bisect.bisect_right(self.times, end)
        window = self.seconds[low:high] or self.seconds
        return median(window) / REFERENCE_NOMINAL_S

    def factor_at(self, moment: float) -> float:
        return self.factor(
            moment - self.NEIGHBOURHOOD_S, moment + self.NEIGHBOURHOOD_S
        )


def latency_metrics(
    ops: list[tuple[float, float]], start: float, speed: Speed | None
) -> dict:
    """End-to-end latency and throughput of one measured phase.

    ``ops`` holds ``(end time, latency)`` per completed op; ``start`` is
    when the phase began.  With ``speed`` (a closed loop of CPU-bound
    ops), each latency is scaled to reference speed and throughput is ops
    over their scaled total time.  Without it (the open-loop service),
    figures are raw: the schedule sets the rate, and service latency on
    loopback did not follow the reference kernel's slowdowns.
    """
    if speed is None:
        scaled = [latency for _, latency in ops]
        throughput = len(ops) / (max(done for done, _ in ops) - start)
    else:
        scaled = [latency / speed.factor_at(done) for done, latency in ops]
        throughput = len(scaled) / sum(scaled)
    return {
        "throughput_qps": (throughput, "1/s"),
        "latency_p50_ms": (quantile(scaled, 0.50) * 1000.0, "ms"),
    }


def overhead_pct(plain: list[float], traced: list[float]) -> float:
    """Mean traced op latency over mean untraced, as a percentage above."""
    if not plain or not traced:
        return 0.0
    return (sum(traced) / len(traced)) / (sum(plain) / len(plain)) * 100.0 - 100.0


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- tracing ----------------------------------------------------------------


@dataclass
class Span:
    name: str
    start: float
    end: float
    op: int
    parent: int | None = None  # index of the parent span in Trace.spans
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Trace:
    """In-memory spans of one traced phase, written out when the run ends.

    Every operation has one root span (``parent is None``); layer spans
    hang under it.  A span's self time is its duration minus what its
    direct children cover, so the self times of one op's spans sum to the
    op's wall time; the benchmark checks that the part left to the root
    (time in no layer call) stays within :data:`UNATTRIBUTED_TOLERANCE`.
    """

    #: Largest share of an op's wall time allowed outside every layer span.
    UNATTRIBUTED_TOLERANCE = 0.05

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: Standalone layer calls timed outside any op: name -> seconds.
        self.timings: dict[str, list[float]] = {}
        self._ops = 0

    def new_op(self) -> int:
        self._ops += 1
        return self._ops

    def add(
        self,
        name: str,
        start: float,
        end: float,
        op: int,
        parent: int | None = None,
        **attrs: object,
    ) -> int:
        self.spans.append(Span(name, start, end, op, parent, attrs))
        return len(self.spans) - 1

    def self_times(self) -> list[float]:
        """Self time of every span, by index."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.duration
        return [
            span.duration - covered[index]
            for index, span in enumerate(self.spans)
        ]

    def by_name(self) -> dict[str, list[tuple[Span, float]]]:
        """``name -> [(span, self_time)]`` over every span."""
        out: dict[str, list[tuple[Span, float]]] = {}
        for span, own in zip(self.spans, self.self_times()):
            out.setdefault(span.name, []).append((span, own))
        return out

    def add_back(self) -> tuple[float, int]:
        """``(unattributed share, ops over tolerance)`` across every op.

        For each op, the layer spans' self times plus the root's own self
        time equal the root's wall time exactly; the root's self time is
        the part no layer call covers.
        """
        own = self.self_times()
        layer_self: dict[int, float] = {}
        for span, seconds in zip(self.spans, own):
            if span.parent is not None:
                layer_self[span.op] = layer_self.get(span.op, 0.0) + seconds
        total_wall = 0.0
        total_unattributed = 0.0
        bad = 0
        for span in self.spans:
            if span.parent is not None:
                continue
            unattributed = span.duration - layer_self.get(span.op, 0.0)
            total_wall += span.duration
            total_unattributed += unattributed
            if unattributed > max(
                self.UNATTRIBUTED_TOLERANCE * span.duration, 50e-6
            ):
                bad += 1
        share = total_unattributed / total_wall if total_wall else 0.0
        return share, bad

    def layer_metrics(self) -> dict:
        """Per-layer metrics from the recorded spans (name -> (value, unit)).

        Only layers the phase exercised appear; the caller fills the rest.
        """
        named = {
            name: [span for span, _ in pairs]
            for name, pairs in self.by_name().items()
        }
        own = self.self_times()
        out: dict = {}

        def put(name: str, seconds: list[float], scale: float, unit: str):
            if seconds:
                out[name] = (median(seconds) * scale, unit)

        def ratio(name: str, spans: list[Span]) -> None:
            if spans:
                hits = sum(1 for span in spans if not span.attrs.get("miss"))
                out[name] = (hits / len(spans), "ratio")

        compiles = named.get("engine.compile", []) + named.get("engine.prepare", [])
        put("compile.miss_us",
            [s.duration for s in compiles if s.attrs.get("miss")], 1e6, "us")
        ratio("compile.hit_ratio", compiles)
        plan_for = named.get("prepared.plan_for", [])
        plans = named.get("engine.plan", []) + [
            s for s in plan_for if not s.attrs.get("materialize")
        ]
        put("planner.miss_us",
            [s.duration for s in plans if s.attrs.get("miss")], 1e6, "us")
        ratio("planner.hit_ratio", plans)
        put("prepare.materialize_ms",
            [s.duration for s in plan_for if s.attrs.get("materialize")],
            1e3, "ms")
        answers = named.get("plan.answer", [])
        put("execute.hit_us",
            [s.duration for s in answers if s.attrs.get("plan_hit")], 1e6, "us")
        for _, _, label in PTIME_CELLS:
            put(f"execute.{label}_ms",
                [s.duration for s in answers if s.attrs.get("cell") == label],
                1e3, "ms")
        put("count_dp.ms",
            [s.duration for s in answers
             if s.attrs.get("cell") == "count.distribution"], 1e3, "ms")
        rows = [s.attrs["rows"] for s in answers if "rows" in s.attrs]
        if rows:
            out["rows_per_query"] = (sum(rows) / len(rows), "rows")
        for name, keep in (
            ("bytable.ms_per_request", lambda s: s.attrs.get("mapping") == "by-table"),
            ("sampling.ms_per_request", lambda s: s.attrs.get("lane") == "sampling"),
        ):
            per_op: dict[int, float] = {}
            for span in answers:
                if "mapping" in span.attrs:
                    per_op.setdefault(span.op, 0.0)
                    if keep(span):
                        per_op[span.op] += span.duration
            put(name, list(per_op.values()), 1e3, "ms")
        put("serve.roundtrip_ms",
            [s.duration for s in named.get("serve.roundtrip", [])], 1e3, "ms")
        put("serve.exec_ms",
            [s.duration for s in named.get("serve.exec", [])], 1e3, "ms")
        put("serve.overhead_ms",
            [own[i] for i, s in enumerate(self.spans)
             if s.name == "serve.roundtrip"], 1e3, "ms")
        put("sql.parse_us", self.timings.get("sql.parse", []), 1e6, "us")
        share, _ = self.add_back()
        out["trace.unattributed_pct"] = (share * 100.0, "%")
        out["trace.ops"] = (
            sum(1 for span in self.spans if span.parent is None), "count"
        )
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "op": span.op,
                    "parent": span.parent,
                    **span.attrs,
                }) + "\n")


# -- correctness gate --------------------------------------------------------


def table3_gate(engine_defaults: dict) -> list[str]:
    """Paper Q1 against Table III; returns the mismatches (empty = pass)."""
    from repro import AggregationEngine
    from repro.data import realestate

    engine = AggregationEngine(
        [realestate.paper_instance()],
        realestate.paper_pmapping(),
        **engine_defaults,
    )
    problems = []
    got_range = engine.answer(realestate.Q1, "by-tuple", "range")
    if (got_range.low, got_range.high) != (1, 3):
        problems.append(f"Q1 by-tuple range {got_range!r} != [1, 3]")
    got_dist = engine.answer(realestate.Q1, "by-tuple", "distribution")
    expected = {1: 0.16, 2: 0.48, 3: 0.36}
    dist = dict(got_dist.distribution.items())
    if set(dist) != set(expected) or any(
        abs(dist[k] - p) > 1e-9 for k, p in expected.items()
    ):
        problems.append(f"Q1 by-tuple distribution {got_dist!r} != {expected}")
    got_ev = engine.answer(realestate.Q1, "by-tuple", "expected-value")
    if abs(got_ev.value - 2.2) > 1e-9:
        problems.append(f"Q1 by-tuple expected value {got_ev!r} != 2.2")
    return problems


# -- environment -------------------------------------------------------------


def git_sha(root: str) -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(
                os.path.join(root, ".git", ref[5:]), encoding="utf-8"
            ) as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment_block(root: str) -> str:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return json.dumps({
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": git_sha(root),
    })


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    """Print the result line: ``metrics`` maps name -> (value, unit)."""
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    sys.stdout.flush()
