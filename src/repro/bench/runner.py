"""Timed parameter sweeps with per-algorithm budgets.

:func:`run_sweep` times each registered algorithm at each point of a
parameter grid.  An algorithm whose last run exceeded the timeout is
*skipped* at all larger sizes — mirroring how the paper handled its
exponential algorithms ("a completion time of more than 10 days for 4
auctions") without making the harness take ten days.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from typing import NamedTuple

from repro.bench.algorithms import BenchContext, get_algorithm
from repro.obs.metrics import percentile
from repro.obs.timers import Stopwatch, time_call

#: A sweep cell whose first timed run is shorter than this is timed
#: ``SHORT_CELL_RUNS`` times in all and records the median: one scheduler
#: stall on a cell of about a millisecond would otherwise decide a
#: figure's growth-ratio check.
SHORT_CELL_SECONDS = 0.010
SHORT_CELL_RUNS = 5


class TimingStats(NamedTuple):
    """Statistics over the timed repetitions of one benchmark cell.

    The *median* is the headline number — robust to scheduler noise in
    both directions, unlike the best-of minimum (optimistic bias: it
    reports the one run that dodged every interrupt) or the mean
    (pessimistic bias: one descheduled run drags it).
    """

    min: float
    median: float
    p95: float

    def to_dict(self) -> dict:
        return {"min": self.min, "median": self.median, "p95": self.p95}


class SweepResult:
    """Timings of one sweep: ``seconds[algorithm][i]`` aligns with ``xs``.

    A cell holds the *median* seconds over the cell's timed runs, or
    ``None`` when the run was skipped because the algorithm blew its
    budget at a smaller size; ``stats[algorithm][i]`` keeps the full
    ``{min, median, p95}`` dict.
    """

    def __init__(
        self,
        x_label: str,
        xs: Sequence[object],
        seconds: dict[str, list[float | None]],
        stats: dict[str, list[dict | None]] | None = None,
    ) -> None:
        self.x_label = x_label
        self.xs = list(xs)
        self.seconds = seconds
        self.stats = stats

    def series(self, algorithm: str) -> list[tuple[object, float | None]]:
        """The (x, median seconds) series of one algorithm."""
        return list(zip(self.xs, self.seconds[algorithm]))

    def last_defined(self, algorithm: str) -> float | None:
        """The largest-size timing that actually ran, if any."""
        for value in reversed(self.seconds[algorithm]):
            if value is not None:
                return value
        return None

    def to_dict(self) -> dict:
        """A JSON-ready form of the sweep (for plotting outside Python)."""
        data = {
            "x_label": self.x_label,
            "xs": list(self.xs),
            "seconds": {name: list(series) for name, series in self.seconds.items()},
        }
        if self.stats is not None:
            data["stats"] = {
                name: list(series) for name, series in self.stats.items()
            }
        return data

    def save_json(self, path) -> None:
        """Write :meth:`to_dict` to ``path`` as indented JSON."""
        import json
        from pathlib import Path

        Path(path).write_text(json.dumps(self.to_dict(), indent=2))

    @classmethod
    def from_dict(cls, data: dict) -> "SweepResult":
        """Rebuild a sweep result saved by :meth:`save_json`."""
        return cls(
            data["x_label"],
            data["xs"],
            dict(data["seconds"]),
            stats=dict(data["stats"]) if "stats" in data else None,
        )


def time_once(fn: Callable[[], object]) -> float:
    """Wall-clock seconds of a single call."""
    _, seconds = time_call(fn)
    return seconds


def time_stats(
    fn: Callable[[], object], repeats: int, *, warmup: int = 1
) -> TimingStats:
    """Warmup then time ``repeats`` calls; ``(min, median, p95)`` seconds.

    Replaces the old best-of estimator: ``warmup`` untimed calls absorb
    cold caches and lazy imports, then each timed call runs under one
    :class:`~repro.obs.timers.Stopwatch` and the distribution is
    summarized instead of cherry-picking the fastest run.
    """
    for _ in range(max(0, warmup)):
        fn()
    durations: list[float] = []
    for _ in range(max(1, repeats)):
        watch = Stopwatch()
        with watch:
            fn()
        durations.append(watch.elapsed)
    return _summarize(durations)


def _summarize(durations: list[float]) -> TimingStats:
    return TimingStats(
        min(durations),
        percentile(durations, 50.0),
        percentile(durations, 95.0),
    )


def _time_cell(fn: Callable[[], object]) -> TimingStats:
    """One timed run, or :data:`SHORT_CELL_RUNS` for a short cell."""
    durations = [time_once(fn)]
    if durations[0] < SHORT_CELL_SECONDS:
        durations += [time_once(fn) for _ in range(SHORT_CELL_RUNS - 1)]
    return _summarize(durations)


def run_sweep(
    x_label: str,
    xs: Sequence[object],
    make_context: Callable[[object], BenchContext],
    algorithms: Iterable[str],
    *,
    timeout: float = 30.0,
    verbose: bool = True,
) -> SweepResult:
    """Time every algorithm at every grid point.

    Parameters
    ----------
    x_label / xs:
        The swept parameter (e.g. ``#tuples``) and its values, ascending.
    make_context:
        Builds the :class:`BenchContext` for one grid point.  Called once
        per point; the context is closed afterwards.
    algorithms:
        Registry names (see :mod:`repro.bench.algorithms`).
    timeout:
        Once an algorithm's run exceeds this many seconds, it is skipped at
        every larger grid point (recorded as ``None``).

    Each cell is timed once, with no warmup: the figure sweeps include
    exponential algorithms whose single run is already the budget.  A
    cell shorter than :data:`SHORT_CELL_SECONDS` is timed
    :data:`SHORT_CELL_RUNS` times and records the median.
    """
    names = list(algorithms)
    seconds: dict[str, list[float | None]] = {name: [] for name in names}
    stats: dict[str, list[dict | None]] = {name: [] for name in names}
    exhausted: set[str] = set()
    for x in xs:
        context = make_context(x)
        try:
            for name in names:
                if name in exhausted:
                    seconds[name].append(None)
                    stats[name].append(None)
                    continue
                runner = get_algorithm(name)
                try:
                    timed = _time_cell(lambda: runner(context))
                except Exception as error:  # budget guards raise EvaluationError
                    if verbose:
                        print(f"  {x_label}={x} {name}: skipped ({error})")
                    exhausted.add(name)
                    seconds[name].append(None)
                    stats[name].append(None)
                    continue
                seconds[name].append(timed.median)
                stats[name].append(timed.to_dict())
                if verbose:
                    print(f"  {x_label}={x} {name}: {timed.median:.4f}s")
                if timed.median > timeout:
                    exhausted.add(name)
        finally:
            context.close()
    return SweepResult(x_label, xs, seconds, stats=stats)
