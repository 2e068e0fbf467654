"""Registered benchmark suites with statistics and environment fingerprints.

Two suites back committed baselines: ``quick`` (the CI regression gate,
``BENCH_quick.json``) and ``obs-overhead`` (telemetry on vs off,
``BENCH_obs_overhead.json``).  This module gives them one common
discipline, pyperf/ASV-style:

* a **registry** of named suites, each a list of :class:`BenchCase`
  closures (the built-in suites live in :mod:`repro.bench.suites`);
* a **statistical protocol** — setup untimed, ``warmup`` untimed calls,
  ``repeats`` timed calls through :class:`~repro.obs.timers.Stopwatch`,
  reported as min/median/p95/mean rather than a biased best-of;
* an **environment fingerprint** (python, platform, CPU count, git SHA)
  stamped into every result, so a baseline records *where* its numbers
  came from;
* a **schema-versioned document** (``BENCH_<suite>.json``) that
  :mod:`repro.bench.regression` can diff against a committed baseline.

Run a suite from the CLI (``repro-bench bench --suite quick``) or
programmatically via :func:`run_suite`.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from collections.abc import Callable, Iterable
from pathlib import Path

from repro.exceptions import EvaluationError
from repro.obs.metrics import percentile
from repro.obs.timers import Stopwatch

#: Version of the ``BENCH_<suite>.json`` document layout.  Bump on any
#: incompatible change; :func:`load_result` refuses newer documents.
SCHEMA_VERSION = 1

DEFAULT_WARMUP = 1
DEFAULT_REPEATS = 5


class BenchCase:
    """One registered measurement: an untimed setup and a timed body.

    ``factory`` runs once, untimed, and returns either the callable to
    time or a ``(callable, close)`` pair whose ``close`` releases
    resources after the timed repeats.
    """

    def __init__(
        self,
        name: str,
        factory: Callable[[], object],
        *,
        repeats: int | None = None,
        warmup: int | None = None,
    ) -> None:
        self.name = name
        self.factory = factory
        self.repeats = repeats
        self.warmup = warmup

    def run(self, *, warmup: int, repeats: int) -> dict:
        """Execute the case; per-case overrides beat the suite defaults."""
        warmup = self.warmup if self.warmup is not None else warmup
        repeats = self.repeats if self.repeats is not None else repeats
        built = self.factory()
        if isinstance(built, tuple):
            fn, close = built
        else:
            fn, close = built, None
        try:
            for _ in range(max(0, warmup)):
                fn()
            durations: list[float] = []
            for _ in range(max(1, repeats)):
                watch = Stopwatch()
                with watch:
                    fn()
                durations.append(watch.elapsed)
        finally:
            if close is not None:
                close()
        return {
            "name": self.name,
            "warmup": warmup,
            "repeats": len(durations),
            "seconds": {
                "min": min(durations),
                "median": percentile(durations, 50.0),
                "p95": percentile(durations, 95.0),
                "mean": sum(durations) / len(durations),
            },
        }


class Suite:
    """A named, ordered collection of benchmark cases."""

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self.cases: list[BenchCase] = []

    def case(
        self,
        name: str,
        *,
        repeats: int | None = None,
        warmup: int | None = None,
    ) -> Callable[[Callable[[], object]], Callable[[], object]]:
        """Decorator registering ``factory`` as a case of this suite."""

        def register(factory: Callable[[], object]) -> Callable[[], object]:
            self.add(BenchCase(name, factory, repeats=repeats, warmup=warmup))
            return factory

        return register

    def add(self, case: BenchCase) -> None:
        if any(existing.name == case.name for existing in self.cases):
            raise EvaluationError(
                f"suite {self.name!r} already has a case {case.name!r}"
            )
        self.cases.append(case)


_SUITES: dict[str, Suite] = {}
_BUILTINS_LOADED = False


def register_suite(suite: Suite) -> Suite:
    """Add ``suite`` to the registry (name collisions are errors)."""
    if suite.name in _SUITES:
        raise EvaluationError(f"suite {suite.name!r} already registered")
    _SUITES[suite.name] = suite
    return suite


def _load_builtin_suites() -> None:
    global _BUILTINS_LOADED
    if not _BUILTINS_LOADED:
        _BUILTINS_LOADED = True
        from repro.bench import suites  # noqa: F401 — registers on import


def get_suite(name: str) -> Suite:
    """Look up a registered suite (loading the built-ins on first use)."""
    _load_builtin_suites()
    try:
        return _SUITES[name]
    except KeyError:
        raise EvaluationError(
            f"unknown suite {name!r}; known: {', '.join(sorted(_SUITES))}"
        ) from None


def suite_names() -> tuple[str, ...]:
    """Every registered suite name, sorted."""
    _load_builtin_suites()
    return tuple(sorted(_SUITES))


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def fingerprint() -> dict:
    """Where a benchmark result came from: interpreter, machine, commit."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 0,
        "git_sha": _git_sha(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
    }


def run_suite(
    suite: Suite | str,
    *,
    warmup: int = DEFAULT_WARMUP,
    repeats: int = DEFAULT_REPEATS,
    only: Iterable[str] | None = None,
    verbose: bool = False,
) -> dict:
    """Run a suite and return the schema-versioned result document.

    ``only`` restricts the run to the named cases (unknown names raise).
    """
    if isinstance(suite, str):
        suite = get_suite(suite)
    cases = suite.cases
    if only is not None:
        wanted = list(only)
        by_name = {case.name: case for case in cases}
        missing = [name for name in wanted if name not in by_name]
        if missing:
            raise EvaluationError(
                f"suite {suite.name!r} has no case(s) {', '.join(missing)}"
            )
        cases = [by_name[name] for name in wanted]
    results = []
    for case in cases:
        measured = case.run(warmup=warmup, repeats=repeats)
        results.append(measured)
        if verbose:
            stats = measured["seconds"]
            print(
                f"  {case.name}: median {stats['median'] * 1e3:.3f} ms  "
                f"(min {stats['min'] * 1e3:.3f}, p95 {stats['p95'] * 1e3:.3f}, "
                f"n={measured['repeats']})"
            )
    return {
        "schema_version": SCHEMA_VERSION,
        "suite": suite.name,
        "description": suite.description,
        "environment": fingerprint(),
        "cases": results,
    }


def format_result(result: dict) -> str:
    """A fixed-width table of one suite result."""
    cases = result["cases"]
    width = max([len(case["name"]) for case in cases] + [4])
    env = result.get("environment", {})
    lines = [
        f"suite {result['suite']}: {len(cases)} case(s)  "
        f"[python {env.get('python', '?')}, {env.get('cpu_count', '?')} cpus, "
        f"git {env.get('git_sha', '?')}]"
    ]
    header = (
        f"{'case':<{width}}{'n':>4}{'min ms':>12}{'median ms':>12}{'p95 ms':>12}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for case in cases:
        stats = case["seconds"]
        lines.append(
            f"{case['name']:<{width}}{case['repeats']:>4}"
            f"{stats['min'] * 1e3:>12.3f}{stats['median'] * 1e3:>12.3f}"
            f"{stats['p95'] * 1e3:>12.3f}"
        )
    return "\n".join(lines)


def baseline_path(suite_name: str, root: str | Path = ".") -> Path:
    """Where the committed baseline of one suite lives."""
    return Path(root) / f"BENCH_{suite_name.replace('-', '_')}.json"


def save_result(result: dict, path: str | Path) -> None:
    """Write a result document as indented JSON."""
    Path(path).write_text(json.dumps(result, indent=2) + "\n")


def load_result(path: str | Path) -> dict:
    """Read a result document, validating its schema version."""
    data = json.loads(Path(path).read_text())
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise EvaluationError(
            f"{path}: benchmark schema version {version!r} is not the "
            f"supported {SCHEMA_VERSION} (regenerate with "
            "'repro-bench bench --suite <name> --update-baseline')"
        )
    return data


def main(argv: list[str] | None = None) -> int:
    """The ``repro-bench bench`` driver."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro-bench bench",
        description="Run a registered benchmark suite (quick, obs-overhead) "
        "with warmup, repeats, and an environment fingerprint.",
    )
    parser.add_argument("--suite", default=None, help="registered suite name")
    parser.add_argument("--list", action="store_true",
                        help="list registered suites and their cases")
    parser.add_argument("--warmup", type=int, default=DEFAULT_WARMUP)
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS)
    parser.add_argument("--case", action="append", default=None,
                        metavar="NAME", help="run only this case (repeatable)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the result document to PATH")
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="write the result to the committed baseline location "
        "(BENCH_<suite>.json in the current directory)",
    )
    args = parser.parse_args(argv)
    if args.list:
        for name in suite_names():
            suite = get_suite(name)
            print(f"{name}: {suite.description}")
            for case in suite.cases:
                print(f"  {case.name}")
        return 0
    if args.suite is None:
        parser.error("--suite is required (or use --list)")
    try:
        result = run_suite(
            args.suite,
            warmup=args.warmup,
            repeats=args.repeats,
            only=args.case,
            verbose=True,
        )
    except EvaluationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(format_result(result))
    if args.json:
        save_result(result, args.json)
        print(f"wrote {args.json}")
    if args.update_baseline:
        path = baseline_path(args.suite)
        save_result(result, path)
        print(f"wrote baseline {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
