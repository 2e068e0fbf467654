#!/usr/bin/env python
"""CI perf-regression gate: run a suite, diff it against its baseline.

Runs the named registered benchmark suite (default: ``quick``) through
:mod:`repro.bench.harness` and compares the fresh medians against the
committed ``BENCH_<suite>.json`` baseline with
:mod:`repro.bench.regression`'s per-row tolerance bands.

Modes:

* ``--mode fail`` (default) — exit 1 when any row regresses; the gate
  for machines comparable to the baseline's fingerprint.
* ``--mode warn`` — always exit 0 (unless the run itself errors); what
  CI uses for ``obs-overhead``, whose variance on hosted runners is not
  yet characterized.

``--update`` refreshes the committed baseline from the fresh run instead
of comparing (use after an intentional perf change, on a quiet machine).
``--json PATH`` writes the fresh result document — CI uploads it as a
build artifact so every run's numbers are inspectable later.

Run from the repository root::

    PYTHONPATH=src python scripts/bench_regression_check.py --suite quick
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

from repro.bench import harness, regression  # noqa: E402
from repro.exceptions import ReproError  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--suite", default="quick",
                        help="registered suite name (default: quick)")
    parser.add_argument("--mode", choices=["fail", "warn"], default="fail",
                        help="fail: exit 1 on regression; warn: report only")
    parser.add_argument("--baseline", default=None, metavar="PATH",
                        help="baseline document (default: BENCH_<suite>.json "
                        "at the repository root)")
    parser.add_argument("--factor", type=float,
                        default=regression.DEFAULT_FACTOR,
                        help="tolerance multiplier on each baseline median")
    parser.add_argument("--slack", type=float,
                        default=regression.DEFAULT_SLACK,
                        help="absolute tolerance floor in seconds")
    parser.add_argument("--warmup", type=int, default=harness.DEFAULT_WARMUP)
    parser.add_argument("--repeats", type=int, default=harness.DEFAULT_REPEATS)
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also write the fresh result document here")
    parser.add_argument("--update", action="store_true",
                        help="refresh the baseline from this run instead of "
                        "comparing against it")
    args = parser.parse_args(argv)

    baseline_path = Path(
        args.baseline
        if args.baseline is not None
        else harness.baseline_path(args.suite, REPO_ROOT)
    )
    try:
        fresh = harness.run_suite(
            args.suite, warmup=args.warmup, repeats=args.repeats, verbose=True
        )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.json:
        Path(args.json).parent.mkdir(parents=True, exist_ok=True)
        harness.save_result(fresh, args.json)
        print(f"wrote {args.json}")
    if args.update:
        harness.save_result(fresh, baseline_path)
        print(f"updated baseline {baseline_path}")
        return 0
    if not baseline_path.exists():
        print(
            f"error: no baseline at {baseline_path} (create one with "
            f"--update)",
            file=sys.stderr,
        )
        return 2
    try:
        baseline = harness.load_result(baseline_path)
        report = regression.compare(
            baseline, fresh, factor=args.factor, slack=args.slack
        )
    except (ReproError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print()
    print(report.render_text())
    if report.passed(args.mode):
        if args.mode == "warn" and report.regressions():
            print("mode=warn: regressions reported but not failing the build")
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
