"""Run one benchmark workload and print its result as a JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
same workload with every other op traced, and prints the per-layer
metrics instead.  The last line of standard output is the result; the
environment block and any problems go to standard error.  Exit status is
0 only when every answer checked out.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Scratch space inside the checkout; inputs live here only for one run.
WORK_ROOT = os.path.join(ROOT, ".bench_build")
#: Hard cap on one run's wall time, so a hang cannot outlive its caller.
WALL_LIMIT_S = 170

sys.path.insert(0, HERE)

from common import (  # noqa: E402
    PER_LAYER,
    Trace,
    emit,
    environment_block,
    table3_gate,
)


class Run:
    """One invocation's settings and its scratch directory."""

    def __init__(self, args: argparse.Namespace, workdir: str) -> None:
        self.root = ROOT
        self.workdir = workdir
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)

    def inputs(self, rows: int) -> tuple[str, str]:
        """Generate this run's inputs in a separate process."""
        from inputs import paths

        subprocess.run(
            [
                sys.executable, os.path.join(HERE, "inputs.py"),
                "--rows", str(rows), "--seed", str(self.seed),
                "--out", self.workdir,
            ],
            check=True,
            timeout=120,
            env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        )
        return paths(self.workdir)


def _workloads() -> dict:
    from library import run_scan, run_six
    from served import run_served

    return {"scan": run_scan, "six-semantics": run_six, "served": run_served}


class WallLimit(Exception):
    pass


def _on_alarm(signum, frame):
    raise WallLimit(f"run exceeded {WALL_LIMIT_S} s")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=["scan", "six-semantics", "served"]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program source under {ROOT}/src/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    print(f"environment: {environment_block(ROOT)}", file=sys.stderr)

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(WALL_LIMIT_S)
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="perfbench-", dir=WORK_ROOT)
    try:
        from repro.serve.registry import SERVING_ENGINE_DEFAULTS

        gate = table3_gate(SERVING_ENGINE_DEFAULTS)
        if gate:
            for problem in gate:
                print(f"correctness gate: {problem}", file=sys.stderr)
            return 1
        run = Run(args, workdir)
        result = _workloads()[args.workload](run)
        problems = list(result["problems"])
        metrics = result["metrics"]
        if run.trace:
            trace: Trace = result["trace"]
            metrics.update(trace.layer_metrics())
            _, bad = trace.add_back()
            if bad:
                problems.append(
                    f"{bad} ops' layer self times miss their wall time by "
                    f"more than {Trace.UNATTRIBUTED_TOLERANCE:.0%}"
                )
            metrics = {
                name: metrics.get(name, (0.0, unit))
                for name, unit in PER_LAYER.items()
            }
            trace.write(os.path.join(
                WORK_ROOT, f"perfbench-trace-{args.workload}.jsonl"
            ))
        speed = result["speed"]
        if speed is not None:
            print(
                f"speed factor: {speed.factor():.3f} "
                f"({len(speed.seconds)} reference-kernel samples)",
                file=sys.stderr,
            )
        for problem in problems:
            print(f"problem: {problem}", file=sys.stderr)
        correct = result["failed"] == 0 and not problems
        emit(correct, max(1, result["attempted"]), result["failed"], metrics)
        return 0 if correct else 1
    finally:
        signal.alarm(0)
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
