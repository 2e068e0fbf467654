"""Command-line entry point: ``repro-bench`` (or ``python -m repro.cli``).

Subcommands regenerate the paper's tables and figures::

    repro-bench table3            # the six semantics of query Q1
    repro-bench fig6              # the complexity matrix
    repro-bench fig7 ... fig12    # the Section V experiments
    repro-bench ablations         # this library's own ablation studies
    repro-bench all               # everything, in order

``--full`` switches a figure to the paper's own scale (minutes to hours
and, for fig12, several GB of RAM).

There is also a standalone query tool: given a CSV of source data and a
JSON p-mapping (see :mod:`repro.schema.serialize`), answer a query under
any semantics cell::

    repro-bench query --data listings.csv --mapping mapping.json \\
        --query "SELECT COUNT(*) FROM T1 WHERE date < '2008-1-20'" \\
        --mapping-semantics by-tuple --aggregate-semantics distribution

``--explain`` prints the execution plan (lane, Figure 6 complexity class,
fallback chain) without executing; ``--explain-analyze`` executes and
attaches per-span wall-clock timings and the run's metric deltas (combine
with ``--repeat N`` to watch the plan cache convert misses into hits).

Three observability subcommands round out the tooling::

    repro-bench profile --query "SELECT COUNT(*) FROM T" \\
        --msem by-tuple --asem distribution   # flat per-span profile
    repro-bench bench --suite quick           # registered benchmark suites
    repro-bench stats --query "SELECT COUNT(*) FROM T"   # Prometheus text

``stats`` prints the metrics registry in the Prometheus text exposition
format (``GET /metrics`` on ``serve`` is the scrape endpoint), and
``query --trace-jsonl PATH`` appends the invocation's full span trees to
a JSONL file.

``query`` accepts execution guardrails: ``--timeout-ms`` (wall-clock
deadline), ``--max-worlds`` (cap on enumerated/sampled possible worlds),
and ``--degrade`` (fall back to a cheaper lane instead of failing).

One more observability subcommand reads the telemetry back::

    repro-bench recent --file slow.jsonl      # query-log records as a table

``recent`` renders structured query-log records (a slow-query JSONL
trail, or a fresh synthetic run) as an aligned table or ``--json`` (see
``docs/observability.md``).

Errors never print a traceback: they emit one ``error: ...`` line on
stderr and exit with a code naming the failure class — 2 generic/usage,
3 SQL syntax, 4 unsupported query, 5 schema, 6 mapping, 7 reformulation,
8 storage, 9 intractable, 10 deadline, 11 budget, 12 other guardrail,
13 evaluation, 14 metrics export, 15 service startup (bind failure),
16 other serving errors (see :data:`EXIT_CODES`).

Finally, ``serve`` runs the asyncio multi-tenant query service of
:mod:`repro.serve` (see ``docs/serving.md``)::

    repro-bench serve --port 8080 --max-concurrency 8 --queue-depth 16 \\
        --synthetic demo:500:8:5 --tenant gold:timeout_ms=500,max_worlds=1e6

It serves ``POST /query`` plus ``/healthz``, ``/readyz``, ``/metrics``
and ``/datasets``, sheds overload with typed 429/503 JSON errors, and
drains gracefully on SIGTERM.
"""

from __future__ import annotations

import argparse
import sys

from repro import exceptions
from repro.bench import experiments
from repro.obs.timers import Stopwatch

#: Exit codes per error class (the shared table in
#: :data:`repro.exceptions.ERROR_EXIT_CODES`, re-exported here for
#: backwards compatibility).  Code 1 is reserved for shape-check
#: failures, 2 for usage errors and errors outside this table.
EXIT_CODES: tuple[tuple[type, int], ...] = exceptions.ERROR_EXIT_CODES

_exit_code = exceptions.exit_code_for


def _fail(error: BaseException) -> int:
    """Print a clean one-line error to stderr and return its exit code."""
    message = " ".join(str(error).split())
    print(f"error: {message}", file=sys.stderr)
    return _exit_code(error)


def _add_figure(subparsers, name: str, help_text: str):
    parser = subparsers.add_parser(name, help=help_text)
    parser.add_argument(
        "--full",
        action="store_true",
        help="run at the paper's own scale instead of the laptop default",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-algorithm budget in seconds")
    return parser


def _kwargs(args: argparse.Namespace) -> dict:
    kwargs: dict = {"seed": args.seed}
    if args.timeout is not None:
        kwargs["timeout"] = args.timeout
    return kwargs


def _run_figure(name: str, args: argparse.Namespace) -> bool:
    if name == "fig6":
        return experiments.figure6()
    if name == "fig7":
        kwargs = _kwargs(args)
        if args.full:
            kwargs["tuple_counts"] = (4, 8, 12, 16, 20)
        return experiments.figure7(**kwargs)
    if name == "fig8":
        kwargs = _kwargs(args)
        if args.full:
            kwargs["mapping_counts"] = (2, 4, 6, 8, 10, 12)
        return experiments.figure8(**kwargs)
    if name == "fig9":
        kwargs = _kwargs(args)
        if args.full:
            kwargs["tuple_counts"] = (10000, 20000, 50000, 100000)
            kwargs.setdefault("timeout", 120.0)
        return experiments.figure9(**kwargs)
    if name == "fig10":
        kwargs = _kwargs(args)
        if args.full:
            kwargs["num_tuples"] = 50000
            kwargs["num_attributes"] = 500
        return experiments.figure10(**kwargs)
    if name == "fig11":
        kwargs = _kwargs(args)
        if args.full:
            kwargs["tuple_counts"] = (1000000, 2000000, 5000000)
            kwargs["vectorized"] = True
        return experiments.figure11(**kwargs)
    if name == "fig12":
        kwargs = _kwargs(args)
        if args.full:
            kwargs["tuple_counts"] = (15000000, 20000000, 30000000)
            kwargs["vectorized"] = True
        return experiments.figure12(**kwargs)
    raise AssertionError(f"unhandled figure {name}")


def _run_streamed_query(args: argparse.Namespace) -> int:
    """``query --stream``: fold the CSV through the row walk, O(1) rows."""
    from repro.core import guard, streaming
    from repro.exceptions import ReproError, UnsupportedQueryError
    from repro.schema.serialize import load_pmapping
    from repro.sql.parser import parse_query
    from repro.storage.csv_io import iter_csv_rows

    try:
        if args.mapping_semantics != "by-tuple":
            raise UnsupportedQueryError(
                "--stream supports the by-tuple semantics; drop --stream "
                "for by-table queries"
            )
        pmapping = load_pmapping(args.mapping)
        budget = guard.Budget(
            timeout_ms=args.timeout_ms, max_worlds=args.max_worlds
        )
        with guard.guarded(budget):
            answer = streaming.answer_stream(
                iter_csv_rows(pmapping.source, args.data),
                pmapping,
                parse_query(args.query),
                args.aggregate_semantics,
            )
    except (ReproError, OSError) as error:
        return _fail(error)
    print(answer)
    return 0


def _parse_tenant_spec(spec: str):
    """``NAME:key=value,...`` -> TenantPolicy (keys: timeout_ms,
    max_rows, max_worlds, max_support, samples)."""
    from repro.core.guard import Budget
    from repro.serve.registry import TenantPolicy

    name, _, rest = spec.partition(":")
    if not name:
        raise ValueError(f"tenant spec {spec!r} has no name")
    limits: dict = {}
    samples = None
    if rest:
        for pair in rest.split(","):
            key, separator, value = pair.partition("=")
            key = key.strip()
            if not separator:
                raise ValueError(
                    f"tenant spec {spec!r}: expected key=value, got {pair!r}"
                )
            if key == "samples":
                samples = int(value)
            elif key in ("timeout_ms", "max_rows", "max_worlds", "max_support"):
                limits[key] = float(value)
            else:
                raise ValueError(
                    f"tenant spec {spec!r}: unknown key {key!r} (choices: "
                    "timeout_ms, max_rows, max_worlds, max_support, samples)"
                )
    budget = Budget(**limits) if limits else None
    return TenantPolicy(name, budget=budget, samples=samples)


def _run_serve(args: argparse.Namespace) -> int:
    """The ``serve`` subcommand: the asyncio multi-tenant query service.

    Datasets come from repeatable ``--dataset NAME=DATA.csv:MAPPING.json``
    and/or ``--synthetic NAME[:TUPLES[:ATTRS[:MAPPINGS]]]`` flags (a
    default synthetic ``demo`` dataset when neither is given, so
    ``repro-bench serve`` alone yields a queryable endpoint).  Runs until
    SIGTERM/SIGINT, then drains gracefully and prints the drain report.
    Exit 15 when the socket cannot be bound.
    """
    import asyncio
    import json as _json

    from repro.exceptions import ReproError
    from repro.serve import DatasetRegistry, QueryService, ServeConfig

    registry = DatasetRegistry()
    try:
        for spec in args.dataset:
            name, separator, paths = spec.partition("=")
            data_path, path_separator, mapping_path = paths.partition(":")
            if not separator or not path_separator or not name:
                print(
                    f"error: bad --dataset {spec!r}; expected "
                    "NAME=DATA.csv:MAPPING.json",
                    file=sys.stderr,
                )
                return 2
            registry.load_csv(name, data_path, mapping_path)
        for spec in args.synthetic:
            parts = spec.split(":")
            name = parts[0]
            numbers = [int(part) for part in parts[1:4]]
            registry.add_synthetic(
                name,
                tuples=numbers[0] if len(numbers) > 0 else 500,
                attributes=numbers[1] if len(numbers) > 1 else 8,
                mappings=numbers[2] if len(numbers) > 2 else 5,
                seed=args.seed,
            )
        if len(registry) == 0:
            registry.add_synthetic("demo", seed=args.seed)
        for spec in args.tenant:
            registry.set_tenant(_parse_tenant_spec(spec))
    except (ValueError, OSError) as error:
        registry.close()
        print(f"error: {error}", file=sys.stderr)
        return 2
    except ReproError as error:
        registry.close()
        return _fail(error)

    config = ServeConfig(
        host=args.host,
        port=args.port,
        max_concurrency=args.max_concurrency,
        queue_depth=args.queue_depth,
        queue_timeout_ms=args.queue_timeout_ms,
        default_timeout_ms=args.default_timeout_ms,
        drain_timeout_ms=args.drain_timeout_ms,
    )
    service = QueryService(registry, config=config)

    async def _serve() -> dict:
        await service.start()
        service.install_signal_handlers()
        print(
            f"serving {', '.join(registry.names())} on {service.url} "
            "(SIGTERM drains gracefully)",
            flush=True,
        )
        return await service.serve_forever()

    try:
        report = asyncio.run(_serve())
    except ReproError as error:
        registry.close()
        return _fail(error)
    print(f"drained: {_json.dumps(report, sort_keys=True)}")
    return 0


def _run_match(args: argparse.Namespace) -> int:
    """The ``match`` subcommand: two CSVs -> validated JSON p-mapping."""
    from repro.exceptions import ReproError
    from repro.schema.correspondence import AttributeCorrespondence
    from repro.schema.matcher import MatcherConfig, SchemaMatcher
    from repro.schema.serialize import save_pmapping
    from repro.storage.csv_io import infer_relation, load_table_csv

    try:
        known = []
        for pin in args.known:
            source_attr, separator, target_attr = pin.partition("=")
            if not separator or not source_attr or not target_attr:
                print(
                    f"error: --known expects SRC=TGT, got {pin!r}",
                    file=sys.stderr,
                )
                return 2
            known.append(AttributeCorrespondence(source_attr, target_attr))
        source = load_table_csv(
            infer_relation(args.source_name, args.source), args.source
        )
        target = load_table_csv(
            infer_relation(args.target_name, args.target), args.target
        )
        matcher = SchemaMatcher(
            source,
            target,
            known=known,
            config=MatcherConfig(
                top_k=args.top_k,
                threshold=args.threshold,
                temperature=args.temperature,
            ),
        )
        pmapping = matcher.pmapping()
        save_pmapping(pmapping, args.output)
    except (ReproError, OSError) as error:
        return _fail(error)
    print(f"wrote {len(pmapping)} candidate mappings to {args.output}:")
    for mapping, probability in pmapping:
        pairs = ", ".join(
            f"{corr.source}->{corr.target}" for corr in mapping.correspondences
        )
        print(f"  {mapping.describe():>8}  P={probability:.4f}  {pairs}")
    return 0


def _render_plan(plan: dict, indent: int = 0) -> list[str]:
    """Text rendering of :meth:`ExecutionPlan.to_dict` (the --explain view)."""
    pad = "  " * indent
    cell = plan["cell"]
    lines = [f"{pad}{plan['algorithm'] or plan['lane']}"]
    lines.append(
        f"{pad}  cell: ({cell['op']}, {cell['mapping_semantics']}, "
        f"{cell['aggregate_semantics']})"
    )
    lines.append(f"{pad}  lane: {plan['lane']}")
    lines.append(f"{pad}  complexity: {plan['complexity']}")
    lines.append(f"{pad}  fallback chain: {' -> '.join(plan['fallback_chain'])}")
    degradation = plan.get("degradation_chain") or []
    if degradation:
        lines.append(
            f"{pad}  degradation chain: {' -> '.join(degradation)}"
        )
    estimate = plan.get("estimate")
    if estimate:
        lines.append(
            f"{pad}  estimate: rows={estimate['rows']:g} "
            f"worlds={estimate['worlds']:g} "
            f"support={estimate['support']:g} cost={estimate['cost']:g}"
        )
        preempted = estimate.get("preempted")
        if preempted:
            lines.append(
                f"{pad}  preempted: {preempted['from']} -> "
                f"{preempted['to']} (estimated {preempted['resource']} "
                f"exceed budget limit {preempted['limit']})"
            )
    if plan["paper_reference"]:
        lines.append(f"{pad}  paper: {plan['paper_reference']}")
    if plan["fallback"] is not None:
        lines.append(f"{pad}  fallback:")
        lines.extend(_render_plan(plan["fallback"], indent + 2))
    if plan["inner"] is not None:
        lines.append(f"{pad}  inner:")
        lines.extend(_render_plan(plan["inner"], indent + 2))
    return lines


def _render_span(span: dict, indent: int = 0) -> list[str]:
    """Text rendering of one span tree (the --explain-analyze timings)."""
    pad = "  " * indent
    detail = ""
    lane = span["attributes"].get("lane")
    if lane:
        detail = f"  [{lane}]"
    lines = [f"{pad}{span['name']}: {span['seconds'] * 1e3:.3f} ms{detail}"]
    for child in span["children"]:
        lines.extend(_render_span(child, indent + 1))
    return lines


def _estimate_vs_actual_lines(report: dict) -> list[str]:
    """Postgres-style ``est rows=... actual rows=... (xR)`` lines for the
    executed lane, from the report's estimates/actuals/misestimation."""
    estimates = report.get("estimates")
    actuals = report.get("actuals")
    if not estimates or not actuals:
        return []
    ratios = report.get("misestimation") or {}
    lines = [f"  lane: {report.get('executed_lane', estimates['lane'])}"]
    for kind in ("rows", "worlds", "support", "cost"):
        expected = estimates.get(kind)
        observed = actuals.get(kind)
        if expected is None:
            continue
        rendered = f"  est {kind}={expected:g}"
        if observed is not None:
            rendered += f" actual {kind}={observed:g}"
        if kind in ratios:
            rendered += f" (x{ratios[kind]:.2f})"
        lines.append(rendered)
    return lines


def _print_explain_analyze(report: dict) -> None:
    print("plan:")
    for line in _render_plan(report["plan"], 1):
        print(line)
    cost_lines = _estimate_vs_actual_lines(report)
    if cost_lines:
        print("cost:")
        for line in cost_lines:
            print(line)
    print(f"answer: {report['answer']}")
    print(
        f"executions: {report['executions']} in {report['seconds']:.4f}s "
        f"({report['seconds'] / report['executions'] * 1e3:.3f} ms/execution)"
    )
    print("spans:")
    for root in report["spans"]:
        for line in _render_span(root, 1):
            print(line)
    print("metrics:")
    for name, value in report["metrics"].items():
        if isinstance(value, dict):
            # count/sum are run deltas (+); percentiles are absolute
            # snapshots of the distribution, so they render without one.
            rendered = " ".join(
                f"{k}={v:g}" if k in ("p50", "p95", "p99") else f"{k}=+{v:g}"
                for k, v in value.items()
            )
            print(f"  {name} {rendered}")
        else:
            print(f"  {name} +{value:g}")


def _unpaired_inputs(args: argparse.Namespace) -> bool:
    """True, after printing the error, when only one of ``--data`` and
    ``--mapping`` is given."""
    if (args.data is None) == (args.mapping is None):
        return False
    print(
        "error: --data and --mapping go together (omit both for a "
        "synthetic workload)",
        file=sys.stderr,
    )
    return True


def _workload(args: argparse.Namespace):
    """The ``(table, pmapping)`` a workload subcommand answers over.

    The ``--data`` CSV under the ``--mapping`` p-mapping when given; else
    a synthetic workload (``--tuples``/``--attributes``/``--mappings``/
    ``--seed``) whose mediated relation takes its name from the query's
    FROM clause.
    """
    if getattr(args, "data", None) is not None:
        from repro.schema.serialize import load_pmapping
        from repro.storage.csv_io import load_table_csv

        pmapping = load_pmapping(args.mapping)
        return load_table_csv(pmapping.source, args.data), pmapping
    from repro.data import synthetic
    from repro.sql.parser import parse_query

    target = synthetic.mediated_relation(parse_query(args.query).source.name)
    source = synthetic.source_relation(args.attributes)
    table = synthetic.generate_source_table(
        args.tuples, args.attributes, seed=args.seed, relation=source
    )
    pmapping = synthetic.generate_pmapping(
        source, args.mappings, seed=args.seed, target=target
    )
    return table, pmapping


def _run_profile(args: argparse.Namespace) -> int:
    """The ``profile`` subcommand: a flat per-span profile of a query.

    With ``--data``/``--mapping`` it profiles the query over real inputs;
    without them it generates a synthetic workload whose mediated relation
    takes its name from the query's FROM clause, so

        repro-bench profile --query "SELECT COUNT(*) FROM T" \\
            --msem by-tuple --asem distribution

    works with no files on disk.
    """
    from repro.core.engine import AggregationEngine
    from repro.exceptions import ReproError

    if _unpaired_inputs(args):
        return 2
    try:
        table, pmapping = _workload(args)
        engine = AggregationEngine(
            [table],
            pmapping,
            allow_exponential=args.allow_exponential,
            allow_sampling=args.samples is not None,
        )
        with engine:
            profile = engine.profile(
                args.query,
                args.mapping_semantics,
                args.aggregate_semantics,
                repeat=args.repeat,
                samples=args.samples,
            )
    except (ReproError, OSError) as error:
        return _fail(error)
    print(profile.render_json() if args.json else profile.render_text())
    return 0


def _run_query(args: argparse.Namespace) -> int:
    """The ``query`` subcommand: CSV + JSON p-mapping -> printed answer."""
    from contextlib import ExitStack

    from repro.exceptions import ReproError

    if args.stream:
        if args.trace_jsonl:
            print(
                "error: --trace-jsonl requires the engine pipeline; drop "
                "--stream",
                file=sys.stderr,
            )
            return 2
        if args.explain or args.explain_analyze:
            print(
                "error: --explain/--explain-analyze require the engine "
                "pipeline; drop --stream",
                file=sys.stderr,
            )
            return 2
        if args.repeat > 1:
            print(
                "error: --repeat does not combine with --stream (streaming "
                "is a single pass over the CSV)",
                file=sys.stderr,
            )
            return 2
        return _run_streamed_query(args)
    try:
        with ExitStack() as stack:
            if args.trace_jsonl:
                from repro.obs import trace

                # One JSON object per root span: the full span tree of
                # this invocation lands in the file (--explain-analyze
                # keeps its own temporary sink and prints the spans
                # instead).
                sink = stack.enter_context(trace.JSONLSink(args.trace_jsonl))
                stack.enter_context(trace.use_sink(sink))
            return _run_engine_query(args)
    except (ReproError, OSError) as error:
        return _fail(error)


def _run_engine_query(args: argparse.Namespace) -> int:
    """The engine-pipeline body of the ``query`` subcommand."""
    from repro.core.engine import AggregationEngine
    from repro.schema.serialize import load_pmapping
    from repro.storage.csv_io import load_table_csv

    pmapping = load_pmapping(args.mapping)
    table = load_table_csv(pmapping.source, args.data)
    engine = AggregationEngine(
        [table],
        pmapping,
        backend=args.backend,
        allow_exponential=args.allow_exponential,
        allow_sampling=args.samples is not None,
        timeout_ms=args.timeout_ms,
        max_worlds=args.max_worlds,
        degrade=args.degrade,
    )
    with engine:
        if args.explain:
            plan = engine.explain(
                args.query,
                args.mapping_semantics,
                args.aggregate_semantics,
            )
            for line in _render_plan(plan):
                print(line)
            return 0
        if args.explain_analyze:
            report = engine.explain_analyze(
                args.query,
                args.mapping_semantics,
                args.aggregate_semantics,
                repeat=args.repeat,
                samples=args.samples,
            )
            _print_explain_analyze(report)
            return 0
        if args.repeat > 1:
            # Prepare once, execute N times: demonstrates the pipeline's
            # plan reuse and reports the amortized per-execution cost.
            prepared = engine.prepare(args.query)
            watch = Stopwatch()
            with watch:
                for _ in range(args.repeat):
                    answer = prepared.answer(
                        args.mapping_semantics,
                        args.aggregate_semantics,
                        samples=args.samples,
                    )
            print(answer)
            print(
                f"{args.repeat} executions in {watch.elapsed:.4f}s "
                f"({watch.elapsed / args.repeat * 1e3:.3f} ms/execution, "
                "prepared once)"
            )
            return 0
        answer = engine.answer(
            args.query,
            args.mapping_semantics,
            args.aggregate_semantics,
            samples=args.samples,
        )
    print(answer)
    return 0


def _run_stats(args: argparse.Namespace) -> int:
    """The ``stats`` subcommand: Prometheus exposition of the metrics
    registry.

    With ``--query`` the metrics are populated first by answering it
    (over ``--data``/``--mapping``, or a synthetic workload like
    ``profile``); per-engine registries chain to the process-wide one, so
    everything the run recorded is visible.
    """
    from repro.exceptions import ReproError
    from repro.obs import export, metrics

    if _unpaired_inputs(args):
        return 2
    try:
        if args.query is not None:
            from repro.core.engine import AggregationEngine

            table, pmapping = _workload(args)
            with AggregationEngine(
                [table],
                pmapping,
                allow_exponential=args.allow_exponential,
                allow_sampling=args.samples is not None,
            ) as engine:
                for _ in range(args.repeat):
                    engine.answer(
                        args.query,
                        args.mapping_semantics,
                        args.aggregate_semantics,
                        samples=args.samples,
                    )
        print(export.render_prometheus(metrics.get_registry()), end="")
    except (ReproError, OSError) as error:
        return _fail(error)
    return 0


def _render_table(headers: list[str], rows: list[list[str]]) -> list[str]:
    """Aligned plain-text table (headers + rows, left-justified columns)."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, value in enumerate(row):
            widths[i] = max(widths[i], len(value))
    def fmt(row: list[str]) -> str:
        return "  ".join(v.ljust(widths[i]) for i, v in enumerate(row)).rstrip()
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return lines


def _run_recent(args: argparse.Namespace) -> int:
    """The ``recent`` subcommand: query-log records as a table (or JSON).

    With ``--file`` it reads a slow-query JSONL trail
    (``slow_query_path``); without one it answers a synthetic workload
    first and renders the engine's own ``recent_queries()`` buffer, so
    the record shape can be inspected with no files on disk.
    """
    import json
    import time as time_mod

    from repro.exceptions import ReproError

    try:
        if args.file is not None:
            from repro.obs.querylog import read_slow_log

            records, torn = read_slow_log(args.file)
            if torn:
                print(
                    f"note: skipped {torn} torn final line in {args.file}",
                    file=sys.stderr,
                )
        else:
            from repro.core.engine import AggregationEngine

            table, pmapping = _workload(args)
            with AggregationEngine([table], pmapping) as engine:
                for _ in range(args.repeat):
                    engine.answer(
                        args.query,
                        args.mapping_semantics,
                        args.aggregate_semantics,
                    )
                records = [r.to_dict() for r in engine.recent_queries()]
        if args.limit is not None:
            records = records[-args.limit:] if args.limit > 0 else []
    except (ReproError, OSError, ValueError) as error:
        return _fail(error)
    if args.json:
        print(json.dumps(records, indent=1))
        return 0
    if not records:
        print("no query records")
        return 0

    def cell(value, spec: str = "") -> str:
        if value is None:
            return "-"
        return format(value, spec) if spec else str(value)

    headers = [
        "time", "digest", "cell", "lane", "status", "ms", "rows",
        "est cost", "actual cost",
    ]
    rows = []
    for record in records:
        rows.append([
            time_mod.strftime(
                "%H:%M:%S", time_mod.localtime(record.get("ts", 0))
            ),
            cell(record.get("digest")),
            f"{record.get('mapping_semantics', '?')}/"
            f"{record.get('aggregate_semantics', '?')}",
            cell(record.get("lane")),
            cell(record.get("status")),
            cell(record.get("seconds", 0) * 1e3, ".3f"),
            cell(record.get("rows")),
            cell(record.get("est_cost"), ".4g"),
            cell(record.get("actual_cost"), ".4g"),
        ])
    for line in _render_table(headers, rows):
        print(line)
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    # Forward ``bench`` before argparse sees the rest: REMAINDER will not
    # capture a leading option such as ``--list``.
    if argv and argv[0] == "bench":
        from repro.bench import harness

        return harness.main(list(argv[1:]))
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Regenerate the tables and figures of 'Aggregate Query "
        "Answering under Uncertain Schema Mappings' (ICDE 2009).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("table3", help="Table III: six semantics of Q1")
    subparsers.add_parser("fig6", help="Figure 6: complexity matrix")
    _add_figure(subparsers, "fig7", "small eBay instances, all algorithms")
    _add_figure(subparsers, "fig8", "small synthetic, varying #mappings")
    _add_figure(subparsers, "fig9", "medium synthetic, PTIME algorithms")
    _add_figure(subparsers, "fig10", "varying #mappings, wide table")
    _add_figure(subparsers, "fig11", "large #tuples")
    _add_figure(subparsers, "fig12", "very large #tuples")
    subparsers.add_parser(
        "ablations", help="scalar-vs-vectorized, expected-COUNT, AVG-counter"
    )
    query_parser = subparsers.add_parser(
        "query", help="answer a query over a CSV + JSON p-mapping"
    )
    query_parser.add_argument("--data", required=True,
                              help="CSV file of the source relation")
    query_parser.add_argument("--mapping", required=True,
                              help="JSON p-mapping (repro.schema.serialize)")
    query_parser.add_argument("--query", required=True,
                              help="aggregate SQL over the target schema")
    query_parser.add_argument(
        "--mapping-semantics", default="by-table",
        choices=["by-table", "by-tuple"],
    )
    query_parser.add_argument(
        "--aggregate-semantics", default="distribution",
        choices=["range", "distribution", "expected-value"],
    )
    query_parser.add_argument("--allow-exponential", action="store_true")
    query_parser.add_argument("--samples", type=int, default=None,
                              help="use Monte-Carlo sampling with N samples")
    query_parser.add_argument("--backend", default="memory",
                              choices=["memory", "sqlite"])
    query_parser.add_argument(
        "--repeat", type=int, default=1, metavar="N",
        help="prepare the query once and execute it N times, reporting the "
        "amortized per-execution time (exercises the prepared-plan cache)",
    )
    query_parser.add_argument(
        "--explain", action="store_true",
        help="print the execution plan (lane, Figure 6 complexity class, "
        "fallback chain) without executing the query",
    )
    query_parser.add_argument(
        "--explain-analyze", action="store_true",
        help="execute the query and print the plan with per-span timings "
        "and metric deltas (combine with --repeat N for cache behaviour)",
    )
    query_parser.add_argument(
        "--stream", action="store_true",
        help="single-pass streaming evaluation (by-tuple, flat queries; "
        "the CSV is never materialized, so it may exceed RAM)",
    )
    query_parser.add_argument(
        "--timeout-ms", type=float, default=None, metavar="MS",
        help="wall-clock deadline per execution; a query that overruns "
        "aborts with QueryTimeoutError (exit code 10) unless --degrade "
        "finds a cheaper lane",
    )
    query_parser.add_argument(
        "--max-worlds", type=int, default=None, metavar="N",
        help="cap on enumerated possible worlds (and sampling draws); "
        "exceeding it aborts with BudgetExceededError (exit code 11)",
    )
    query_parser.add_argument(
        "--degrade", action="store_true",
        help="on a guardrail breach, degrade to a cheaper lane (exponential "
        "enumeration -> sampling) instead of failing",
    )
    query_parser.add_argument(
        "--trace-jsonl", default=None, metavar="PATH",
        help="append this invocation's span trees (one JSON object per "
        "root span) to PATH",
    )
    profile_parser = subparsers.add_parser(
        "profile",
        help="flat per-span profile (calls, cumulative/self time, p50/p95, "
        "critical path) of a query execution",
    )
    profile_parser.add_argument("--query", required=True,
                                help="aggregate SQL over the target schema")
    profile_parser.add_argument(
        "--mapping-semantics", "--msem", dest="mapping_semantics",
        default="by-table", choices=["by-table", "by-tuple"],
    )
    profile_parser.add_argument(
        "--aggregate-semantics", "--asem", dest="aggregate_semantics",
        default="distribution",
        choices=["range", "distribution", "expected-value"],
    )
    profile_parser.add_argument(
        "--repeat", type=int, default=3, metavar="N",
        help="execute the query N times and aggregate all runs (default: 3)",
    )
    profile_parser.add_argument(
        "--json", action="store_true",
        help="emit the profile as JSON instead of the text table",
    )
    profile_parser.add_argument("--data", default=None,
                                help="CSV file of the source relation")
    profile_parser.add_argument(
        "--mapping", default=None,
        help="JSON p-mapping (omit both --data and --mapping to profile "
        "over a generated synthetic workload)",
    )
    profile_parser.add_argument(
        "--tuples", type=int, default=500,
        help="synthetic workload: source table size (default: 500)",
    )
    profile_parser.add_argument(
        "--attributes", type=int, default=8,
        help="synthetic workload: source attribute count (default: 8)",
    )
    profile_parser.add_argument(
        "--mappings", type=int, default=5,
        help="synthetic workload: candidate mapping count (default: 5)",
    )
    profile_parser.add_argument("--seed", type=int, default=0)
    profile_parser.add_argument("--allow-exponential", action="store_true")
    profile_parser.add_argument("--samples", type=int, default=None,
                                help="use Monte-Carlo sampling with N samples")
    bench_parser = subparsers.add_parser(
        "bench",
        help="run a registered benchmark suite: quick (the CI gate) or "
        "obs-overhead (repro-bench bench --list; see repro.bench.harness)",
    )
    bench_parser.add_argument(
        "harness_args", nargs=argparse.REMAINDER,
        help="arguments forwarded to repro.bench.harness "
        "(--suite NAME, --list, --warmup, --repeats, --case, --json, "
        "--update-baseline)",
    )
    stats_parser = subparsers.add_parser(
        "stats",
        help="print the Prometheus text exposition of the metrics "
        "registry (repro-bench serve answers GET /metrics with it)",
    )
    stats_parser.add_argument(
        "--query", default=None,
        help="populate the metrics by answering this query first "
        "(over --data/--mapping, or a synthetic workload)",
    )
    stats_parser.add_argument(
        "--mapping-semantics", "--msem", dest="mapping_semantics",
        default="by-tuple", choices=["by-table", "by-tuple"],
    )
    stats_parser.add_argument(
        "--aggregate-semantics", "--asem", dest="aggregate_semantics",
        default="range",
        choices=["range", "distribution", "expected-value"],
    )
    stats_parser.add_argument("--data", default=None,
                              help="CSV file of the source relation")
    stats_parser.add_argument(
        "--mapping", default=None,
        help="JSON p-mapping (omit both --data and --mapping for a "
        "synthetic workload)",
    )
    stats_parser.add_argument("--repeat", type=int, default=1, metavar="N")
    stats_parser.add_argument("--tuples", type=int, default=500)
    stats_parser.add_argument("--attributes", type=int, default=8)
    stats_parser.add_argument("--mappings", type=int, default=5)
    stats_parser.add_argument("--seed", type=int, default=0)
    stats_parser.add_argument("--allow-exponential", action="store_true")
    stats_parser.add_argument("--samples", type=int, default=None)
    recent_parser = subparsers.add_parser(
        "recent",
        help="render structured query-log records (a slow-query JSONL "
        "file, or a fresh synthetic run) as an aligned table or JSON",
    )
    recent_parser.add_argument(
        "--file", default=None, metavar="PATH",
        help="slow-query JSONL trail to read (engine slow_query_path); "
        "omit to answer a synthetic workload and show its records",
    )
    recent_parser.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="show only the last N records",
    )
    recent_parser.add_argument(
        "--json", action="store_true",
        help="emit the records as JSON instead of the table",
    )
    recent_parser.add_argument(
        "--query", default="SELECT COUNT(*) FROM T",
        help="synthetic-workload query (without --file)",
    )
    recent_parser.add_argument(
        "--mapping-semantics", "--msem", dest="mapping_semantics",
        default="by-tuple", choices=["by-table", "by-tuple"],
    )
    recent_parser.add_argument(
        "--aggregate-semantics", "--asem", dest="aggregate_semantics",
        default="range",
        choices=["range", "distribution", "expected-value"],
    )
    recent_parser.add_argument("--repeat", type=int, default=3, metavar="N")
    recent_parser.add_argument("--tuples", type=int, default=500)
    recent_parser.add_argument("--attributes", type=int, default=8)
    recent_parser.add_argument("--mappings", type=int, default=5)
    recent_parser.add_argument("--seed", type=int, default=0)
    match_parser = subparsers.add_parser(
        "match",
        help="match two CSVs automatically and emit a JSON p-mapping",
    )
    match_parser.add_argument("--source", required=True,
                              help="CSV of the source relation")
    match_parser.add_argument("--target", required=True,
                              help="CSV of the target (mediated) relation")
    match_parser.add_argument("--output", required=True,
                              help="path for the JSON p-mapping")
    match_parser.add_argument("--source-name", default="SOURCE")
    match_parser.add_argument("--target-name", default="TARGET")
    match_parser.add_argument("--top-k", type=int, default=5)
    match_parser.add_argument("--threshold", type=float, default=0.35)
    match_parser.add_argument("--temperature", type=float, default=0.1)
    match_parser.add_argument(
        "--known", action="append", default=[], metavar="SRC=TGT",
        help="pin a correspondence (repeatable), e.g. --known ID=propertyID",
    )
    serve_parser = subparsers.add_parser(
        "serve", help="run the asyncio multi-tenant query service"
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port", type=int, default=8080,
        help="TCP port (0 picks an ephemeral one; default 8080)",
    )
    serve_parser.add_argument(
        "--max-concurrency", type=int, default=8,
        help="queries executing at once (default 8)",
    )
    serve_parser.add_argument(
        "--queue-depth", type=int, default=16,
        help="queries allowed to wait for a slot before shedding (default 16)",
    )
    serve_parser.add_argument(
        "--queue-timeout-ms", type=float, default=None,
        help="longest a query may queue before shedding (default: unbounded)",
    )
    serve_parser.add_argument(
        "--default-timeout-ms", type=float, default=None,
        help="per-query deadline when the request carries none",
    )
    serve_parser.add_argument(
        "--drain-timeout-ms", type=float, default=10000.0,
        help="SIGTERM drain deadline for in-flight queries (default 10000)",
    )
    serve_parser.add_argument(
        "--dataset", action="append", default=[],
        metavar="NAME=DATA.csv:MAPPING.json",
        help="serve a CSV + JSON p-mapping dataset (repeatable)",
    )
    serve_parser.add_argument(
        "--synthetic", action="append", default=[],
        metavar="NAME[:TUPLES[:ATTRS[:MAPPINGS]]]",
        help="serve a synthetic dataset (repeatable; default 'demo' when "
        "no dataset flags are given)",
    )
    serve_parser.add_argument(
        "--tenant", action="append", default=[],
        metavar="NAME:key=value,...",
        help="standing tenant budget (keys: timeout_ms, max_rows, "
        "max_worlds, max_support, samples); repeatable",
    )
    serve_parser.add_argument("--seed", type=int, default=0)
    all_parser = subparsers.add_parser("all", help="every experiment in order")
    all_parser.add_argument("--full", action="store_true")
    all_parser.add_argument("--seed", type=int, default=0)
    all_parser.add_argument("--timeout", type=float, default=None)

    args = parser.parse_args(argv)
    passed = True
    if args.command == "query":
        return _run_query(args)
    if args.command == "profile":
        return _run_profile(args)
    if args.command == "stats":
        return _run_stats(args)
    if args.command == "recent":
        return _run_recent(args)
    if args.command == "match":
        return _run_match(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "table3":
        passed = experiments.table3()
    elif args.command == "ablations":
        passed = experiments.ablation_vectorized()
        passed = experiments.ablation_expected_count() and passed
        passed = experiments.ablation_avg_counter_method() and passed
    elif args.command == "all":
        passed = experiments.table3()
        passed = experiments.figure6() and passed
        for name in ("fig7", "fig8", "fig9", "fig10", "fig11", "fig12"):
            passed = _run_figure(name, args) and passed
        passed = experiments.ablation_vectorized() and passed
        passed = experiments.ablation_expected_count() and passed
        passed = experiments.ablation_avg_counter_method() and passed
    else:
        passed = _run_figure(args.command, args)
    print()
    print("ALL SHAPE CHECKS PASSED" if passed else "SOME SHAPE CHECKS FAILED")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
