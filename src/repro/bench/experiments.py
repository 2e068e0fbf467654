"""One driver per paper table/figure (the per-experiment index of DESIGN.md).

Every ``figureN`` function regenerates the corresponding experiment of the
paper's Section V at a laptop-friendly default scale, prints the timing
series, runs the qualitative *shape checks* the reproduction must
preserve, and returns ``True`` when all of them pass.  The paper-scale
parameters are available through keyword arguments (see each docstring)
and the ``--full`` flag of the CLI.

Two regimes are configured deliberately (EXPERIMENTS.md, "substrate speed
ratios"): Figure 10 times the vectorized by-tuple loops against the
DBMS-backed ByTupleExpValSUM (the paper's fast-loop-vs-many-queries
regime), while Figures 9, 11 and 12 time the scalar per-tuple loops
(≈ the paper's Java per-tuple costs) against the DBMS.
"""

from __future__ import annotations

import random

from repro.bench.algorithms import BenchContext
from repro.bench.reporting import (
    ShapeCheck,
    check_dominates,
    check_growth_at_most_linear,
    check_growth_superlinear,
    check_stays_fast,
    print_report,
)
from repro.bench.runner import run_sweep
from repro.core.planner import format_complexity_matrix
from repro.core.semantics import AggregateSemantics, MappingSemantics
from repro.data import ebay, synthetic
from repro.sql.ast import AggregateOp

#: Query texts over the eBay mediated schema, one per operator.
EBAY_QUERIES = {
    AggregateOp.COUNT: "SELECT COUNT(*) FROM T2 WHERE price < 300",
    AggregateOp.SUM: "SELECT SUM(price) FROM T2",
    AggregateOp.AVG: "SELECT AVG(price) FROM T2",
    AggregateOp.MAX: "SELECT MAX(price) FROM T2",
    AggregateOp.MIN: "SELECT MIN(price) FROM T2",
}

#: The exponential algorithms of Figures 7-8 (the paper benchmarks all
#: operators except MIN).
EXPONENTIAL_ALGORITHMS = (
    "ByTuplePDMAX",
    "ByTupleExpValMAX",
    "ByTuplePDAVG",
    "ByTupleExpValAVG",
    "ByTuplePDSUM",
)

#: The PTIME algorithms those figures show hugging the x axis.
PTIME_ALGORITHMS = (
    "ByTupleRangeMAX",
    "ByTupleRangeCOUNT",
    "ByTuplePDCOUNT",
    "ByTupleExpValCOUNT",
    "ByTupleRangeSUM",
    "ByTupleExpValSUM",
    "ByTupleRangeAVG",
)


def figure6() -> bool:
    """Figure 6: the complexity matrix (printed, and structurally checked)."""
    text = format_complexity_matrix()
    print()
    print("Figure 6 — complexity of the six semantics per aggregate")
    print(text)
    from repro.core.planner import Complexity, complexity_matrix

    matrix = complexity_matrix()
    checks = [
        ShapeCheck(
            "all by-table cells are PTIME",
            all(
                matrix[(op, MappingSemantics.BY_TABLE, sem)] == Complexity.PTIME
                for op in AggregateOp
                for sem in AggregateSemantics
            ),
        ),
        ShapeCheck(
            "by-tuple COUNT is PTIME everywhere",
            all(
                matrix[(AggregateOp.COUNT, MappingSemantics.BY_TUPLE, sem)]
                == Complexity.PTIME
                for sem in AggregateSemantics
            ),
        ),
        ShapeCheck(
            "by-tuple SUM is PTIME except under distribution",
            matrix[
                (AggregateOp.SUM, MappingSemantics.BY_TUPLE,
                 AggregateSemantics.DISTRIBUTION)
            ]
            == Complexity.OPEN,
        ),
    ]
    ok = True
    for check in checks:
        print(check)
        ok = ok and check.passed
    return ok


def figure7(
    *,
    tuple_counts: tuple[int, ...] = (4, 6, 8, 10, 12, 14, 16, 18),
    timeout: float = 10.0,
    seed: int = 0,
    verbose: bool = True,
) -> bool:
    """Figure 7: all algorithms on small (simulated) eBay prefixes.

    The paper grows the input auction by auction over its real trace; we
    grow a simulated second-price bid stream tuple by tuple.  Expected
    shape: the five exponential algorithms climb steeply / get skipped,
    the PTIME algorithms stay near the x axis.
    """
    stream = ebay.generate_auctions(8, mean_bids=4, seed=seed)

    def make_context(num_tuples: object) -> BenchContext:
        return BenchContext(
            ebay.auction_prefix(stream, int(num_tuples)),
            ebay.paper_pmapping(),
            EBAY_QUERIES,
        )

    result = run_sweep(
        "#tuples",
        tuple_counts,
        make_context,
        EXPONENTIAL_ALGORITHMS + PTIME_ALGORITHMS,
        timeout=timeout,
        verbose=verbose,
    )
    checks = [
        check_growth_superlinear(result, name) for name in EXPONENTIAL_ALGORITHMS
    ] + [check_stays_fast(result, name, 2.0) for name in PTIME_ALGORITHMS]
    return print_report(
        result,
        checks,
        title="Figure 7 — running time vs #tuples (eBay, 2 mappings)",
        notes="(paper: exponential algorithms exceed 10 days at 36 tuples; "
        "PTIME algorithms touch the x axis)",
    )


def figure8(
    *,
    tuple_count: int = 6,
    mapping_counts: tuple[int, ...] = (2, 4, 6, 8, 10),
    num_attributes: int = 20,
    timeout: float = 10.0,
    seed: int = 0,
    verbose: bool = True,
) -> bool:
    """Figure 8: all algorithms vs #mappings on tiny synthetic tables."""
    table = synthetic.generate_source_table(tuple_count, num_attributes, seed=seed)

    def make_context(num_mappings: object) -> BenchContext:
        pmapping = synthetic.generate_pmapping(
            table.relation, int(num_mappings), seed=seed + int(num_mappings)
        )
        workload = synthetic.Workload(table, pmapping)
        return BenchContext(table, pmapping, workload.queries)

    result = run_sweep(
        "#mappings",
        mapping_counts,
        make_context,
        EXPONENTIAL_ALGORITHMS + PTIME_ALGORITHMS,
        timeout=timeout,
        verbose=verbose,
    )
    checks = [
        check_growth_superlinear(result, name) for name in EXPONENTIAL_ALGORITHMS
    ] + [check_stays_fast(result, name, 2.0) for name in PTIME_ALGORITHMS]
    return print_report(
        result,
        checks,
        title=(
            "Figure 8 — running time vs #mappings "
            f"(synthetic, {num_attributes} attributes, {tuple_count} tuples)"
        ),
        notes="(paper: solid line = exponential algorithms; dashed line "
        "touching the x axis = PTIME algorithms)",
    )


_FIG9_ALGORITHMS = (
    "ByTuplePDCOUNT",
    "ByTupleExpValCOUNT",
    "ByTupleRangeCOUNT",
    "ByTupleRangeSUM",
    "ByTupleRangeAVG",
    "ByTupleRangeMAX",
    "ByTupleExpValSUM",
    "ByTableCOUNT",
)


def figure9(
    *,
    tuple_counts: tuple[int, ...] = (1000, 2000, 5000, 10000, 20000),
    num_attributes: int = 50,
    num_mappings: int = 20,
    timeout: float = 20.0,
    seed: int = 0,
    verbose: bool = True,
) -> bool:
    """Figure 9: PTIME algorithms vs #tuples (medium synthetic instances).

    Expected shape: ByTuplePDCOUNT and ByTupleExpValCOUNT grow
    quadratically (O(m n^2)) and separate from the linear range
    algorithms; the paper sees them become intractable around 50k tuples.
    Scale up with ``tuple_counts=(10_000, ..., 100_000)`` for the paper's
    exact axis.
    """

    def make_context(num_tuples: object) -> BenchContext:
        workload = synthetic.generate_workload(
            int(num_tuples), num_attributes, num_mappings, seed=seed
        )
        context = BenchContext(workload.table, workload.pmapping, workload.queries)
        context.engine("sqlite")  # materialize SQLite outside the timed region
        return context

    result = run_sweep(
        "#tuples",
        tuple_counts,
        make_context,
        _FIG9_ALGORITHMS,
        timeout=timeout,
        verbose=verbose,
    )
    checks = [
        check_growth_superlinear(result, "ByTuplePDCOUNT", factor=1.8),
        check_growth_superlinear(result, "ByTupleExpValCOUNT", factor=1.8),
        check_growth_at_most_linear(result, "ByTupleRangeCOUNT"),
        check_growth_at_most_linear(result, "ByTupleRangeSUM"),
        check_growth_at_most_linear(result, "ByTupleRangeAVG"),
        check_growth_at_most_linear(result, "ByTupleRangeMAX"),
        check_dominates(result, "ByTuplePDCOUNT", "ByTupleRangeCOUNT", factor=3.0),
    ]
    return print_report(
        result,
        checks,
        title=(
            "Figure 9 — running time vs #tuples "
            f"(synthetic, {num_attributes} attributes, {num_mappings} mappings)"
        ),
        notes="(paper: the two COUNT distribution/expected-value algorithms "
        "separate quadratically from the linear range algorithms)",
    )


_FIG10_ALGORITHMS = (
    "ByTupleExpValSUM",
    "ByTupleRangeMAX",
    "ByTupleRangeCOUNT",
    "ByTupleRangeSUM",
    "ByTupleRangeAVG",
)


def figure10(
    *,
    mapping_counts: tuple[int, ...] = (10, 50, 100, 150, 200, 250),
    num_tuples: int = 20000,
    num_attributes: int = 260,
    timeout: float = 90.0,
    seed: int = 0,
    verbose: bool = True,
) -> bool:
    """Figure 10: PTIME algorithms vs #mappings (wide synthetic table).

    Expected shape: ByTupleExpValSUM — a by-table algorithm issuing one SQL
    query per mapping — grows roughly linearly in #mappings and dominates;
    the by-tuple range algorithms barely move.  The range algorithms run
    vectorized here, matching the paper's fast in-process loops (see the
    module docstring).  The paper's exact scale is ``num_tuples=50_000,
    num_attributes=500``.
    """
    table = synthetic.generate_source_table(num_tuples, num_attributes, seed=seed)

    def make_context(num_mappings: object) -> BenchContext:
        pmapping = synthetic.generate_pmapping(
            table.relation, int(num_mappings), seed=seed + int(num_mappings)
        )
        workload = synthetic.Workload(table, pmapping)
        context = BenchContext(
            table, pmapping, workload.queries, use_vectorized=True
        )
        context.engine("sqlite")  # materialize SQLite outside the timed region
        return context

    result = run_sweep(
        "#mappings",
        mapping_counts,
        make_context,
        _FIG10_ALGORITHMS,
        timeout=timeout,
        verbose=verbose,
    )
    expval_series = [s for s in result.seconds["ByTupleExpValSUM"] if s is not None]
    climbs = (
        len(expval_series) >= 2
        and expval_series[-1] >= 4.0 * max(expval_series[0], 1e-4)
    )
    checks = [
        check_dominates(result, "ByTupleExpValSUM", "ByTupleRangeSUM", factor=2.0),
        check_dominates(result, "ByTupleExpValSUM", "ByTupleRangeMAX", factor=2.0),
        ShapeCheck(
            "ByTupleExpValSUM climbs with #mappings (one query per mapping)",
            climbs,
            f"{expval_series[0]:.3f}s -> {expval_series[-1]:.3f}s"
            if len(expval_series) >= 2 else "not enough points",
        ),
    ]
    return print_report(
        result,
        checks,
        title=(
            "Figure 10 — running time vs #mappings "
            f"(synthetic, {num_attributes} attributes, {num_tuples} tuples)"
        ),
        notes="(paper: ByTupleExpValSUM must issue as many queries as "
        "mappings and climbs; the other four barely increase)",
    )


_FIG11_ALGORITHMS = (
    "ByTupleRangeMAX",
    "ByTupleRangeAVG",
    "ByTupleRangeSUM",
    "ByTupleRangeCOUNT",
    "ByTupleExpValSUM",
)


def _large_tuple_sweep(
    figure_name: str,
    tuple_counts: tuple[int, ...],
    num_attributes: int,
    num_mappings: int,
    *,
    vectorized: bool,
    timeout: float,
    seed: int,
    verbose: bool,
    notes: str,
) -> bool:
    def make_context(num_tuples: object) -> BenchContext:
        workload = synthetic.generate_workload(
            int(num_tuples), num_attributes, num_mappings, seed=seed
        )
        context = BenchContext(
            workload.table,
            workload.pmapping,
            workload.queries,
            use_vectorized=vectorized,
        )
        context.engine("sqlite")  # materialize SQLite outside the timed region
        return context

    result = run_sweep(
        "#tuples",
        tuple_counts,
        make_context,
        _FIG11_ALGORITHMS,
        timeout=timeout,
        verbose=verbose,
    )
    checks = [
        check_growth_at_most_linear(result, name)
        for name in _FIG11_ALGORITHMS
        if name != "ByTupleExpValSUM"
    ]
    if not vectorized:
        # The paper's headline for these figures: the Theorem-4 algorithm,
        # running on the DBMS, is far below the in-process range scans.
        checks.append(
            check_dominates(result, "ByTupleRangeSUM", "ByTupleExpValSUM",
                            factor=2.0)
        )
    return print_report(
        result,
        checks,
        title=(
            f"{figure_name} — running time vs #tuples "
            f"(synthetic, {num_attributes} attributes, {num_mappings} mappings"
            f"{', vectorized' if vectorized else ''})"
        ),
        notes=notes,
    )


def figure11(
    *,
    tuple_counts: tuple[int, ...] = (20000, 50000, 100000, 200000),
    num_attributes: int = 50,
    num_mappings: int = 20,
    vectorized: bool = False,
    timeout: float = 120.0,
    seed: int = 0,
    verbose: bool = True,
) -> bool:
    """Figure 11: the scalable by-tuple algorithms into large tuple counts.

    Default: scalar loops (≈ the paper's per-tuple costs) at reduced scale.
    ``vectorized=True`` with ``tuple_counts=(1_000_000, ..., 5_000_000)``
    reaches the paper's axis on a laptop.
    """
    return _large_tuple_sweep(
        "Figure 11",
        tuple_counts,
        num_attributes,
        num_mappings,
        vectorized=vectorized,
        timeout=timeout,
        seed=seed,
        verbose=verbose,
        notes="(paper: range algorithms are linear up to 5M tuples; "
        "ByTupleExpValSUM is much lower — it runs on the DBMS)",
    )


def figure12(
    *,
    tuple_counts: tuple[int, ...] = (200000, 500000, 1000000),
    num_attributes: int = 20,
    num_mappings: int = 5,
    vectorized: bool = False,
    timeout: float = 180.0,
    seed: int = 0,
    verbose: bool = True,
) -> bool:
    """Figure 12: 15-30M tuples in the paper; defaults scale that down.

    ``vectorized=True`` with ``tuple_counts=(15_000_000, ..., 30_000_000)``
    reproduces the paper's axis given ~8 GB of RAM.
    """
    return _large_tuple_sweep(
        "Figure 12",
        tuple_counts,
        num_attributes,
        num_mappings,
        vectorized=vectorized,
        timeout=timeout,
        seed=seed,
        verbose=verbose,
        notes="(paper: the same linear scaling holds from 15M to 30M tuples)",
    )


def table3(verbose: bool = True) -> bool:
    """Table III: the six semantics of query Q1 on the Table I instance."""
    from repro.core.engine import AggregationEngine
    from repro.data import realestate

    engine = AggregationEngine(
        [realestate.paper_instance()],
        realestate.paper_pmapping(),
        allow_exponential=True,
    )
    answers = engine.answer_six(realestate.Q1)
    if verbose:
        print()
        print("Table III — the six semantics of COUNT query Q1")
        for (mapping_sem, aggregate_sem), answer in answers.items():
            print(f"  {mapping_sem.value:>9} / {aggregate_sem.value:<15} {answer!r}")
        print(
            "(paper's by-tuple row: [1, 3]; 1@0.16, 2@0.48, 3@0.36; 2.2 — "
            "reproduced exactly.  The paper's by-table row is inconsistent "
            "with its own Table I; see EXPERIMENTS.md)"
        )
    by_tuple_range = answers[(MappingSemantics.BY_TUPLE, AggregateSemantics.RANGE)]
    by_tuple_expected = answers[
        (MappingSemantics.BY_TUPLE, AggregateSemantics.EXPECTED_VALUE)
    ]
    return (
        by_tuple_range.as_tuple() == (1, 3)
        and abs(by_tuple_expected.value - 2.2) < 1e-9
    )


def ablation_vectorized(
    *,
    num_tuples: int = 200000,
    num_attributes: int = 20,
    num_mappings: int = 10,
    seed: int = 0,
    verbose: bool = True,
) -> bool:
    """Ablation: scalar versus vectorized PTIME range algorithms.

    Quantifies the speedup of :mod:`repro.core.vectorized` (this library's
    optimization — the paper's future work names "optimizing some of our
    algorithms, including the by-tuple/range semantics of COUNT and SUM").
    """
    from repro.bench.runner import time_once
    from repro.bench.algorithms import get_algorithm

    workload = synthetic.generate_workload(
        num_tuples, num_attributes, num_mappings, seed=seed
    )
    scalar_context = BenchContext(
        workload.table, workload.pmapping, workload.queries, use_vectorized=False
    )
    vector_context = BenchContext(
        workload.table, workload.pmapping, workload.queries, use_vectorized=True
    )
    ok = True
    if verbose:
        print()
        print(
            f"Ablation — scalar vs vectorized ({num_tuples} tuples, "
            f"{num_mappings} mappings)"
        )
    for name in ("ByTupleRangeCOUNT", "ByTupleRangeSUM", "ByTupleRangeAVG",
                 "ByTupleRangeMAX"):
        runner = get_algorithm(name)
        scalar_time = time_once(lambda: runner(scalar_context))
        vector_time = time_once(lambda: runner(vector_context))
        speedup = scalar_time / max(vector_time, 1e-9)
        ok = ok and speedup > 3.0
        if verbose:
            print(
                f"  {name:<22} scalar {scalar_time:8.4f}s   "
                f"vectorized {vector_time:8.4f}s   speedup x{speedup:,.0f}"
            )
    scalar_context.close()
    vector_context.close()
    return ok


def ablation_expected_count(
    *,
    tuple_counts: tuple[int, ...] = (500, 1000, 2000, 4000),
    num_attributes: int = 20,
    num_mappings: int = 10,
    seed: int = 0,
    verbose: bool = True,
) -> bool:
    """Ablation: ByTupleExpValCOUNT via the DP versus linearity of expectation.

    The paper computes the expected COUNT from the full Figure 3
    distribution (O(m n^2)); linearity of expectation gives the same number
    in O(m n).  Both values must agree; the timings separate quadratically.
    """
    from repro.bench.runner import time_once
    from repro.core.bytuple_count import (
        dp_expected_count_kernel,
        expected_count_kernel,
    )
    from repro.core.common import run_possibly_grouped
    from repro.sql.parser import parse_query

    ok = True
    if verbose:
        print()
        print("Ablation — expected COUNT: distribution DP vs linear form")
    for num_tuples in tuple_counts:
        workload = synthetic.generate_workload(
            num_tuples, num_attributes, num_mappings, seed=seed
        )
        query = parse_query(workload.query(AggregateOp.COUNT))
        dp_answer = None
        linear_answer = None

        def run_dp():
            nonlocal dp_answer
            dp_answer = run_possibly_grouped(
                workload.table, workload.pmapping, query, dp_expected_count_kernel
            )

        def run_linear():
            nonlocal linear_answer
            linear_answer = run_possibly_grouped(
                workload.table, workload.pmapping, query, expected_count_kernel
            )

        dp_time = time_once(run_dp)
        linear_time = time_once(run_linear)
        agree = abs(dp_answer.value - linear_answer.value) < 1e-6
        ok = ok and agree
        if verbose:
            print(
                f"  #tuples={num_tuples:>6}  DP {dp_time:8.4f}s  "
                f"linear {linear_time:8.4f}s  values agree: {agree}"
            )
    return ok


def ablation_avg_counter_method(
    *,
    trials: int = 200,
    seed: int = 0,
    verbose: bool = True,
) -> bool:
    """Ablation: the paper's AVG counter sketch versus the tight greedy.

    On random instances whose tuples all qualify under every mapping the
    two coincide; with partial qualification the counter method can return
    an interval missing achievable averages (DESIGN.md, invariant notes).
    This ablation measures how often and by how much.
    """
    from repro.core.bytuple_avg import range_avg_counter_kernel, range_avg_kernel
    from repro.core.common import run_possibly_grouped
    from repro.sql.parser import parse_query

    rng = random.Random(seed)
    diverged = 0
    max_gap = 0.0
    for trial in range(trials):
        workload = synthetic.generate_workload(
            rng.randint(2, 8), 6, rng.randint(2, 4), seed=trial
        )
        query = parse_query(workload.query(AggregateOp.AVG))
        tight = run_possibly_grouped(
            workload.table, workload.pmapping, query, range_avg_kernel
        )
        counter = run_possibly_grouped(
            workload.table, workload.pmapping, query, range_avg_counter_kernel
        )
        if not tight.is_defined:
            continue
        gap = max(
            abs((tight.low or 0) - (counter.low or 0)),
            abs((tight.high or 0) - (counter.high or 0)),
        )
        if gap > 1e-9:
            diverged += 1
            max_gap = max(max_gap, gap)
        # The tight interval always covers at least as much as achievable;
        # the counter interval must lie inside-or-equal on forced-only
        # instances (gap 0), and may be narrower otherwise.
    if verbose:
        print()
        print(
            f"Ablation — AVG counter method diverged on {diverged}/{trials} "
            f"random instances (max bound gap {max_gap:.4f})"
        )
    return True
