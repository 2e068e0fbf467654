"""The array kernels' per-thread workspace.

The by-tuple PTIME kernels write their row-sized temporaries into buffers
each thread reuses (:func:`repro.core.vectorized._slot`).  Threads must
not see each other's buffers, and once the buffers have grown, answering
a query allocates little beyond the query's own participation masks.
"""

from __future__ import annotations

import sys
import threading
import tracemalloc

import pytest

from repro import AggregationEngine
from repro.core import vectorized
from repro.data import synthetic
from repro.serve.registry import SERVING_ENGINE_DEFAULTS

CELLS = [
    ("COUNT(*)", "range"),
    ("COUNT(*)", "expected-value"),
    ("SUM(value)", "range"),
    ("SUM(value)", "expected-value"),
    ("AVG(value)", "range"),
    ("MIN(value)", "range"),
    ("MAX(value)", "range"),
]


def _engine(rows: int) -> AggregationEngine:
    source = synthetic.source_relation(8)
    table = synthetic.generate_source_table(rows, 8, seed=1, relation=source)
    pmapping = synthetic.generate_pmapping(
        source, 5, seed=2, target=synthetic.mediated_relation("T")
    )
    return AggregationEngine([table], pmapping, **SERVING_ENGINE_DEFAULTS)


def _text(aggregate: str, threshold: float) -> str:
    return f"SELECT {aggregate} FROM T WHERE value < {threshold}"


def test_slot_views_grow_and_keep_their_dtype():
    small = vectorized._slot("test-slot", 3, bool)
    assert small.shape == (3,) and small.dtype == bool
    grown = vectorized._slot("test-slot", 10)
    assert grown.shape == (10,) and grown.dtype.name == "float64"
    again = vectorized._slot("test-slot", 4, "int64")
    assert again.shape == (4,) and again.base is grown.base


def test_threads_get_their_own_workspace():
    buffers = {}

    def take(name):
        buffers[name] = vectorized._slot("test-thread", 8)

    threads = [threading.Thread(target=take, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert buffers[0].base is not buffers[1].base


def test_concurrent_answers_equal_sequential_answers():
    """Threads answering different cells at once on one engine (more
    threads than this host's cores, switching often) get the sequential
    answers: no thread sees another's workspace."""
    engine = _engine(20_000)
    plans = {
        0: [(CELLS[(0, 2)[i % 2]], 100.0 + 7.25 * i) for i in range(50)],
        1: [(CELLS[(1, 3)[i % 2]], 90.0 + 9.5 * i) for i in range(50)],
        2: [(CELLS[(4, 5, 6)[i % 3]], 80.0 + 8.75 * i) for i in range(50)],
    }
    expected = {
        worker: [
            engine.answer(_text(aggregate, threshold), "by-tuple", semantics)
            for (aggregate, semantics), threshold in plan
        ]
        for worker, plan in plans.items()
    }
    engine.invalidate()  # every text is new again: each answer builds its problem
    barrier = threading.Barrier(len(plans))
    got: dict[int, list] = {}
    errors: list[Exception] = []

    def work(worker: int) -> None:
        try:
            barrier.wait(timeout=30)
            got[worker] = [
                engine.answer(_text(aggregate, threshold), "by-tuple", semantics)
                for (aggregate, semantics), threshold in plans[worker]
            ]
        except Exception as error:  # surfaced below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(w,)) for w in plans]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    for worker in plans:
        assert got[worker] == expected[worker]


@pytest.fixture(scope="module")
def warm_engine():
    engine = _engine(100_000)
    for aggregate, semantics in CELLS:
        engine.answer(_text(aggregate, 500.0), "by-tuple", semantics)
    return engine


@pytest.mark.parametrize("aggregate, semantics", CELLS)
def test_warm_answer_allocates_little(warm_engine, aggregate, semantics):
    """Beyond its five 100 KB participation masks, an answer's temporaries
    come from the workspace: its traced peak stays within 2 MiB, where
    fresh row-sized temporaries took up to 7 MiB."""
    text = _text(aggregate, 612.5)
    tracemalloc.start()
    try:
        warm_engine.answer(text, "by-tuple", semantics)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20
