"""Fault injection: the failpoint harness and the chaos invariant.

The invariant under test, everywhere: **every answer is either identical
to the sequential scalar lane's answer or a typed
:class:`~repro.exceptions.ReproError` — never silently wrong.**  The
chaos matrix arms every registered failpoint with both a ``raise`` and a
``corrupt`` action and sweeps every PTIME cell of the paper's Figure 6
matrix through an engine whose vectorized lane is active.
"""

from __future__ import annotations

import pytest

from repro import AggregationEngine, ReproError, StorageError
from repro.data import synthetic
from repro.exceptions import EvaluationError
from repro.storage import sqlite_backend
from repro.testing import faults

QUERIES = {
    "COUNT": "SELECT COUNT(*) FROM MED WHERE value < 500",
    "SUM": "SELECT SUM(value) FROM MED WHERE value < 500",
    "AVG": "SELECT AVG(value) FROM MED WHERE value < 500",
    "MIN": "SELECT MIN(value) FROM MED WHERE value < 500",
    "MAX": "SELECT MAX(value) FROM MED WHERE value < 500",
}

#: Every PTIME cell of Figure 6 (op, mapping semantics, aggregate
#: semantics); the remaining by-tuple cells are exponential and live
#: behind allow_exponential/allow_sampling, outside this matrix.
PTIME_CELLS = [
    (op, "by-table", asem)
    for op in QUERIES
    for asem in ("range", "distribution", "expected-value")
] + [
    ("COUNT", "by-tuple", "range"),
    ("COUNT", "by-tuple", "distribution"),
    ("COUNT", "by-tuple", "expected-value"),
    ("SUM", "by-tuple", "range"),
    ("SUM", "by-tuple", "expected-value"),
    ("AVG", "by-tuple", "range"),
    ("MIN", "by-tuple", "range"),
    ("MAX", "by-tuple", "range"),
]

#: Per-failpoint chaos actions: a hard failure and a corruption.  The
#: sqlite seam injects the transient lock error its retry loop handles.
ACTIONS = {name: ("raise:OSError", "corrupt") for name in faults.FAILPOINTS}
ACTIONS["sqlite.cursor"] = ("raise:OperationalError", "corrupt")


@pytest.fixture(autouse=True)
def _clean_failpoints():
    faults.reset()
    yield
    faults.reset()


def problem(num_tuples: int = 16, num_mappings: int = 3):
    table = synthetic.generate_source_table(num_tuples, num_mappings, seed=11)
    pmapping = synthetic.generate_pmapping(
        table.relation, num_mappings, seed=11
    )
    return table, pmapping


def chaos_engine(**kwargs) -> AggregationEngine:
    """An engine with the vectorized lane active on a 16-row instance."""
    table, pmapping = problem()
    kwargs.setdefault("vectorize", True)
    return AggregationEngine([table], pmapping, **kwargs)


def answers_equal(a, b) -> bool:
    if hasattr(a, "approx_equal"):
        return type(a) is type(b) and a.approx_equal(b)
    return a == b


@pytest.fixture(scope="module")
def baselines():
    """Scalar-lane ground truth for every PTIME cell (no vectorized lane).

    Keyed by backend: SQLite accumulates SUM in its own order, so its
    float results are its own ground truth, not the memory backend's.
    """
    cache: dict[str, dict] = {}

    def get(backend: str = "memory") -> dict:
        if backend not in cache:
            table, pmapping = problem()
            engine = AggregationEngine(
                [table], pmapping, backend=backend, vectorize=False
            )
            cache[backend] = {
                (op, msem, asem): engine.answer(QUERIES[op], msem, asem)
                for op, msem, asem in PTIME_CELLS
            }
        return cache[backend]

    return get


class TestActionGrammar:
    def test_unknown_failpoint_rejected(self):
        with pytest.raises(ValueError, match="unknown failpoint"):
            faults.parse_action("no.such.seam", "raise:OSError")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            faults.parse_action("execute.dispatch", "explode")

    def test_unknown_exception_rejected(self):
        with pytest.raises(ValueError, match="unknown exception"):
            faults.parse_action("execute.dispatch", "raise:KeyboardInterrupt")

    def test_nth_must_be_positive(self):
        with pytest.raises(ValueError, match="@nth"):
            faults.parse_action("execute.dispatch", "corrupt@0")

    def test_grammar_fields(self):
        spec = faults.parse_action("sqlite.cursor", "raise:OperationalError@3")
        assert (spec.kind, spec.argument, spec.nth) == (
            "raise", "OperationalError", 3
        )
        assert faults.parse_action("execute.dispatch", "delay").argument == "0.01"


class TestHarness:
    def test_unarmed_is_a_noop(self):
        assert faults.maybe_fire("execute.dispatch") is None
        assert faults.active() == {}

    def test_failpoint_arms_and_always_disarms(self):
        with pytest.raises(OSError, match="injected fault"):
            with faults.failpoint("execute.dispatch", "raise:OSError"):
                assert faults.active() == {"execute.dispatch": "raise"}
                faults.maybe_fire("execute.dispatch")
        assert faults.active() == {}

    def test_corrupt_returns_sentinel(self):
        with faults.failpoint("plan.cache.evict", "corrupt") as spec:
            assert faults.maybe_fire("plan.cache.evict") is faults.CORRUPT
            assert spec.fired == 1

    def test_nth_fires_on_exactly_the_nth_hit(self):
        with faults.failpoint("plan.cache.evict", "corrupt@2") as spec:
            assert faults.maybe_fire("plan.cache.evict") is None
            assert faults.maybe_fire("plan.cache.evict") is faults.CORRUPT
            assert faults.maybe_fire("plan.cache.evict") is None
            assert (spec.hits, spec.fired) == (3, 1)

    def test_env_var_arms_failpoints(self, monkeypatch):
        monkeypatch.setenv(
            faults.ENV_VAR, "execute.dispatch=raise:EvaluationError@1"
        )
        faults.reload_env()
        with pytest.raises(EvaluationError):
            faults.maybe_fire("execute.dispatch")
        assert faults.maybe_fire("execute.dispatch") is None

    def test_bad_env_entry_rejected(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "just-a-name")
        with pytest.raises(ValueError, match="expected name=action"):
            faults.reload_env()


class TestSqliteRetry:
    @staticmethod
    def backend():
        table, _ = problem(num_tuples=4)
        backend = sqlite_backend.SQLiteBackend()
        backend.materialize(table)
        return backend

    def test_transient_lock_is_retried(self):
        backend = self.backend()
        before = backend.query("SELECT COUNT(*) FROM SRC")
        with faults.failpoint("sqlite.cursor", "raise:OperationalError@1"):
            rows = backend.query("SELECT COUNT(*) FROM SRC")
        assert rows == before

    def test_lock_that_never_clears_exhausts_retries(self):
        backend = self.backend()
        with faults.failpoint("sqlite.cursor", "raise:OperationalError"):
            with pytest.raises(StorageError, match="stayed locked") as info:
                backend.query("SELECT COUNT(*) FROM SRC")
        assert info.value.__cause__ is not None

    def test_non_transient_error_fails_immediately(self):
        backend = self.backend()
        with pytest.raises(StorageError, match="rejected query"):
            backend.query("SELECT nope FROM SRC")

    def test_retry_delay_is_capped_exponential(self):
        delay = sqlite_backend._retry_delay
        assert delay(0, rng=lambda: 1.0) == sqlite_backend.RETRY_BASE_DELAY
        assert delay(10, rng=lambda: 1.0) == sqlite_backend.RETRY_MAX_DELAY
        assert delay(2, rng=lambda: 0.0) == 0.0  # full jitter reaches zero

    def test_is_transient_classification(self):
        import sqlite3

        assert sqlite_backend._is_transient(
            sqlite3.OperationalError("database is locked")
        )
        assert sqlite_backend._is_transient(
            sqlite3.OperationalError("database table is busy")
        )
        assert not sqlite_backend._is_transient(
            sqlite3.OperationalError("no such table: X")
        )
        assert not sqlite_backend._is_transient(
            sqlite3.DatabaseError("database is locked")
        )


class TestChaosMatrix:
    @pytest.mark.parametrize("name", faults.FAILPOINTS)
    @pytest.mark.parametrize("variant", [0, 1], ids=["hard-failure", "corrupt"])
    def test_typed_error_or_scalar_identical_answer(
        self, name, variant, baselines
    ):
        action = ACTIONS[name][variant]
        backend = "sqlite" if name == "sqlite.cursor" else "memory"
        expected = baselines(backend)  # built before the fault is armed
        engine = chaos_engine(backend=backend)
        with faults.failpoint(name, action):
            for cell in PTIME_CELLS:
                op, msem, asem = cell
                try:
                    answer = engine.answer(QUERIES[op], msem, asem)
                except ReproError:
                    continue  # a typed failure honours the invariant
                assert answers_equal(answer, expected[cell]), (
                    f"silently wrong answer in {cell} under "
                    f"{name}={action}: {answer!r} != {expected[cell]!r}"
                )

    def test_cache_eviction_faults_never_change_answers(self, baselines):
        # Evictions only happen under cache pressure; shrink the caches so
        # every cell churns them, then corrupt the eviction path.
        engine = chaos_engine()
        engine.context.cache_size = 1
        with faults.failpoint("plan.cache.evict", "corrupt"):
            for op, msem, asem in PTIME_CELLS:
                answer = engine.answer(QUERIES[op], msem, asem)
                assert answers_equal(answer, baselines()[(op, msem, asem)])

    def test_delay_faults_only_slow_execution_down(self, baselines):
        engine = chaos_engine()
        cell = ("SUM", "by-tuple", "range")
        with faults.failpoint("execute.dispatch", "delay:0.001"):
            answer = engine.answer(QUERIES["SUM"], "by-tuple", "range")
        assert answers_equal(answer, baselines()[cell])
