"""Execution guardrails: budgets, deadlines, and cooperative checks.

Nothing in the paper bounds a query's cost: the exponential cells of
Figure 6 (e.g. by-tuple SUM under the distribution semantics) enumerate
``m^n`` mapping sequences and run until they finish or exhaust memory.
This module makes the cost *enforceable*: a :class:`Budget` declares
limits (wall-clock deadline, scanned rows, enumerated worlds,
distribution-support size), an :class:`ExecutionGuard` carries the live
counters, and the hot loops of the execution lanes call the guard's
cheap cooperative checks — raising
:class:`~repro.exceptions.QueryTimeoutError` or
:class:`~repro.exceptions.BudgetExceededError` with a structured
partial-progress snapshot when a limit trips.

The active guard travels in a :class:`contextvars.ContextVar`, so lanes
and kernels read it with :func:`current_guard` without any signature
changes; :func:`activate` installs one for the duration of a plan
execution.  :func:`sharing` opens the wider scope of one ``answer_six``
request, whose cells compute their :func:`shared` nodes once.

Checks are stride-based where the loop body is cheap: ``add_rows``
accumulates locally and consults the clock only every
:data:`CHECK_STRIDE` rows, keeping the no-guard and guarded fast paths
within noise of each other.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar

from repro.exceptions import BudgetExceededError, QueryTimeoutError
from repro.obs import metrics

#: How many cheap units (rows, samples) between deadline checks.
CHECK_STRIDE = 256


class Budget:
    """Declarative execution limits; ``None`` means unlimited.

    Parameters
    ----------
    timeout_ms:
        Wall-clock deadline for one plan execution, in milliseconds.
    max_rows:
        Cap on source rows scanned (per execution, across lanes).
    max_worlds:
        Cap on enumerated/sampled possible worlds — the naive lane's
        mapping sequences and the sampling lane's draws both count.
    max_support:
        Cap on the support size of any intermediate or final discrete
        distribution (the COUNT DP's width, nested convolutions).
    """

    __slots__ = ("timeout_ms", "max_rows", "max_worlds", "max_support")

    def __init__(
        self,
        *,
        timeout_ms: float | None = None,
        max_rows: int | None = None,
        max_worlds: int | None = None,
        max_support: int | None = None,
    ) -> None:
        for name, value in (
            ("timeout_ms", timeout_ms),
            ("max_rows", max_rows),
            ("max_worlds", max_worlds),
            ("max_support", max_support),
        ):
            if value is not None and not value >= 0:  # rejects NaN too
                raise ValueError(f"{name} must be >= 0, got {value!r}")
        self.timeout_ms = timeout_ms
        self.max_rows = max_rows
        self.max_worlds = max_worlds
        self.max_support = max_support

    @property
    def unlimited(self) -> bool:
        """True when no dimension is bounded (no guard needed)."""
        return (
            self.timeout_ms is None
            and self.max_rows is None
            and self.max_worlds is None
            and self.max_support is None
        )

    def without_deadline(self) -> "Budget":
        """This budget minus the wall-clock deadline (degraded reruns)."""
        return Budget(
            max_rows=self.max_rows,
            max_worlds=self.max_worlds,
            max_support=self.max_support,
        )

    def tightened(
        self,
        *,
        timeout_ms: float | None = None,
        max_rows: int | None = None,
        max_worlds: int | None = None,
        max_support: int | None = None,
    ) -> "Budget":
        """A budget no looser than this one on any dimension.

        Each given limit is combined with the existing one by ``min``;
        omitted limits keep their current values.  The serving tier uses
        this to ride a per-request deadline on top of a tenant's standing
        resource budget without ever *loosening* the tenant policy.
        """

        def merge(mine, theirs):
            if mine is None:
                return theirs
            if theirs is None:
                return mine
            return min(mine, theirs)

        return Budget(
            timeout_ms=merge(self.timeout_ms, timeout_ms),
            max_rows=merge(self.max_rows, max_rows),
            max_worlds=merge(self.max_worlds, max_worlds),
            max_support=merge(self.max_support, max_support),
        )

    def to_dict(self) -> dict:
        """A JSON-ready description (``None`` entries omitted)."""
        out = {}
        for name in self.__slots__:
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out

    def __repr__(self) -> str:
        parts = ", ".join(f"{k}={v}" for k, v in self.to_dict().items())
        return f"Budget({parts or 'unlimited'})"


def combine(*budgets: "Budget | None") -> "Budget | None":
    """The tightest budget across ``budgets`` (``None`` entries ignored).

    Each dimension takes the minimum of the defined values; a dimension
    no budget bounds stays unlimited.  Returns ``None`` when every input
    is ``None`` or unlimited — callers can pass the result straight to
    :func:`guarded` / ``plan.answer(budget=...)``.
    """
    merged: Budget | None = None
    for budget in budgets:
        if budget is None or budget.unlimited:
            continue
        if merged is None:
            merged = Budget(
                timeout_ms=budget.timeout_ms,
                max_rows=budget.max_rows,
                max_worlds=budget.max_worlds,
                max_support=budget.max_support,
            )
        else:
            merged = merged.tightened(
                timeout_ms=budget.timeout_ms,
                max_rows=budget.max_rows,
                max_worlds=budget.max_worlds,
                max_support=budget.max_support,
            )
    return merged


class Deadline:
    """An absolute wall-clock deadline on the monotonic clock."""

    __slots__ = ("timeout_ms", "started", "expires_at")

    def __init__(self, timeout_ms: float, *, clock=time.monotonic) -> None:
        self.timeout_ms = timeout_ms
        self.started = clock()
        self.expires_at = self.started + timeout_ms / 1000.0

    def elapsed_ms(self, *, clock=time.monotonic) -> float:
        """Milliseconds since the deadline was armed."""
        return (clock() - self.started) * 1000.0

    def expired(self, *, clock=time.monotonic) -> bool:
        """True once the wall clock has passed the deadline."""
        return clock() >= self.expires_at


class ExecutionGuard:
    """Live counters for one plan execution, checked cooperatively.

    The hot loops call :meth:`add_rows` / :meth:`add_worlds` /
    :meth:`note_support` as they work; each call updates the counters,
    compares them against the budget, and (stride-throttled) checks the
    deadline.  A tripped limit raises the matching typed error carrying
    :meth:`progress`.
    """

    __slots__ = (
        "budget",
        "deadline",
        "rows",
        "worlds",
        "max_support_seen",
        "_countdown",
    )

    def __init__(self, budget: Budget) -> None:
        self.budget = budget
        self.deadline = (
            Deadline(budget.timeout_ms) if budget.timeout_ms is not None else None
        )
        self.rows = 0
        self.worlds = 0
        self.max_support_seen = 0
        self._countdown = CHECK_STRIDE

    # -- progress ----------------------------------------------------------

    def progress(self) -> dict:
        """A structured snapshot of how far execution got."""
        out = {
            "rows": self.rows,
            "worlds": self.worlds,
            "max_support": self.max_support_seen,
        }
        if self.deadline is not None:
            out["elapsed_ms"] = self.deadline.elapsed_ms()
            out["timeout_ms"] = self.deadline.timeout_ms
        return out

    # -- checks ------------------------------------------------------------

    def _timeout(self) -> QueryTimeoutError:
        metrics.inc("guard.timeout")
        deadline = self.deadline
        return QueryTimeoutError(
            f"query exceeded its {deadline.timeout_ms:g} ms deadline "
            f"({deadline.elapsed_ms():.1f} ms elapsed)",
            timeout_ms=deadline.timeout_ms,
            elapsed_ms=deadline.elapsed_ms(),
            progress=self.progress(),
        )

    def _exceeded(self, resource: str, limit: int, used: int) -> BudgetExceededError:
        metrics.inc(f"guard.budget.{resource}")
        return BudgetExceededError(
            f"query exceeded its {resource} budget ({used} > {limit})",
            resource=resource,
            limit=limit,
            used=used,
            progress=self.progress(),
        )

    def check_deadline(self) -> None:
        """Raise :class:`QueryTimeoutError` once the deadline has passed."""
        if self.deadline is not None and self.deadline.expired():
            raise self._timeout()

    def add_rows(self, n: int = 1) -> None:
        """Count ``n`` scanned rows; stride-throttled deadline check."""
        self.rows += n
        limit = self.budget.max_rows
        if limit is not None and self.rows > limit:
            raise self._exceeded("rows", limit, self.rows)
        self._countdown -= n
        if self._countdown <= 0:
            self._countdown = CHECK_STRIDE
            self.check_deadline()

    def add_worlds(self, n: int = 1) -> None:
        """Count ``n`` enumerated/sampled worlds; checks the deadline.

        Worlds are orders of magnitude more expensive than rows (each is
        a query evaluation), so the deadline check is per call, not
        stride-throttled.
        """
        self.worlds += n
        limit = self.budget.max_worlds
        if limit is not None and self.worlds > limit:
            raise self._exceeded("worlds", limit, self.worlds)
        self.check_deadline()

    def note_support(self, size: int) -> None:
        """Record an intermediate distribution-support size."""
        if size > self.max_support_seen:
            self.max_support_seen = size
        limit = self.budget.max_support
        if limit is not None and size > limit:
            raise self._exceeded("support", limit, size)


#: The guard of the plan execution running on this thread/context.
_current: ContextVar[ExecutionGuard | None] = ContextVar(
    "repro_execution_guard", default=None
)


def current_guard() -> ExecutionGuard | None:
    """The active guard, or ``None`` when execution is unbounded."""
    return _current.get()


@contextmanager
def activate(guard: ExecutionGuard):
    """Install ``guard`` as the current guard for the ``with`` body."""
    token = _current.set(guard)
    try:
        yield guard
    finally:
        _current.reset(token)


@contextmanager
def guarded(budget: Budget | None):
    """Activate a fresh guard for ``budget`` (no-op for ``None``/unlimited)."""
    if budget is None or budget.unlimited:
        yield None
        return
    guard = ExecutionGuard(budget)
    token = _current.set(guard)
    try:
        yield guard
    finally:
        _current.reset(token)


#: The memo of one ``answer_six`` request, whose cells share nodes (see
#: :func:`shared`); ``None`` outside one, where nothing is cached.
_shared: ContextVar[dict | None] = ContextVar("repro_shared_nodes", default=None)


@contextmanager
def sharing():
    """Let the cells answered in the ``with`` body share :func:`shared` nodes.

    Keys may hold ``id()`` of objects that outlive the scope (the prepared
    query's compiled state), so an identity is never reused inside it.
    """
    token = _shared.set({})
    try:
        yield
    finally:
        _shared.reset(token)


def shared(key: tuple, compute, *, worlds: int = 0):
    """``compute()``, run at most once per ``key`` inside :func:`sharing`.

    A hit skips the work but not its accounting: the active guard is
    charged the ``worlds`` that ``compute`` drew, one at a time, and its
    deadline checked, so a budget trips exactly where recomputing would
    have tripped.  A ``compute`` that raises leaves nothing behind.
    """
    memo = _shared.get()
    if memo is None:
        return compute()
    if key not in memo:
        memo[key] = compute()
        return memo[key]
    guard = _current.get()
    if guard is not None:
        for _ in range(worlds):
            guard.add_worlds(1)
        guard.check_deadline()
    metrics.inc("six.shared.hit")
    return memo[key]
