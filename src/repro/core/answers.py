"""Answer types for the three aggregate semantics.

* :class:`RangeAnswer` — an interval ``[low, high]`` (range semantics);
* :class:`DistributionAnswer` — a finite distribution over possible values
  (distribution semantics);
* :class:`ExpectedValueAnswer` — a single expected value;
* :class:`GroupedAnswer` — a per-group map of any of the above, produced by
  GROUP BY queries.

A :class:`DistributionAnswer` can be *projected* onto the other two
semantics (paper Section III-B: "the answer according to the distribution
semantics is rich, containing details that are eliminated in the other
two"); :func:`project` does so for every lane that computes a
distribution first.

Aggregates over zero qualifying tuples are undefined for SUM/AVG/MIN/MAX
(SQL returns NULL); answers carry that as ``None`` bounds / an ``undefined``
flag so callers can distinguish "value 0" from "no value".
"""

from __future__ import annotations

import math

from repro.core.semantics import AggregateSemantics
from repro.exceptions import EvaluationError
from repro.prob.distribution import DiscreteDistribution


class AggregateAnswer:
    """Base class for aggregate answers (see module docstring)."""

    __slots__ = ()


class RangeAnswer(AggregateAnswer):
    """An interval guaranteed to contain the aggregate (range semantics).

    ``low is None`` (and then also ``high is None``) means the aggregate is
    undefined in every possible world — e.g. MAX over a selection no tuple
    can ever satisfy.

    Examples
    --------
    >>> RangeAnswer(1, 3).contains(2)
    True
    >>> RangeAnswer(1, 3).width()
    2
    """

    __slots__ = ("low", "high")

    def __init__(self, low: float | None, high: float | None) -> None:
        if (low is None) != (high is None):
            raise EvaluationError(
                "range bounds must both be defined or both undefined"
            )
        if low is not None and high is not None and low > high:
            raise EvaluationError(f"range lower bound {low} exceeds upper {high}")
        self.low = low
        self.high = high

    @property
    def is_defined(self) -> bool:
        """False when the aggregate is undefined in all possible worlds."""
        return self.low is not None

    def contains(self, value: float) -> bool:
        """True when ``value`` lies inside the interval."""
        if self.low is None:
            return False
        return self.low <= value <= self.high

    def covers(self, other: "RangeAnswer") -> bool:
        """True when this interval contains ``other`` entirely."""
        if not other.is_defined:
            return True
        if not self.is_defined:
            return False
        return self.low <= other.low and other.high <= self.high

    def width(self) -> float:
        """``high - low`` (zero for a point answer)."""
        if self.low is None:
            return 0.0
        return self.high - self.low

    def as_tuple(self) -> tuple[float | None, float | None]:
        """The bounds as a ``(low, high)`` pair."""
        return (self.low, self.high)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RangeAnswer):
            return NotImplemented
        return self.low == other.low and self.high == other.high

    def __hash__(self) -> int:
        return hash((self.low, self.high))

    def __repr__(self) -> str:
        if self.low is None:
            return "RangeAnswer(undefined)"
        return f"RangeAnswer([{self.low}, {self.high}])"


def _format_outcome(value) -> str:
    """Numbers in ``:g`` form; DATE and TEXT outcomes as ``str``."""
    if isinstance(value, (int, float)):
        return f"{value:g}"
    return str(value)


class DistributionAnswer(AggregateAnswer):
    """The full distribution of the aggregate (distribution semantics).

    ``undefined_probability`` is the probability mass of possible worlds in
    which the aggregate is undefined (no qualifying tuples for
    SUM/AVG/MIN/MAX).  The contained distribution is conditioned on the
    aggregate being defined; when ``undefined_probability`` is 1 the
    distribution is ``None``.
    """

    __slots__ = ("distribution", "undefined_probability")

    def __init__(
        self,
        distribution: DiscreteDistribution | None,
        undefined_probability: float = 0.0,
    ) -> None:
        if not 0.0 <= undefined_probability <= 1.0 + 1e-9:
            raise EvaluationError(
                f"undefined probability {undefined_probability} outside [0, 1]"
            )
        if distribution is None and undefined_probability < 1.0 - 1e-9:
            raise EvaluationError(
                "a distribution is required unless the aggregate is undefined "
                "with probability 1"
            )
        self.distribution = distribution
        self.undefined_probability = min(1.0, max(0.0, undefined_probability))

    @property
    def is_defined(self) -> bool:
        """False when the aggregate is undefined with probability 1."""
        return self.distribution is not None

    def to_range(self) -> RangeAnswer:
        """Project onto the range semantics (min/max of the support)."""
        if self.distribution is None:
            return RangeAnswer(None, None)
        return RangeAnswer(self.distribution.min(), self.distribution.max())

    def to_expected_value(self) -> "ExpectedValueAnswer":
        """Project onto the expected value semantics.

        The expectation is conditional on the aggregate being defined (the
        natural reading when some possible worlds are empty).
        """
        if self.distribution is None:
            return ExpectedValueAnswer(None)
        return ExpectedValueAnswer(self.distribution.expected_value())

    def probability_of(self, value: float) -> float:
        """P(aggregate = value), accounting for the undefined mass."""
        if self.distribution is None:
            return 0.0
        return self.distribution.probability_of(value) * (
            1.0 - self.undefined_probability
        )

    def approx_equal(
        self, other: "DistributionAnswer", tolerance: float = 1e-9
    ) -> bool:
        """Pointwise comparison of distributions and undefined mass."""
        if abs(self.undefined_probability - other.undefined_probability) > tolerance:
            return False
        if (self.distribution is None) != (other.distribution is None):
            return False
        if self.distribution is None:
            return True
        return self.distribution.approx_equal(other.distribution, tolerance)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DistributionAnswer):
            return NotImplemented
        return (
            self.distribution == other.distribution
            and self.undefined_probability == other.undefined_probability
        )

    def __repr__(self) -> str:
        if self.distribution is None:
            return "DistributionAnswer(undefined)"
        body = ", ".join(
            f"{_format_outcome(v)}: {p:.4g}"
            for v, p in self.distribution.items()
        )
        if self.undefined_probability > 0:
            body += f"; undefined: {self.undefined_probability:.4g}"
        return f"DistributionAnswer({body})"


class ExpectedValueAnswer(AggregateAnswer):
    """A single expected value (expected value semantics).

    ``value is None`` means the aggregate is undefined in every possible
    world.
    """

    __slots__ = ("value",)

    def __init__(self, value: float | None) -> None:
        self.value = value

    @property
    def is_defined(self) -> bool:
        """False when the aggregate is undefined in all possible worlds."""
        return self.value is not None

    def approx_equal(
        self, other: "ExpectedValueAnswer", tolerance: float = 1e-9
    ) -> bool:
        """Compare values within an absolute/relative tolerance."""
        if (self.value is None) != (other.value is None):
            return False
        if self.value is None:
            return True
        return math.isclose(
            self.value, other.value, rel_tol=tolerance, abs_tol=tolerance
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExpectedValueAnswer):
            return NotImplemented
        return self.value == other.value

    def __hash__(self) -> int:
        return hash(self.value)

    def __repr__(self) -> str:
        if self.value is None:
            return "ExpectedValueAnswer(undefined)"
        return f"ExpectedValueAnswer({self.value:g})"


class GroupedAnswer(AggregateAnswer):
    """Per-group answers for a GROUP BY aggregate query.

    Maps each group key (the value of the grouping attribute) to one of the
    scalar answer types above.  Iteration order is the order in which each
    key first appears in the source rows (a NULL key at its first NULL
    row), whichever body answered.
    """

    __slots__ = ("groups",)

    def __init__(self, groups: dict[object, AggregateAnswer]) -> None:
        self.groups = dict(groups)

    def __getitem__(self, key: object) -> AggregateAnswer:
        return self.groups[key]

    def __iter__(self):
        return iter(self.groups.items())

    def __len__(self) -> int:
        return len(self.groups)

    def __contains__(self, key: object) -> bool:
        return key in self.groups

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupedAnswer):
            return NotImplemented
        return self.groups == other.groups

    def __repr__(self) -> str:
        body = ", ".join(f"{k!r}: {v!r}" for k, v in self.groups.items())
        return f"GroupedAnswer({{{body}}})"


def project(answer: AggregateAnswer, semantics: AggregateSemantics) -> AggregateAnswer:
    """Project a distribution answer, or each group of one, onto ``semantics``."""
    if isinstance(answer, GroupedAnswer):
        return GroupedAnswer(
            {key: project(group, semantics) for key, group in answer}
        )
    if semantics is AggregateSemantics.DISTRIBUTION:
        return answer
    if semantics is AggregateSemantics.RANGE:
        return answer.to_range()
    if semantics is AggregateSemantics.EXPECTED_VALUE:
        return answer.to_expected_value()
    raise EvaluationError(f"unknown aggregate semantics {semantics!r}")


class BatchResult(list):
    """Per-query outcomes of a batch, in input order.

    A ``list`` subclass, so callers that index or iterate a batch answer
    keep working unchanged.  When the batch collects errors
    (``return_errors=True``), a failed query's entry is the typed
    :class:`~repro.exceptions.ReproError` it raised instead of an answer —
    one bad query never voids its siblings' work.
    """

    @property
    def errors(self) -> list[tuple[int, Exception]]:
        """``(index, error)`` for every failed query, in input order."""
        return [
            (index, entry)
            for index, entry in enumerate(self)
            if isinstance(entry, Exception)
        ]

    @property
    def answers(self) -> list[AggregateAnswer]:
        """The successful answers only (failed queries omitted)."""
        return [
            entry for entry in self if not isinstance(entry, Exception)
        ]

    @property
    def ok(self) -> bool:
        """True when every query in the batch succeeded."""
        return not any(isinstance(entry, Exception) for entry in self)

    def raise_first(self) -> "BatchResult":
        """Raise the first collected error, if any; else return ``self``."""
        for entry in self:
            if isinstance(entry, Exception):
                raise entry
        return self

    def __repr__(self) -> str:
        failed = len(self.errors)
        return (
            f"BatchResult({len(self)} queries, "
            f"{len(self) - failed} ok, {failed} failed)"
        )
