"""Unit tests for the answer types (:mod:`repro.core.answers`)."""

from __future__ import annotations

import datetime

import pytest

from repro.core.answers import (
    DistributionAnswer,
    ExpectedValueAnswer,
    GroupedAnswer,
    RangeAnswer,
)
from repro.exceptions import EvaluationError
from repro.prob.distribution import DiscreteDistribution


class TestRangeAnswer:
    def test_contains(self):
        r = RangeAnswer(1, 3)
        assert r.contains(1) and r.contains(3) and r.contains(2)
        assert not r.contains(0.5)

    def test_covers(self):
        assert RangeAnswer(0, 10).covers(RangeAnswer(1, 3))
        assert not RangeAnswer(1, 3).covers(RangeAnswer(0, 10))
        assert RangeAnswer(1, 3).covers(RangeAnswer(1, 3))

    def test_covers_undefined(self):
        assert RangeAnswer(1, 3).covers(RangeAnswer(None, None))
        assert not RangeAnswer(None, None).covers(RangeAnswer(1, 3))

    def test_width(self):
        assert RangeAnswer(1, 3).width() == 2
        assert RangeAnswer(None, None).width() == 0.0

    def test_point_range(self):
        r = RangeAnswer(5, 5)
        assert r.width() == 0
        assert r.contains(5)

    def test_invalid_bounds(self):
        with pytest.raises(EvaluationError, match="exceeds"):
            RangeAnswer(3, 1)

    def test_half_defined_rejected(self):
        with pytest.raises(EvaluationError, match="both"):
            RangeAnswer(1, None)

    def test_undefined_flags(self):
        undefined = RangeAnswer(None, None)
        assert not undefined.is_defined
        assert not undefined.contains(0)

    def test_as_tuple_and_repr(self):
        assert RangeAnswer(1, 2).as_tuple() == (1, 2)
        assert "undefined" in repr(RangeAnswer(None, None))
        assert "[1, 2]" in repr(RangeAnswer(1, 2))

    def test_equality_and_hash(self):
        assert RangeAnswer(1, 2) == RangeAnswer(1, 2)
        assert len({RangeAnswer(1, 2), RangeAnswer(1, 2)}) == 1


class TestDistributionAnswer:
    def test_projections(self):
        answer = DistributionAnswer(DiscreteDistribution({1: 0.4, 3: 0.6}))
        assert answer.to_range() == RangeAnswer(1, 3)
        assert answer.to_expected_value().value == pytest.approx(2.2)

    def test_undefined(self):
        answer = DistributionAnswer(None, undefined_probability=1.0)
        assert not answer.is_defined
        assert answer.to_range() == RangeAnswer(None, None)
        assert not answer.to_expected_value().is_defined
        assert answer.probability_of(1) == 0.0

    def test_partial_undefined_mass(self):
        answer = DistributionAnswer(
            DiscreteDistribution({5: 1.0}), undefined_probability=0.25
        )
        assert answer.probability_of(5) == pytest.approx(0.75)

    def test_requires_distribution_unless_fully_undefined(self):
        with pytest.raises(EvaluationError, match="required"):
            DistributionAnswer(None, undefined_probability=0.5)

    def test_rejects_bad_mass(self):
        with pytest.raises(EvaluationError):
            DistributionAnswer(DiscreteDistribution({1: 1.0}),
                               undefined_probability=1.5)

    def test_approx_equal(self):
        a = DistributionAnswer(DiscreteDistribution({1: 0.5, 2: 0.5}))
        b = DistributionAnswer(DiscreteDistribution({1: 0.5, 2: 0.5}))
        c = DistributionAnswer(DiscreteDistribution({1: 1.0}))
        assert a.approx_equal(b)
        assert not a.approx_equal(c)

    def test_approx_equal_checks_undefined_mass(self):
        a = DistributionAnswer(DiscreteDistribution({1: 1.0}),
                               undefined_probability=0.1)
        b = DistributionAnswer(DiscreteDistribution({1: 1.0}),
                               undefined_probability=0.2)
        assert not a.approx_equal(b)

    def test_repr_mentions_undefined(self):
        answer = DistributionAnswer(
            DiscreteDistribution({1: 1.0}), undefined_probability=0.5
        )
        assert "undefined" in repr(answer)

    def test_repr_formats_date_and_text_outcomes(self):
        dates = DistributionAnswer(
            DiscreteDistribution(
                {datetime.date(2008, 1, 30): 0.6, datetime.date(2008, 2, 15): 0.4}
            )
        )
        assert repr(dates) == "DistributionAnswer(2008-01-30: 0.6, 2008-02-15: 0.4)"
        text = DistributionAnswer(DiscreteDistribution({"215": 1.0}))
        assert repr(text) == "DistributionAnswer(215: 1)"


class TestExpectedValueAnswer:
    def test_defined(self):
        answer = ExpectedValueAnswer(2.5)
        assert answer.is_defined
        assert answer.approx_equal(ExpectedValueAnswer(2.5 + 1e-12))

    def test_undefined(self):
        answer = ExpectedValueAnswer(None)
        assert not answer.is_defined
        assert answer.approx_equal(ExpectedValueAnswer(None))
        assert not answer.approx_equal(ExpectedValueAnswer(1.0))

    def test_equality_and_hash(self):
        assert ExpectedValueAnswer(1.0) == ExpectedValueAnswer(1.0)
        assert len({ExpectedValueAnswer(1.0), ExpectedValueAnswer(1.0)}) == 1


class TestGroupedAnswer:
    def test_mapping_protocol(self):
        grouped = GroupedAnswer({34: RangeAnswer(1, 2), 38: RangeAnswer(3, 4)})
        assert grouped[34] == RangeAnswer(1, 2)
        assert 38 in grouped
        assert len(grouped) == 2
        assert dict(grouped)[38] == RangeAnswer(3, 4)

    def test_equality(self):
        a = GroupedAnswer({1: ExpectedValueAnswer(2.0)})
        b = GroupedAnswer({1: ExpectedValueAnswer(2.0)})
        assert a == b

    def test_repr(self):
        assert "34" in repr(GroupedAnswer({34: RangeAnswer(1, 2)}))
