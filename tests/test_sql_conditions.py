"""Tests for WHERE-clause compilation (:mod:`repro.sql.conditions`)."""

from __future__ import annotations

import pytest

from repro.exceptions import EvaluationError
from repro.schema.model import Attribute, AttributeType, Relation
from repro.sql.conditions import compile_condition
from repro.sql.parser import parse_condition
from repro.storage.table import Row, Table

RELATION = Relation(
    "R",
    [
        Attribute("n", AttributeType.REAL),
        Attribute("k", AttributeType.INT),
        Attribute("s", AttributeType.TEXT),
        Attribute("d", AttributeType.DATE),
    ],
)


def row(n=1.0, k=1, s="abc", d="2008-01-15") -> Row:
    return Table(RELATION, [(n, k, s, d)]).row(0)


def holds(text: str, the_row: Row) -> bool:
    return compile_condition(parse_condition(text), RELATION)(the_row)


class TestComparisons:
    def test_numeric(self):
        assert holds("n < 2", row(n=1.5))
        assert not holds("n < 2", row(n=2.0))
        assert holds("n >= 2", row(n=2.0))
        assert holds("n <> 3", row(n=1.0))

    def test_int_column_float_literal(self):
        assert not holds("k = 1.5", row(k=1))
        assert holds("k < 1.5", row(k=1))

    def test_text_equality(self):
        assert holds("s = 'abc'", row(s="abc"))
        assert not holds("s = 'abd'", row(s="abc"))

    def test_date_against_unpadded_string(self):
        # The paper's Q1 style: '2008-1-20' must parse as a date.
        assert holds("d < '2008-1-20'", row(d="2008-01-15"))
        assert not holds("d < '2008-1-20'", row(d="2008-02-15"))

    def test_date_bad_literal(self):
        with pytest.raises(EvaluationError, match="date"):
            holds("d < 'tomorrow'", row())

    def test_numeric_column_string_literal_rejected(self):
        with pytest.raises(EvaluationError, match="string literal"):
            holds("n < 'high'", row())

    def test_column_to_column(self):
        assert holds("n <= k", row(n=1.0, k=2))

    def test_literal_to_literal(self):
        assert holds("1 < 2", row())
        assert not holds("2 < 1", row())

    def test_unknown_column(self):
        with pytest.raises(EvaluationError, match="no column"):
            holds("ghost = 1", row())


class TestNullSemantics:
    def test_comparison_with_null_is_not_true(self):
        assert not holds("n < 100", row(n=None))
        assert not holds("n >= 0", row(n=None))

    def test_not_of_unknown_is_not_true(self):
        # SQL three-valued logic: NOT(unknown) = unknown, not true.
        assert not holds("NOT n < 100", row(n=None))

    def test_and_short_circuits_false_over_unknown(self):
        assert not holds("n < 100 AND k = 2", row(n=None, k=1))

    def test_or_true_wins_over_unknown(self):
        assert holds("n < 100 OR k = 1", row(n=None, k=1))

    def test_is_null(self):
        assert holds("n IS NULL", row(n=None))
        assert not holds("n IS NULL", row(n=1.0))
        assert holds("n IS NOT NULL", row(n=1.0))

    def test_in_with_null_operand(self):
        assert not holds("n IN (1, 2)", row(n=None))

    def test_between_with_null_bound_is_unknown(self):
        assert not holds("n BETWEEN 0 AND 10", row(n=None))


class TestCompound:
    def test_and_or_not(self):
        assert holds("(n = 1 OR k = 9) AND NOT s = 'zzz'", row())

    def test_between_inclusive(self):
        assert holds("k BETWEEN 1 AND 1", row(k=1))
        assert not holds("k NOT BETWEEN 1 AND 1", row(k=1))

    def test_in(self):
        assert holds("k IN (1, 3, 5)", row(k=3))
        assert holds("k NOT IN (2, 4)", row(k=3))

    def test_in_coerces_toward_column_type(self):
        assert holds("n IN (1, 2)", row(n=1.0))

    def test_like_percent(self):
        assert holds("s LIKE 'a%'", row(s="abc"))
        assert not holds("s LIKE 'b%'", row(s="abc"))

    def test_like_underscore(self):
        assert holds("s LIKE 'a_c'", row(s="abc"))
        assert not holds("s LIKE 'a_d'", row(s="abc"))

    def test_not_like(self):
        assert holds("s NOT LIKE 'z%'", row(s="abc"))

    def test_like_escapes_regex_metacharacters(self):
        assert holds("s = 'a.c'", row(s="a.c")) is True
        assert not holds("s LIKE 'a.c'", row(s="abc"))


class TestBindings:
    def test_none_condition_always_true(self):
        predicate = compile_condition(None, RELATION)
        assert predicate(row())

    def test_qualifier_must_match_binding(self):
        cond = parse_condition("Q.n < 2")
        with pytest.raises(EvaluationError, match="qualifier"):
            compile_condition(cond, RELATION, binding_name="R")

    def test_qualifier_matches_alias(self):
        cond = parse_condition("A.n < 2")
        predicate = compile_condition(cond, RELATION, binding_name="A")
        assert predicate(row(n=1.0))

    def test_incomparable_values_raise(self):
        cond = parse_condition("s < d")
        predicate = compile_condition(cond, RELATION)
        with pytest.raises(EvaluationError, match="cannot compare"):
            predicate(row())
