"""Tests for query reformulation (:mod:`repro.sql.reformulate`)."""

from __future__ import annotations

import pytest

from repro.data import ebay, realestate
from repro.exceptions import ReformulationError, SchemaError
from repro.sql.parser import parse_condition, parse_query
from repro.sql.reformulate import (
    reformulate_condition,
    reformulate_query,
    reformulations,
)


class TestQ1:
    """Q1 must rewrite into the paper's Q11 and Q12."""

    def test_m11_gives_q11(self):
        q1 = parse_query(realestate.Q1)
        q11 = reformulate_query(q1, realestate.mapping_m11())
        assert q11.to_sql() == (
            "SELECT COUNT(*) FROM S1 WHERE postedDate < '2008-1-20'"
        )

    def test_m12_gives_q12(self):
        q1 = parse_query(realestate.Q1)
        q12 = reformulate_query(q1, realestate.mapping_m12())
        assert q12.to_sql() == (
            "SELECT COUNT(*) FROM S1 WHERE reducedDate < '2008-1-20'"
        )

    def test_reformulations_carry_probabilities(self):
        q1 = parse_query(realestate.Q1)
        pairs = reformulations(q1, realestate.paper_pmapping())
        assert [p for _, p in pairs] == [0.6, 0.4]
        assert "postedDate" in pairs[0][0].to_sql()
        assert "reducedDate" in pairs[1][0].to_sql()


class TestQ2:
    """The nested Q2 must rewrite both levels (paper's Q21/Q22)."""

    def test_m21_rewrites_inner_and_outer(self):
        q2 = parse_query(ebay.Q2)
        q21 = reformulate_query(q2, ebay.mapping_m21())
        text = q21.to_sql()
        assert "MAX(DISTINCT R2.bid)" in text
        assert "AVG(R1.bid)" in text
        assert "FROM S2 AS R2" in text
        # auctionID is certain: it maps to the source attribute `auction`.
        assert "GROUP BY R2.auction" in text

    def test_m22_uses_current_price(self):
        q2 = parse_query(ebay.Q2)
        q22 = reformulate_query(q2, ebay.mapping_m22())
        assert "currentPrice" in q22.to_sql()

    def test_flat_sum_query(self):
        q = parse_query(ebay.Q2_PRIME)
        rewritten = reformulate_query(q, ebay.mapping_m21())
        assert rewritten.to_sql() == (
            "SELECT SUM(bid) FROM S2 WHERE auction = 34"
        )


class TestQualifiers:
    def test_target_name_qualifier_requalified_to_source(self):
        q = parse_query("SELECT SUM(T2.price) FROM T2 WHERE T2.auctionID = 34")
        rewritten = reformulate_query(q, ebay.mapping_m22())
        assert rewritten.to_sql() == (
            "SELECT SUM(S2.currentPrice) FROM S2 WHERE S2.auction = 34"
        )

    def test_alias_qualifier_preserved(self):
        q = parse_query("SELECT SUM(R.price) FROM T2 AS R WHERE R.auctionID = 34")
        rewritten = reformulate_query(q, ebay.mapping_m22())
        assert rewritten.to_sql() == (
            "SELECT SUM(R.currentPrice) FROM S2 AS R WHERE R.auction = 34"
        )


class TestErrors:
    def test_wrong_relation(self):
        q = parse_query("SELECT COUNT(*) FROM Other WHERE date < '2008-1-20'")
        with pytest.raises(ReformulationError, match="targets"):
            reformulate_query(q, realestate.mapping_m11())

    def test_unmapped_attribute_strict(self):
        # `comments` exists in T1 but no mapping covers it.
        q = parse_query("SELECT COUNT(*) FROM T1 WHERE comments = 'x'")
        with pytest.raises(ReformulationError, match="no correspondence"):
            reformulate_query(q, realestate.mapping_m11())

    def test_unmapped_attribute_lenient(self):
        q = parse_query("SELECT COUNT(*) FROM T1 WHERE comments = 'x'")
        rewritten = reformulate_query(q, realestate.mapping_m11(), unmapped="keep")
        assert "comments" in rewritten.to_sql()

    def test_unknown_name_passes_through(self):
        # The outer level of a nested query names the subquery's outputs,
        # which the target relation lacks: they survive.
        q = parse_query(
            "SELECT AVG(R.mystery) FROM (SELECT MAX(listPrice) FROM T1 "
            "GROUP BY propertyID) AS R WHERE R.mystery < 3"
        )
        rewritten = reformulate_query(q, realestate.mapping_m11())
        assert rewritten.to_sql().startswith("SELECT AVG(R.mystery) FROM (")
        assert rewritten.to_sql().endswith("WHERE R.mystery < 3")

    def test_unknown_name_in_flat_query_is_a_schema_error(self):
        # A name the target relation lacks would otherwise resolve against
        # the source relation and skip the mapping uncertainty.
        for unmapped in ("error", "null", "keep"):
            with pytest.raises(SchemaError, match="no attribute 'price'"):
                reformulate_query(
                    parse_query("SELECT SUM(price) FROM T1"),
                    realestate.mapping_m11(),
                    unmapped=unmapped,
                )
        with pytest.raises(SchemaError, match="no attribute 'mystery'"):
            reformulate_condition(
                parse_condition("mystery < 3"), realestate.mapping_m11()
            )

    def test_unmapped_attribute_null_mode(self):
        # Possible-worlds reading: an unmapped attribute is NULL-valued.
        q = parse_query("SELECT COUNT(*) FROM T1 WHERE comments = 'x'")
        rewritten = reformulate_query(
            q, realestate.mapping_m11(), unmapped="null"
        )
        assert rewritten.to_sql() == "SELECT COUNT(*) FROM S1 WHERE NULL = 'x'"

    def test_unknown_mode_rejected(self):
        q = parse_query(realestate.Q1)
        with pytest.raises(ReformulationError, match="unmapped mode"):
            reformulate_query(q, realestate.mapping_m11(), unmapped="maybe")

    def test_aggregate_argument_must_be_mapped_even_in_null_mode(self):
        q = parse_query("SELECT MIN(comments) FROM T1")
        with pytest.raises(ReformulationError, match="aggregate attribute"):
            reformulate_query(q, realestate.mapping_m11(), unmapped="null")

    def test_group_by_must_be_mapped_even_in_null_mode(self):
        q = parse_query("SELECT COUNT(*) FROM T1 GROUP BY comments")
        with pytest.raises(ReformulationError, match="GROUP BY attribute"):
            reformulate_query(q, realestate.mapping_m11(), unmapped="null")


class TestConditionReformulation:
    def test_all_node_kinds(self):
        cond = parse_condition(
            "date BETWEEN '2008-1-1' AND '2008-2-1' AND NOT (date IS NULL) "
            "OR listPrice IN (1, 2)"
        )
        rewritten = reformulate_condition(cond, realestate.mapping_m11())
        text = rewritten.to_sql()
        assert "postedDate" in text
        assert "price IN" in text
        assert "date" not in text.replace("postedDate", "")
