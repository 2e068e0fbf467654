"""Tests for Definitions 1 and 2: relation mappings and p-mappings."""

from __future__ import annotations

import pytest

from repro.data import realestate
from repro.exceptions import MappingError
from repro.schema.correspondence import AttributeCorrespondence
from repro.schema.mapping import PMapping, RelationMapping, SchemaPMapping
from repro.schema.model import Attribute, Relation

S = Relation("S", [Attribute("x"), Attribute("y"), Attribute("z")])
T = Relation("T", [Attribute("u"), Attribute("v")])


def mapping(*pairs: tuple[str, str], name: str | None = None) -> RelationMapping:
    return RelationMapping(
        S, T, [AttributeCorrespondence(s, t) for s, t in pairs], name=name
    )


class TestAttributeCorrespondence:
    def test_reversed(self):
        corr = AttributeCorrespondence("x", "u")
        assert corr.reversed() == AttributeCorrespondence("u", "x")

    def test_ordering(self):
        assert AttributeCorrespondence("a", "b") < AttributeCorrespondence("b", "a")

    def test_rejects_empty(self):
        with pytest.raises(MappingError):
            AttributeCorrespondence("", "u")
        with pytest.raises(MappingError):
            AttributeCorrespondence("x", "")

    def test_immutable(self):
        corr = AttributeCorrespondence("x", "u")
        with pytest.raises(AttributeError):
            corr.source = "y"


class TestRelationMapping:
    def test_lookup_both_directions(self):
        m = mapping(("x", "u"), ("y", "v"))
        assert m.source_for("u") == "x"
        assert m.target_for("y") == "v"
        assert m.maps_target("u")
        assert not m.maps_target("w")

    def test_source_for_missing_raises(self):
        m = mapping(("x", "u"))
        with pytest.raises(MappingError, match="no correspondence"):
            m.source_for("v")

    def test_target_for_missing_raises(self):
        m = mapping(("x", "u"))
        with pytest.raises(MappingError, match="no correspondence"):
            m.target_for("y")

    def test_rejects_unknown_source_attribute(self):
        with pytest.raises(MappingError, match="not an attribute"):
            mapping(("ghost", "u"))

    def test_rejects_unknown_target_attribute(self):
        with pytest.raises(MappingError, match="not an attribute"):
            mapping(("x", "ghost"))

    def test_rejects_duplicate_source(self):
        # one source attribute feeding two targets violates one-to-one
        with pytest.raises(MappingError, match="one-to-one"):
            mapping(("x", "u"), ("x", "v"))

    def test_rejects_duplicate_target(self):
        with pytest.raises(MappingError, match="one-to-one"):
            mapping(("x", "u"), ("y", "u"))

    def test_equality_ignores_name(self):
        # Definition 2 requires distinct *mappings*; labels don't matter.
        assert mapping(("x", "u"), name="a") == mapping(("x", "u"), name="b")

    def test_equality_ignores_correspondence_order(self):
        a = mapping(("x", "u"), ("y", "v"))
        b = mapping(("y", "v"), ("x", "u"))
        assert a == b
        assert hash(a) == hash(b)

    def test_describe_uses_name(self):
        assert mapping(("x", "u"), name="m11").describe() == "m11"

    def test_describe_without_name_lists_pairs(self):
        assert "x->u" in mapping(("x", "u")).describe()


class TestPMapping:
    def test_valid(self):
        pm = PMapping(S, T, [(mapping(("x", "u")), 0.6), (mapping(("y", "u")), 0.4)])
        assert len(pm) == 2
        assert pm.probabilities == (0.6, 0.4)

    def test_probability_of(self):
        m1 = mapping(("x", "u"))
        m2 = mapping(("y", "u"))
        pm = PMapping(S, T, [(m1, 0.6), (m2, 0.4)])
        assert pm.probability_of(m1) == 0.6
        assert pm.probability_of(mapping(("z", "u"))) == 0.0

    def test_most_probable(self):
        m1 = mapping(("x", "u"))
        m2 = mapping(("y", "u"))
        pm = PMapping(S, T, [(m1, 0.3), (m2, 0.7)])
        assert pm.most_probable() == m2

    def test_rejects_probabilities_not_summing_to_one(self):
        with pytest.raises(MappingError, match="sum to"):
            PMapping(S, T, [(mapping(("x", "u")), 0.6), (mapping(("y", "u")), 0.3)])

    def test_rejects_probability_out_of_range(self):
        with pytest.raises(MappingError, match="outside"):
            PMapping(S, T, [(mapping(("x", "u")), 1.4), (mapping(("y", "u")), -0.4)])

    def test_rejects_duplicate_mappings(self):
        # same correspondences under different labels are still duplicates
        with pytest.raises(MappingError, match="duplicate"):
            PMapping(
                S,
                T,
                [(mapping(("x", "u"), name="a"), 0.5),
                 (mapping(("x", "u"), name="b"), 0.5)],
            )

    def test_rejects_empty(self):
        with pytest.raises(MappingError):
            PMapping(S, T, [])

    def test_rejects_foreign_mapping(self):
        other = Relation("O", [Attribute("q")])
        foreign = RelationMapping(
            other, T, [AttributeCorrespondence("q", "u")]
        )
        with pytest.raises(MappingError, match="not between"):
            PMapping(S, T, [(foreign, 1.0)])

    def test_single_certain_mapping(self):
        pm = PMapping(S, T, [(mapping(("x", "u")), 1.0)])
        assert pm.most_probable() == mapping(("x", "u"))

    def test_iteration_order_preserved(self):
        m1, m2 = mapping(("x", "u")), mapping(("y", "u"))
        pm = PMapping(S, T, [(m1, 0.25), (m2, 0.75)])
        assert [m for m, _ in pm] == [m1, m2]


class TestSchemaPMapping:
    def test_lookup(self):
        pm = realestate.paper_pmapping()
        schema_pm = SchemaPMapping([pm])
        assert schema_pm.for_target("T1") is pm
        assert schema_pm.for_source("S1") is pm

    def test_missing_target(self):
        schema_pm = SchemaPMapping([realestate.paper_pmapping()])
        with pytest.raises(MappingError, match="no p-mapping"):
            schema_pm.for_target("T9")

    def test_rejects_duplicate_relation(self):
        pm = realestate.paper_pmapping()
        with pytest.raises(MappingError, match="more than one"):
            SchemaPMapping([pm, pm])

    def test_rejects_empty(self):
        with pytest.raises(MappingError):
            SchemaPMapping([])
