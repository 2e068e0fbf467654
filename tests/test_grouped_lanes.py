"""Every lane that answers a grouped by-tuple query lists the same groups.

Naive enumeration, seeded sampling, the MIN/MAX extension, the PTIME range
lane and by-table all emit groups in order of their first row, and each
lists a group whose aggregate is NULL in every world as undefined.
"""

from __future__ import annotations

from repro import AggregationEngine
from repro.core.answers import DistributionAnswer
from repro.core.planner import Lane
from repro.schema.correspondence import AttributeCorrespondence
from repro.schema.mapping import PMapping, RelationMapping
from repro.schema.model import Attribute, AttributeType, Relation
from repro.storage.table import Table

SOURCE = Relation(
    "SRC",
    [
        Attribute("k", AttributeType.INT),
        Attribute("a", AttributeType.INT),
        Attribute("b", AttributeType.INT),
    ],
)
TARGET = Relation(
    "MED",
    [Attribute("k", AttributeType.INT), Attribute("v", AttributeType.INT)],
)
#: First-row order of the keys; it is neither sorted nor hash order.
KEYS = [35, 33, 31, 34, 32, 40, 17]
ROWS = [
    (35, 5, 7),
    (33, 2, None),
    (31, 9, 1),
    (34, 4, 4),
    (32, None, 3),
    (40, None, None),  # NULL under both mappings: undefined in every world
    (17, 8, 6),
    (33, 6, 1),
    (35, 1, None),
]
#: Groups with a row whose argument is non-NULL under both mappings.
ALWAYS_DEFINED = [35, 33, 31, 34, 17]
QUERY = "SELECT MAX(v) FROM MED GROUP BY k"


def _engine(**policy) -> AggregationEngine:
    pmapping = PMapping(
        SOURCE,
        TARGET,
        [
            (
                RelationMapping(
                    SOURCE,
                    TARGET,
                    [AttributeCorrespondence("k", "k"),
                     AttributeCorrespondence(source, "v")],
                    name=f"m_{source}",
                ),
                probability,
            )
            for source, probability in (("a", 0.7), ("b", 0.3))
        ],
    )
    return AggregationEngine([Table(SOURCE, ROWS)], pmapping, **policy)


def _answer(lane: str, mapping_semantics: str, aggregate_semantics: str,
            **policy):
    engine = _engine(**policy)
    plan = engine.plan(QUERY, mapping_semantics, aggregate_semantics)
    assert plan.lane == lane
    return plan.answer()


class TestGroupedLaneAgreement:
    def _lanes(self):
        return {
            "naive": _answer(Lane.NAIVE, "by-tuple", "distribution",
                             allow_exponential=True),
            "sampling": _answer(Lane.SAMPLING, "by-tuple", "distribution",
                                allow_sampling=True, samples=300, seed=7),
            "extension": _answer(Lane.EXTENSION, "by-tuple", "distribution",
                                 use_extensions=True),
            "ptime-range": _answer(Lane.SCALAR, "by-tuple", "range"),
            "by-table": _answer(Lane.BY_TABLE, "by-table", "distribution"),
        }

    def test_same_keys_in_first_row_order(self):
        for lane, answer in self._lanes().items():
            assert list(answer.groups) == KEYS, lane

    def test_all_null_group_is_undefined_in_every_lane(self):
        for lane, answer in self._lanes().items():
            assert not answer[40].is_defined, lane
            if isinstance(answer[40], DistributionAnswer):
                assert answer[40].undefined_probability == 1.0, lane

    def test_naive_reports_no_undefined_mass_for_always_defined_groups(self):
        answer = _answer(Lane.NAIVE, "by-tuple", "distribution",
                         allow_exponential=True)
        for key in ALWAYS_DEFINED:
            assert answer[key].undefined_probability == 0.0, key
        # Group 32's only row is NULL under m_a.
        assert abs(answer[32].undefined_probability - 0.7) < 1e-12
