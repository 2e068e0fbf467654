"""Direct tests for :class:`repro.core.common.PreparedTupleQuery`."""

from __future__ import annotations

import pytest

from repro.core.common import PreparedTupleQuery, run_possibly_grouped
from repro.core.answers import GroupedAnswer, RangeAnswer
from repro.data import ebay
from repro.exceptions import UnsupportedQueryError
from repro.sql.parser import parse_query


class TestValidation:
    def test_nested_rejected(self, ds2, pm2):
        with pytest.raises(UnsupportedQueryError, match="flat"):
            PreparedTupleQuery(ds2, pm2, parse_query(ebay.Q2))

    def test_distinct_sum_rejected(self, ds2, pm2):
        with pytest.raises(UnsupportedQueryError, match="DISTINCT"):
            PreparedTupleQuery(
                ds2, pm2, parse_query("SELECT SUM(DISTINCT price) FROM T2")
            )

    def test_distinct_max_accepted(self, ds2, pm2):
        prepared = PreparedTupleQuery(
            ds2, pm2, parse_query("SELECT MAX(DISTINCT price) FROM T2")
        )
        assert prepared.mapping_count == 2

    def test_wrong_target_relation(self, ds2, pm2):
        with pytest.raises(UnsupportedQueryError, match="targets"):
            PreparedTupleQuery(
                ds2, pm2, parse_query("SELECT COUNT(*) FROM Other")
            )

    def test_uncertain_group_by_rejected(self):
        # Build a p-mapping whose mappings send the GROUP BY attribute to
        # different source columns.
        from repro.schema.correspondence import AttributeCorrespondence
        from repro.schema.mapping import PMapping, RelationMapping
        from repro.schema.model import Attribute, AttributeType, Relation
        from repro.storage.table import Table

        source = Relation(
            "S", [Attribute("g1", AttributeType.INT),
                  Attribute("g2", AttributeType.INT)],
        )
        target = Relation("T", [Attribute("g", AttributeType.INT)])
        table = Table(source, [(1, 2)])
        pm = PMapping(
            source, target,
            [
                (RelationMapping(source, target,
                                 [AttributeCorrespondence("g1", "g")]), 0.5),
                (RelationMapping(source, target,
                                 [AttributeCorrespondence("g2", "g")]), 0.5),
            ],
        )
        with pytest.raises(UnsupportedQueryError, match="certain"):
            PreparedTupleQuery(
                table, pm, parse_query("SELECT COUNT(*) FROM T GROUP BY g")
            )


class TestContributionVectors:
    def test_q1_vectors(self, ds1, pm1, q1):
        prepared = PreparedTupleQuery(ds1, pm1, q1)
        vectors = list(prepared.contribution_vectors())
        # Table I: t1 sat under m11 only; t2 none; t3 both; t4 m11 only.
        assert vectors == [(1, None), (None, None), (1, 1), (1, None)]

    def test_satisfaction_probability(self, ds1, pm1, q1):
        prepared = PreparedTupleQuery(ds1, pm1, q1)
        probabilities = [
            prepared.satisfaction_probability(v)
            for v in prepared.contribution_vectors()
        ]
        assert probabilities == pytest.approx([0.6, 0.0, 1.0, 0.6])

    def test_value_contributions_for_sum(self, ds2, pm2, q2_prime):
        prepared = PreparedTupleQuery(ds2, pm2, q2_prime)
        vectors = list(prepared.contribution_vectors())
        assert vectors[0] == (195.0, 195.0)  # transaction 3401
        assert vectors[4] == (None, None)    # auction 38 rows excluded

    def test_single_row_contribution_api(self, ds2, pm2, q2_prime):
        prepared = PreparedTupleQuery(ds2, pm2, q2_prime, rows=[ds2.rows[3]])
        assert list(prepared.contribution_vectors()) == [(349.99, 336.94)]

    def test_count_of_nullable_column(self, pm1, ds1):
        from repro.storage.table import Table

        table = Table(ds1.relation, list(ds1.rows))
        table.append((5, 1.0, "x", None, "2008-02-02"))
        prepared = PreparedTupleQuery(
            table, pm1, parse_query("SELECT COUNT(date) FROM T1")
        )
        last = list(prepared.contribution_vectors())[-1]
        # postedDate NULL -> no contribution under m11; reducedDate set.
        assert last == (None, 1)


class TestPartition:
    def test_partition_by_group(self, ds2, pm2):
        prepared = PreparedTupleQuery(
            ds2, pm2,
            parse_query("SELECT MAX(price) FROM T2 GROUP BY auctionID"),
        )
        parts = prepared.partition()
        assert set(parts) == {34, 38}
        assert len(parts[34].rows) == 4
        assert parts[34].probabilities == prepared.probabilities

    def test_partition_without_group_by_rejected(self, ds2, pm2):
        prepared = PreparedTupleQuery(
            ds2, pm2, parse_query("SELECT MAX(price) FROM T2")
        )
        with pytest.raises(UnsupportedQueryError, match="GROUP BY"):
            prepared.partition()

    def test_run_possibly_grouped_dispatch(self, ds2, pm2):
        def scalar(prepared):
            return RangeAnswer(0, len(prepared.rows))

        flat = run_possibly_grouped(
            ds2, pm2, parse_query("SELECT COUNT(*) FROM T2"), scalar
        )
        assert flat == RangeAnswer(0, 8)
        grouped = run_possibly_grouped(
            ds2, pm2,
            parse_query("SELECT COUNT(*) FROM T2 GROUP BY auctionID"),
            scalar,
        )
        assert isinstance(grouped, GroupedAnswer)
        assert grouped[34] == RangeAnswer(0, 4)
