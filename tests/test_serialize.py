"""Tests for JSON (de)serialization (:mod:`repro.schema.serialize`)."""

from __future__ import annotations

import json

import pytest

from repro.data import ebay, realestate
from repro.exceptions import MappingError, SchemaError
from repro.schema.serialize import (
    load_pmapping,
    pmapping_from_dict,
    pmapping_to_dict,
    relation_from_dict,
    relation_to_dict,
    save_pmapping,
)


class TestRelationRoundTrip:
    def test_round_trip(self):
        relation = realestate.S1_RELATION
        assert relation_from_dict(relation_to_dict(relation)) == relation

    def test_types_preserved(self):
        data = relation_to_dict(realestate.S1_RELATION)
        assert {a["type"] for a in data["attributes"]} == {"int", "real",
                                                           "text", "date"}

    def test_malformed(self):
        with pytest.raises(SchemaError, match="malformed"):
            relation_from_dict({"name": "R"})
        with pytest.raises(SchemaError, match="malformed"):
            relation_from_dict(
                {"name": "R", "attributes": [{"name": "a", "type": "decimal"}]}
            )


class TestPMappingRoundTrip:
    @pytest.mark.parametrize(
        "pmapping_factory",
        [realestate.paper_pmapping, ebay.paper_pmapping],
    )
    def test_round_trip(self, pmapping_factory):
        pmapping = pmapping_factory()
        restored = pmapping_from_dict(pmapping_to_dict(pmapping))
        assert restored == pmapping
        assert [m.name for m in restored.mappings] == [
            m.name for m in pmapping.mappings
        ]

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "pm.json"
        save_pmapping(realestate.paper_pmapping(), path)
        assert load_pmapping(path) == realestate.paper_pmapping()

    def test_loaded_mapping_is_validated(self, tmp_path):
        data = pmapping_to_dict(realestate.paper_pmapping())
        data["mappings"][0]["probability"] = 0.9  # now sums to 1.3
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(MappingError, match="sum to"):
            load_pmapping(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        with pytest.raises(MappingError, match="not valid JSON"):
            load_pmapping(path)

    def test_malformed_structure(self):
        with pytest.raises(MappingError, match="malformed"):
            pmapping_from_dict({"source": relation_to_dict(
                realestate.S1_RELATION)})

    @pytest.mark.parametrize("mappings", [5, None, 3.5, True])
    def test_mappings_must_be_a_list(self, mappings):
        data = pmapping_to_dict(realestate.paper_pmapping())
        data["mappings"] = mappings
        with pytest.raises(MappingError, match="must be a list"):
            pmapping_from_dict(data)

    def test_loaded_pmapping_answers_queries(self, tmp_path, ds1):
        from repro.core.engine import AggregationEngine

        path = tmp_path / "pm.json"
        save_pmapping(realestate.paper_pmapping(), path)
        engine = AggregationEngine([ds1], load_pmapping(path))
        answer = engine.answer(realestate.Q1, "by-tuple", "range")
        assert answer.as_tuple() == (1, 3)


_LONG_LISTED = "FROM T1 WHERE date < '2008-1-20'"


def _query_args(tmp_path, table) -> list[str]:
    """``query`` arguments over the paper's T1 data and p-mapping."""
    from repro.storage.csv_io import save_table_csv

    data_path = tmp_path / "s1.csv"
    mapping_path = tmp_path / "pm.json"
    save_table_csv(table, data_path)
    save_pmapping(realestate.paper_pmapping(), mapping_path)
    return ["query", "--data", str(data_path), "--mapping", str(mapping_path)]


class TestQueryCli:
    def test_end_to_end(self, tmp_path, capsys, ds1):
        from repro.cli import main
        from repro.storage.csv_io import save_table_csv

        data_path = tmp_path / "s1.csv"
        mapping_path = tmp_path / "pm.json"
        save_table_csv(ds1, data_path)
        save_pmapping(realestate.paper_pmapping(), mapping_path)
        code = main([
            "query",
            "--data", str(data_path),
            "--mapping", str(mapping_path),
            "--query", realestate.Q1,
            "--mapping-semantics", "by-tuple",
            "--aggregate-semantics", "distribution",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "0.48" in out

    def test_sampling_flag(self, tmp_path, capsys, ds2):
        from repro.cli import main
        from repro.storage.csv_io import save_table_csv

        data_path = tmp_path / "s2.csv"
        mapping_path = tmp_path / "pm.json"
        save_table_csv(ds2, data_path)
        save_pmapping(ebay.paper_pmapping(), mapping_path)
        code = main([
            "query",
            "--data", str(data_path),
            "--mapping", str(mapping_path),
            "--query", "SELECT AVG(price) FROM T2",
            "--mapping-semantics", "by-tuple",
            "--aggregate-semantics", "expected-value",
            "--samples", "500",
        ])
        assert code == 0
        assert "ExpectedValueAnswer" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "sql, semantics",
        [
            (realestate.Q1, "range"),
            (realestate.Q1, "distribution"),
            (realestate.Q1, "expected-value"),
            (f"SELECT SUM(listPrice) {_LONG_LISTED}", "range"),
            (f"SELECT SUM(listPrice) {_LONG_LISTED}", "expected-value"),
            (f"SELECT AVG(listPrice) {_LONG_LISTED}", "range"),
            (f"SELECT MIN(listPrice) {_LONG_LISTED}", "range"),
            (f"SELECT MAX(listPrice) {_LONG_LISTED}", "range"),
        ],
        ids=[
            "count-range", "count-distribution", "count-expected",
            "sum-range", "sum-expected", "avg-range", "min-range",
            "max-range",
        ],
    )
    def test_stream_flag_matches_in_memory(
        self, tmp_path, capsys, ds1, sql, semantics
    ):
        from repro.cli import main

        common = _query_args(tmp_path, ds1) + [
            "--query", sql,
            "--mapping-semantics", "by-tuple",
            "--aggregate-semantics", semantics,
        ]
        assert main(common) == 0
        in_memory = capsys.readouterr().out
        assert main(common + ["--stream"]) == 0
        streamed = capsys.readouterr().out
        assert streamed == in_memory

    @pytest.mark.parametrize(
        "sql, semantics, message",
        [
            ("SELECT SUM(date) FROM T1", "range", "SUM needs a numeric"),
            ("SELECT AVG(listPrice) FROM T1", "distribution", "AVG"),
            (
                "SELECT MAX(listPrice) FROM T1 GROUP BY propertyID",
                "range",
                "Grouped",
            ),
        ],
        ids=["sum-of-date", "avg-distribution", "group-by"],
    )
    def test_stream_flag_rejects_unsupported_query(
        self, tmp_path, capsys, ds1, sql, semantics, message
    ):
        from repro.cli import main

        code = main(_query_args(tmp_path, ds1) + [
            "--query", sql,
            "--mapping-semantics", "by-tuple",
            "--aggregate-semantics", semantics,
            "--stream",
        ])
        assert code == 4  # UnsupportedQueryError
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_stream_flag_reports_malformed_row(self, tmp_path, capsys, ds1):
        from repro.cli import main

        args = _query_args(tmp_path, ds1)
        data_path = tmp_path / "s1.csv"
        lines = data_path.read_text().splitlines(keepends=True)
        lines.insert(3, "101,only-two-fields\n")
        data_path.write_text("".join(lines))
        code = main(args + [
            "--query", realestate.Q1,
            "--mapping-semantics", "by-tuple",
            "--stream",
        ])
        assert code == 8  # StorageError
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "s1.csv:4: expected 5 fields" in captured.err

    def test_stream_flag_rejects_by_table(self, tmp_path, capsys, ds1):
        from repro.cli import main
        from repro.storage.csv_io import save_table_csv

        data_path = tmp_path / "s1.csv"
        mapping_path = tmp_path / "pm.json"
        save_table_csv(ds1, data_path)
        save_pmapping(realestate.paper_pmapping(), mapping_path)
        code = main([
            "query",
            "--data", str(data_path),
            "--mapping", str(mapping_path),
            "--query", realestate.Q1,
            "--mapping-semantics", "by-table",
            "--stream",
        ])
        assert code == 4  # UnsupportedQueryError
        assert "by-tuple" in capsys.readouterr().err

    def test_error_reporting(self, tmp_path, capsys):
        from repro.cli import main

        missing = tmp_path / "missing.json"
        missing.write_text("{}")
        code = main([
            "query",
            "--data", str(tmp_path / "nope.csv"),
            "--mapping", str(missing),
            "--query", "SELECT COUNT(*) FROM T1",
        ])
        assert code == 6  # MappingError: malformed p-mapping JSON
        assert "error:" in capsys.readouterr().err
