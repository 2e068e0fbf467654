"""Tests for CSV schema inference and the ``match`` CLI subcommand."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.data import realestate
from repro.exceptions import StorageError
from repro.schema.model import AttributeType
from repro.schema.serialize import load_pmapping
from repro.storage.csv_io import infer_relation, load_table_csv, save_table_csv


class TestInferRelation:
    def test_infers_paper_schema(self, tmp_path, ds1):
        path = tmp_path / "s1.csv"
        save_table_csv(ds1, path)
        relation = infer_relation("S1", path)
        types = {a.name: a.type for a in relation}
        assert types["ID"] is AttributeType.INT
        assert types["price"] is AttributeType.REAL
        assert types["agentPhone"] is AttributeType.INT  # "215" looks int
        assert types["postedDate"] is AttributeType.DATE
        assert types["reducedDate"] is AttributeType.DATE

    def test_mixed_numeric_widens_to_real(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x\n1\n2.5\n")
        relation = infer_relation("T", path)
        assert relation.attribute("x").type is AttributeType.REAL

    def test_text_fallback(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x\nabc\n1\n")
        relation = infer_relation("T", path)
        assert relation.attribute("x").type is AttributeType.TEXT

    def test_empty_fields_do_not_constrain(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x,y\n,1\n7,2\n")
        relation = infer_relation("T", path)
        assert relation.attribute("x").type is AttributeType.INT

    def test_all_empty_column_is_text(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x,y\n,1\n,2\n")
        relation = infer_relation("T", path)
        assert relation.attribute("x").type is AttributeType.TEXT

    def test_inferred_schema_loads_the_file(self, tmp_path, ds1):
        path = tmp_path / "s1.csv"
        save_table_csv(ds1, path)
        relation = infer_relation("S1", path)
        table = load_table_csv(relation, path)
        assert len(table) == len(ds1)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(StorageError, match="empty"):
            infer_relation("T", path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,,c\n1,2,3\n")
        with pytest.raises(StorageError, match="header"):
            infer_relation("T", path)

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1\n")
        with pytest.raises(StorageError, match="width"):
            infer_relation("T", path)

    def test_invalid_utf8(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"name,price\ncaf\xe9,2.5\n")
        with pytest.raises(StorageError, match="not valid UTF-8"):
            infer_relation("T", path)

    @pytest.mark.parametrize("field", ["nan", "inf", "-Infinity", "1e999"])
    def test_non_finite_is_no_real_evidence(self, tmp_path, field):
        """A loader rejects nan and the infinities in a REAL column, so a
        column holding one infers as TEXT and loads as strings."""
        path = tmp_path / "t.csv"
        path.write_text(f"x,y\n1.5,{field}\n2.5,{field}\n")
        relation = infer_relation("T", path)
        assert relation.attribute("x").type is AttributeType.REAL
        assert relation.attribute("y").type is AttributeType.TEXT
        assert load_table_csv(relation, path).column("y") == (field, field)

    def test_date_variants(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("d\n2008-1-5\n2008-12-31\n")
        relation = infer_relation("T", path)
        assert relation.attribute("d").type is AttributeType.DATE


class TestMatchCli:
    @pytest.fixture
    def csv_pair(self, tmp_path, ds1):
        """A source CSV plus a small target-instance CSV for T1."""
        from repro.storage.table import Table

        source_path = tmp_path / "source.csv"
        save_table_csv(ds1, source_path)
        target = Table(
            realestate.T1_RELATION,
            [
                (9, 120_000.0, "408", "2008-03-01", "corner lot"),
                (10, 90_000.0, "415", "2008-03-05", "needs work"),
            ],
        )
        target_path = tmp_path / "target.csv"
        save_table_csv(target, target_path)
        return source_path, target_path

    def test_match_then_query(self, tmp_path, capsys, csv_pair):
        source_path, target_path = csv_pair
        output = tmp_path / "pm.json"
        code = main([
            "match",
            "--source", str(source_path),
            "--target", str(target_path),
            "--output", str(output),
            "--source-name", "S1",
            "--target-name", "T1",
            "--known", "ID=propertyID",
            "--known", "price=listPrice",
            "--known", "agentPhone=phone",
            "--top-k", "2",
            "--temperature", "0.05",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "wrote 2 candidate mappings" in out
        pmapping = load_pmapping(output)
        date_sources = {
            m.source_for("date") for m in pmapping.mappings if m.maps_target("date")
        }
        assert date_sources <= {"postedDate", "reducedDate"}
        # And the emitted mapping answers queries end to end.
        query_code = main([
            "query",
            "--data", str(source_path),
            "--mapping", str(output),
            "--query", realestate.Q1,
            "--mapping-semantics", "by-tuple",
            "--aggregate-semantics", "range",
        ])
        assert query_code == 0

    def test_bad_known_syntax(self, tmp_path, capsys, csv_pair):
        source_path, target_path = csv_pair
        code = main([
            "match",
            "--source", str(source_path),
            "--target", str(target_path),
            "--output", str(tmp_path / "pm.json"),
            "--known", "nonsense",
        ])
        assert code == 2
        assert "SRC=TGT" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        code = main([
            "match",
            "--source", str(tmp_path / "nope.csv"),
            "--target", str(tmp_path / "nope2.csv"),
            "--output", str(tmp_path / "pm.json"),
        ])
        assert code == 2