"""Tests for the command-line entry point (:mod:`repro.cli`)."""

from __future__ import annotations

import pytest

from repro.cli import main


class TestCli:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["figure99"])

    def test_table3(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "Table III" in out
        assert "ALL SHAPE CHECKS PASSED" in out

    def test_fig6(self, capsys):
        assert main(["fig6"]) == 0
        assert "PTIME" in capsys.readouterr().out

    def test_fig7_tiny(self, capsys, monkeypatch):
        # Patch the experiment to a tiny configuration so the CLI wiring is
        # exercised without a long sweep.
        from repro.bench import experiments

        calls = {}

        def tiny_figure7(**kwargs):
            calls.update(kwargs)
            return True

        monkeypatch.setattr(experiments, "figure7", tiny_figure7)
        assert main(["fig7", "--seed", "3", "--timeout", "1.5"]) == 0
        assert calls["seed"] == 3
        assert calls["timeout"] == 1.5

    def test_full_flag_changes_scale(self, monkeypatch):
        from repro.bench import experiments

        calls = {}

        def tiny_figure11(**kwargs):
            calls.update(kwargs)
            return True

        monkeypatch.setattr(experiments, "figure11", tiny_figure11)
        assert main(["fig11", "--full"]) == 0
        assert calls["vectorized"] is True
        assert max(calls["tuple_counts"]) == 5_000_000

    def test_failure_exit_code(self, monkeypatch):
        from repro.bench import experiments

        monkeypatch.setattr(experiments, "figure8", lambda **kwargs: False)
        assert main(["fig8"]) == 1


class TestRecentCommand:
    def test_recent_renders_table(self, capsys):
        assert main([
            "recent", "--tuples", "50", "--attributes", "4",
            "--mappings", "3", "--repeat", "2",
        ]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].split() == [
            "time", "digest", "cell", "lane", "status", "ms", "rows",
            "est", "cost", "actual", "cost",
        ]
        assert set(lines[1]) <= {"-", " "}
        assert len(lines) == 4  # header, separator, two records
        assert "by-tuple/range" in out
        assert " ok" in out

    def test_recent_json(self, capsys):
        import json

        assert main([
            "recent", "--tuples", "50", "--attributes", "4",
            "--mappings", "3", "--repeat", "1", "--json",
        ]) == 0
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 1
        record = records[0]
        assert record["status"] == "ok"
        assert record["lane"] == "scalar"
        assert record["plan_digest"]
        assert record["est_cost"] > 0
        assert record["actual_cost"] > 0

    def test_recent_from_jsonl_file(self, capsys, tmp_path):
        import json

        path = tmp_path / "slow.jsonl"
        rows = [
            {"ts": 0, "digest": f"d{i}", "mapping_semantics": "by-tuple",
             "aggregate_semantics": "range", "lane": "scalar",
             "status": "ok", "seconds": 0.001 * i, "rows": 10 * i}
            for i in range(5)
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows))
        assert main([
            "recent", "--file", str(path), "--limit", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "d4" in out and "d3" in out
        assert "d2" not in out  # --limit keeps the newest records

    def test_recent_skips_torn_final_line(self, capsys, tmp_path):
        import json

        path = tmp_path / "slow.jsonl"
        rows = [
            {"ts": 0, "digest": f"d{i}", "lane": "scalar", "status": "ok",
             "seconds": 0.001}
            for i in range(3)
        ]
        text = "".join(json.dumps(r) + "\n" for r in rows)
        # A crash mid-append truncates the last record.
        path.write_text(text[: -len(json.dumps(rows[-1])) // 2])
        assert main(["recent", "--file", str(path)]) == 0
        captured = capsys.readouterr()
        assert "d0" in captured.out and "d1" in captured.out
        assert "d2" not in captured.out
        assert "skipped 1 torn final line" in captured.err

    def test_recent_corrupt_inner_line_fails(self, capsys, tmp_path):
        path = tmp_path / "slow.jsonl"
        path.write_text('{"digest": "d0"}\n{"digest": \n{"digest": "d2"}\n')
        assert main(["recent", "--file", str(path)]) == 2
        assert "line 2 is not a query-log record" in capsys.readouterr().err

    def test_recent_missing_file_fails(self, capsys, tmp_path):
        assert main([
            "recent", "--file", str(tmp_path / "nope.jsonl"),
        ]) == 2
        assert "error:" in capsys.readouterr().err


