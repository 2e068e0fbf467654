"""The suite harness and the perf-regression gate.

Toy suites (no real workloads) cover the statistical protocol, the
document schema, and every :mod:`repro.bench.regression` row status; one
smoke test runs a real registered case end to end through
``scripts/bench_regression_check.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.bench import harness, regression
from repro.exceptions import EvaluationError


def toy_suite(name="toy"):
    suite = harness.Suite(name, "a toy suite")

    @suite.case("first")
    def _first():
        return lambda: sum(range(50))

    @suite.case("with_close")
    def _with_close():
        state = {"closed": False}

        def close():
            state["closed"] = True

        return (lambda: None), close

    return suite


def result_doc(cases, suite="toy", **env):
    """A minimal harness document for regression tests."""
    return {
        "schema_version": harness.SCHEMA_VERSION,
        "suite": suite,
        "description": "",
        "environment": dict(env),
        "cases": [
            dict({"name": name, "seconds": {"min": s, "median": s, "p95": s}},
                 **extra)
            for name, s, extra in cases
        ],
    }


class TestSuite:
    def test_duplicate_case_name_rejected(self):
        suite = toy_suite()
        with pytest.raises(EvaluationError, match="already has a case"):
            suite.add(harness.BenchCase("first", lambda: (lambda: None)))

    def test_case_run_statistics(self):
        suite = toy_suite()
        measured = suite.cases[0].run(warmup=1, repeats=4)
        assert measured["name"] == "first"
        assert measured["repeats"] == 4
        stats = measured["seconds"]
        assert 0.0 <= stats["min"] <= stats["median"] <= stats["p95"]
        assert stats["min"] <= stats["mean"]

    def test_factory_close_runs_after_timing(self):
        closed = []
        case = harness.BenchCase(
            "c", lambda: ((lambda: None), lambda: closed.append(True))
        )
        case.run(warmup=0, repeats=1)
        assert closed == [True]

    def test_per_case_repeat_override(self):
        case = harness.BenchCase("c", lambda: (lambda: None), repeats=2)
        assert case.run(warmup=0, repeats=9)["repeats"] == 2


class TestRunSuite:
    def test_document_shape(self):
        result = harness.run_suite(toy_suite(), warmup=0, repeats=2)
        assert result["schema_version"] == harness.SCHEMA_VERSION
        assert result["suite"] == "toy"
        assert [case["name"] for case in result["cases"]] == [
            "first", "with_close"
        ]
        env = result["environment"]
        for key in ("python", "platform", "cpu_count", "git_sha", "timestamp"):
            assert key in env

    def test_only_filter_and_unknown_case(self):
        result = harness.run_suite(
            toy_suite(), warmup=0, repeats=1, only=["with_close"]
        )
        assert [case["name"] for case in result["cases"]] == ["with_close"]
        with pytest.raises(EvaluationError, match="no case"):
            harness.run_suite(toy_suite(), only=["nope"])

    def test_registry_knows_builtin_suites(self):
        assert harness.suite_names() == ("obs-overhead", "quick")
        with pytest.raises(EvaluationError, match="unknown suite"):
            harness.get_suite("no-such-suite")

    def test_save_load_round_trip_and_version_gate(self, tmp_path):
        result = harness.run_suite(toy_suite(), warmup=0, repeats=1)
        path = tmp_path / "BENCH_toy.json"
        harness.save_result(result, path)
        assert harness.load_result(path) == json.loads(path.read_text())
        stale = dict(result, schema_version=harness.SCHEMA_VERSION + 1)
        harness.save_result(stale, path)
        with pytest.raises(EvaluationError, match="schema version"):
            harness.load_result(path)

    def test_baseline_path_flattens_dashes(self, tmp_path):
        assert harness.baseline_path("obs-overhead", tmp_path) == (
            tmp_path / "BENCH_obs_overhead.json"
        )

    def test_format_result_mentions_fingerprint(self):
        result = harness.run_suite(toy_suite(), warmup=0, repeats=1)
        text = harness.format_result(result)
        assert text.startswith("suite toy: 2 case(s)")
        assert "median ms" in text


class TestRegression:
    def test_all_statuses(self):
        baseline = result_doc([
            ("steady", 0.010, {}),
            ("regressed", 0.010, {}),
            ("improved", 0.100, {}),
            ("gone", 0.010, {}),
        ])
        current = result_doc([
            ("steady", 0.011, {}),
            ("regressed", 0.100, {}),
            ("improved", 0.010, {}),
            ("added", 0.010, {}),
        ])
        report = regression.compare(
            baseline, current, factor=2.0, slack=0.001
        )
        statuses = {row.name: row.status for row in report.rows}
        assert statuses == {
            "steady": "ok",
            "regressed": "slower",
            "improved": "faster",
            "gone": "missing",
            "added": "new",
        }
        assert {row.name for row in report.regressions()} == {
            "regressed", "gone"
        }
        assert not report.passed("fail")
        assert report.passed("warn")

    def test_within_band_passes(self):
        baseline = result_doc([("case", 0.010, {})])
        current = result_doc([("case", 0.018, {})])
        report = regression.compare(baseline, current, factor=2.0, slack=0.0)
        assert report.rows[0].status == "ok"
        assert report.rows[0].ratio == pytest.approx(1.8)
        assert report.passed("fail")

    def test_tolerance_factor_override_widens_the_band(self):
        baseline = result_doc([
            ("noisy", 0.010, {"tolerance_factor": 20.0}),
            ("steady", 0.010, {}),
        ])
        current = result_doc([("noisy", 0.100, {}), ("steady", 0.100, {})])
        report = regression.compare(baseline, current, factor=2.0, slack=0.0)
        statuses = {row.name: row.status for row in report.rows}
        assert statuses == {"noisy": "ok", "steady": "slower"}

    def test_suite_mismatch_rejected(self):
        with pytest.raises(ValueError, match="suite mismatch"):
            regression.compare(
                result_doc([], suite="a"), result_doc([], suite="b")
            )

    def test_environment_notes_and_render(self):
        baseline = result_doc(
            [("case", 0.010, {})], python="3.10.0", git_sha="aaa"
        )
        current = result_doc(
            [("case", 0.010, {})], python="3.11.0", git_sha="bbb"
        )
        report = regression.compare(baseline, current)
        notes = report.environment_notes()
        assert any("python" in note for note in notes)
        text = report.render_text()
        assert "regression check: suite toy" in text
        assert "all 1 case(s) within tolerance" in text
        assert "environment differs from baseline" in text


class TestRegressionScript:
    def test_quick_gate_smoke(self, tmp_path, capsys):
        """End to end: fresh run of one real case vs its own baseline."""
        import importlib.util
        from pathlib import Path

        script = (
            Path(__file__).resolve().parent.parent
            / "scripts" / "bench_regression_check.py"
        )
        spec = importlib.util.spec_from_file_location("bench_check", script)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)

        baseline = tmp_path / "BENCH_quick.json"
        artifact = tmp_path / "artifacts" / "BENCH_quick.json"
        common = [
            "--suite", "quick", "--baseline", str(baseline),
            "--warmup", "0", "--repeats", "1",
        ]
        # No baseline yet: the gate errors out with advice.
        assert module.main(common) == 2
        assert "--update" in capsys.readouterr().err
        # Create it, then compare a fresh run against it.
        assert module.main(common + ["--update"]) == 0
        assert baseline.exists()
        code = module.main(common + ["--mode", "warn", "--json", str(artifact)])
        assert code == 0
        assert artifact.exists()
        out = capsys.readouterr().out
        assert "regression check: suite quick" in out


def test_no_benchmark_script_forwards_to_the_harness():
    """Only the registered suites reach the harness; a script that still
    names a suite or handles ``--harness`` would point at a deleted one."""
    from pathlib import Path

    scripts = sorted(
        (Path(__file__).resolve().parent.parent / "benchmarks").glob("bench_*.py")
    )
    assert scripts
    offenders = [
        script.name
        for script in scripts
        if any(
            marker in script.read_text()
            for marker in ("HARNESS_SUITE", "--harness")
        )
    ]
    assert offenders == []
