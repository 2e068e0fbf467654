"""Guard the runnable examples against rot (the fast ones run in CI).

The two heavyweight examples (`realestate_count`, `streaming_csv`) scale to
hundreds of thousands of rows; the CI "Examples smoke check" step runs
them, like every `examples/*.py`, end to end.  Here we run the quick ones
and check their headline numbers appear in the output.
"""

from __future__ import annotations

import runpy
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, capsys) -> str:
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart.py", capsys)
        assert "RangeAnswer([1, 3])" in out
        assert "0.48" in out
        assert "2.2" in out

    def test_schema_matching_pipeline(self, capsys):
        out = run_example("schema_matching_pipeline.py", capsys)
        assert "Discovered probabilistic mapping" in out
        assert "postedDate" in out
        assert "reducedDate" in out
        # The matcher's split should approximate the paper's 0.6/0.4.
        assert "P=0.59" in out or "P=0.60" in out

    def test_ebay_auctions_paper_half(self, capsys):
        # Run only the paper-instance function; the simulated-trace demo
        # generates thousands of bids and a SQLite database — exercised by
        # the benchmark harness, too slow for the unit suite.
        module = runpy.run_path(str(EXAMPLES / "ebay_auctions.py"))
        module["paper_instance_demo"]()
        out = capsys.readouterr().out
        assert "975.437" in out

    def test_examples_have_docstrings_and_mains(self):
        for path in sorted(EXAMPLES.glob("*.py")):
            text = path.read_text()
            assert text.lstrip().startswith('"""'), path.name
            assert '__main__' in text, path.name
