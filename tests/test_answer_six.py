"""``answer_six`` computes the nodes its cells share once, changing no cell.

One ``answer_six`` request draws each seeded sample once (the AVG/MIN/MAX
distribution and expected-value cells project the same empirical answer)
and folds the by-table per-mapping answers once (range, distribution and
expected value all combine them).  Every cell must stay ``==`` to answering
it alone, for all 30 Figure 6 cells, in both bodies (numpy arrays and pure
Python), and guard budgets must trip and degrade exactly as they would
without the sharing.
"""

from __future__ import annotations

import pytest

from repro.core import guard as guardmod
from repro.core.answers import DistributionAnswer
from repro.core.engine import AggregationEngine
from repro.core.guard import Budget
from repro.core.semantics import AggregateSemantics, MappingSemantics
from repro.data import ebay, realestate, synthetic
from repro.exceptions import BudgetExceededError
from repro.obs import metrics

SAMPLES = 200

ALL_CELLS = [
    (msem, asem) for msem in MappingSemantics for asem in AggregateSemantics
]
DISTRIBUTION = (MappingSemantics.BY_TUPLE, AggregateSemantics.DISTRIBUTION)
EXPECTED = (MappingSemantics.BY_TUPLE, AggregateSemantics.EXPECTED_VALUE)

AGGREGATES = ["COUNT(*)", "SUM({a})", "AVG({a})", "MIN({a})", "MAX({a})"]
AVG_TEXT = "SELECT AVG(value) FROM MED WHERE value < 500.0"


def _synthetic(rows: int = 40):
    workload = synthetic.generate_workload(rows, 4, 3, seed=5)
    return [workload.table], workload.pmapping


def _small_synthetic():
    # 3**10 mapping sequences: few enough for naive enumeration to start.
    return _synthetic(10)


def _realestate():
    return [realestate.paper_instance()], realestate.paper_pmapping()


def _ebay():
    return [ebay.paper_instance()], ebay.paper_pmapping()


#: (name, data factory, query template, aggregate argument).
INPUTS = [
    ("synthetic", _synthetic, "SELECT {agg} FROM MED WHERE value < 500.0", "value"),
    ("paper-q1", _realestate,
     "SELECT {agg} FROM T1 WHERE date < '2008-1-20'", "listPrice"),
    ("ebay-nested", _ebay,
     "SELECT {agg} FROM (SELECT MAX(DISTINCT R2.price) FROM T2 AS R2 "
     "GROUP BY R2.auctionID) AS R1", "R1.price"),
    ("grouped", _ebay,
     "SELECT {agg} FROM T2 WHERE price > 100 GROUP BY auctionID", "price"),
]


def _texts(template: str, argument: str) -> list[str]:
    return [
        template.format(agg=aggregate.format(a=argument))
        for aggregate in AGGREGATES
    ]


def _engine(factory, **options) -> AggregationEngine:
    tables, pmapping = factory()
    return AggregationEngine(tables, pmapping, allow_sampling=True, **options)


@pytest.mark.parametrize("vectorize", [True, False])
@pytest.mark.parametrize(
    "name,factory,template,argument", INPUTS, ids=[i[0] for i in INPUTS]
)
def test_every_figure6_cell_equals_answering_it_alone(
    vectorize, name, factory, template, argument
):
    engine = _engine(factory, vectorize=vectorize)
    for seed, text in enumerate(_texts(template, argument)):
        six = engine.answer_six(text, samples=SAMPLES, seed=seed)
        assert set(six) == set(ALL_CELLS)
        for cell in ALL_CELLS:
            alone = engine.answer(text, *cell, samples=SAMPLES, seed=seed)
            assert six[cell] == alone, (text, cell)


class TestSharedNodes:
    def _counted(self, run) -> dict:
        registry = metrics.MetricsRegistry()
        with metrics.use_registry(registry):
            run()
        return registry.snapshot()

    @pytest.mark.parametrize("vectorize", [True, False])
    def test_avg_draws_its_sample_once(self, vectorize):
        engine = _engine(_synthetic, vectorize=vectorize)
        counted = self._counted(
            lambda: engine.answer_six(AVG_TEXT, samples=SAMPLES, seed=3)
        )
        assert counted["sampling.iterations"] == SAMPLES
        # One sampling hit (the expected-value cell) and two by-table hits.
        assert counted["six.shared.hit"] == 3

    def test_count_shares_only_the_by_table_answers(self):
        engine = _engine(_synthetic)
        counted = self._counted(
            lambda: engine.answer_six(
                "SELECT COUNT(*) FROM MED WHERE value < 500.0",
                samples=SAMPLES, seed=3,
            )
        )
        assert "sampling.iterations" not in counted
        assert counted["six.shared.hit"] == 2

    def test_nothing_is_shared_outside_answer_six(self):
        engine = _engine(_synthetic)

        def per_cell():
            for cell in ALL_CELLS:
                engine.answer(AVG_TEXT, *cell, samples=SAMPLES, seed=3)

        counted = self._counted(per_cell)
        assert counted["sampling.iterations"] == 2 * SAMPLES
        assert "six.shared.hit" not in counted

    def test_one_query_log_record_per_cell(self):
        engine = _engine(_synthetic)
        engine.answer_six(AVG_TEXT, samples=SAMPLES, seed=3)
        records = engine.recent_queries()
        assert [(r.mapping_semantics, r.aggregate_semantics) for r in records] == [
            (msem.value, asem.value) for msem, asem in ALL_CELLS
        ]
        assert all(r.status == "ok" for r in records)

    def test_unseeded_expected_value_is_the_distribution_mean(self):
        engine = _engine(_synthetic)
        six = engine.answer_six(AVG_TEXT, samples=SAMPLES)
        assert isinstance(six[DISTRIBUTION], DistributionAnswer)
        assert six[DISTRIBUTION].to_expected_value() == six[EXPECTED]


class TestBudgets:
    """A shared draw charges the guard the worlds it would have drawn."""

    def test_breach_without_degradation_matches_answering_alone(self):
        budget = Budget(max_worlds=SAMPLES - 1)
        with pytest.raises(BudgetExceededError) as alone:
            _engine(_synthetic).prepare(AVG_TEXT).answer(
                *DISTRIBUTION, samples=SAMPLES, seed=3, budget=budget
            )
        with pytest.raises(BudgetExceededError) as six:
            _engine(_synthetic).answer_six(
                AVG_TEXT, samples=SAMPLES, seed=3, budget=budget
            )
        assert six.value.progress == alone.value.progress
        assert six.value.progress["worlds"] == SAMPLES

    def test_a_shared_draw_still_breaches(self):
        engine = _engine(_synthetic)
        prepared = engine.prepare(AVG_TEXT)
        with guardmod.sharing():
            prepared.answer(*DISTRIBUTION, samples=SAMPLES, seed=3)
            with pytest.raises(BudgetExceededError) as breach:
                prepared.answer(
                    *EXPECTED, samples=SAMPLES, seed=3,
                    budget=Budget(max_worlds=SAMPLES - 1),
                )
        assert breach.value.progress["worlds"] == SAMPLES

    @pytest.mark.parametrize("vectorize", [True, False])
    def test_both_sampled_cells_degrade_as_when_answered_alone(self, vectorize):
        # Naive enumeration breaches the worlds budget and degrades to a
        # SAMPLES - 1 draw, which the expected-value cell then shares.
        budget = Budget(max_worlds=SAMPLES - 1)
        options = dict(vectorize=vectorize, degrade=True, allow_exponential=True)
        six_engine = _engine(_small_synthetic, **options)
        six = six_engine.answer_six(
            AVG_TEXT, samples=SAMPLES, seed=3, budget=budget
        )
        alone_engine = _engine(_small_synthetic, **options)
        for cell in ALL_CELLS:
            assert six[cell] == alone_engine.answer(
                AVG_TEXT, *cell, samples=SAMPLES, seed=3, budget=budget
            )

        def summary(record):
            return (
                record.mapping_semantics, record.aggregate_semantics,
                record.lane, record.status, record.breach, record.worlds,
                record.degraded,
            )

        six_records = [summary(r) for r in six_engine.recent_queries()]
        alone_records = [summary(r) for r in alone_engine.recent_queries()]
        assert six_records == alone_records
        degraded = [r for r in six_records if r[3] == "degraded"]
        assert [r[:2] for r in degraded] == [
            (msem.value, asem.value) for msem, asem in (DISTRIBUTION, EXPECTED)
        ]
