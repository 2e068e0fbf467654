"""The array bodies' exact sums and AVG greedy (:mod:`repro.core.vectorized`).

:func:`~repro.core.vectorized.segment_sums` must be ``==`` to
:func:`math.fsum` per segment, and the array greedy ``==`` to the row
walk's :func:`~repro.core.bytuple_avg._greedy_extreme_mean`, on every
input; the differential at the end runs every PTIME cell on the
benchmark's ``scan`` shape through both bodies.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import vectorized as V
from repro.core.bytuple_avg import _greedy_extreme_mean
from repro.core.engine import AggregationEngine
from repro.data import synthetic
from repro.storage.table import Table

#: Floats from every path of the split: zeros of both signs, subnormals,
#: mixed binades, magnitudes around 1e300 (2**996 is about 6.7e299), and
#: the non-finite items that go to ``fsum`` instead.
ITEMS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, 5e-324, -5e-324, 2.0**996]),
    st.floats(min_value=-1e3, max_value=1e3),
    st.floats(min_value=-1e-300, max_value=1e-300),
    st.floats(min_value=1e299, max_value=1e301),
    st.floats(min_value=-1e301, max_value=-1e299),
    st.floats(min_value=-1e30, max_value=1e30),
)
SPECIAL = st.sampled_from([math.inf, -math.inf, math.nan])


@st.composite
def segmented_arrays(draw, max_segments=40, max_length=6):
    """``(arrays, starts)``: 1-3 float arrays over rows cut into segments,
    some of them empty."""
    lengths = draw(
        st.lists(st.integers(0, max_length), min_size=1, max_size=max_segments)
    )
    rows = sum(lengths)
    items = st.one_of(ITEMS, SPECIAL) if draw(st.booleans()) else ITEMS
    arrays = [
        np.array(draw(st.lists(items, min_size=rows, max_size=rows)), dtype=float)
        for _ in range(draw(st.integers(1, 3)))
    ]
    starts = np.cumsum([0] + lengths[:-1])
    return arrays, starts


def _fsums(arrays, starts):
    """Per segment, ``math.fsum`` of its items, array by array."""
    bounds = list(starts) + [arrays[0].size]
    return [
        math.fsum(x for array in arrays for x in array[a:b].tolist())
        for a, b in zip(bounds[:-1], bounds[1:])
    ]


def _same(left, right) -> bool:
    return left == right or (
        isinstance(left, float) and math.isnan(left) and math.isnan(right)
    )


def _check_segment_sums(arrays, starts):
    try:
        expected = _fsums(arrays, starts)
    except (OverflowError, ValueError) as error:
        with pytest.raises(type(error)):
            V.segment_sums(arrays, starts)
        return
    got = V.segment_sums(iter(arrays), starts)
    assert len(got) == len(expected)
    assert all(_same(g, e) for g, e in zip(got, expected)), (got, expected)


class TestSegmentSums:
    @settings(max_examples=300, deadline=None)
    @given(segmented_arrays())
    def test_equals_fsum_per_segment(self, case):
        _check_segment_sums(*case)

    @settings(max_examples=20, deadline=None)
    @given(segmented_arrays(max_segments=2000, max_length=2))
    def test_many_segments(self, case):
        _check_segment_sums(*case)

    def test_cancellation_is_exact(self):
        array = np.array([1e16, 1.0, -1e16, 1.0, 2.0**-40, 3.0 * 2.0**60])
        assert V.segment_sums([array], np.array([0])) == [math.fsum(array.tolist())]

    def test_every_item_zero_and_no_rows(self):
        assert V.segment_sums([np.array([0.0, -0.0])], np.array([0, 1])) == [0.0, 0.0]
        assert V.segment_sums([np.zeros(0)], np.array([0])) == [0.0]
        assert V.segment_sums([], np.array([0, 0])) == [0.0, 0.0]

    def test_arrays_with_different_binades_share_segments(self):
        arrays = [np.array([1e-200, 3.0, 7e100]), np.array([-1e-200, 2e200, 1.5])]
        starts = np.array([0, 2])
        assert V.segment_sums(arrays, starts) == _fsums(arrays, starts)


@st.composite
def greedy_segments(draw):
    """Per segment ``(forced_total, forced_count, optional values)``."""
    values = st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, 2.5, -3.0, 1e300, -1e300]),
        st.floats(min_value=-1e3, max_value=1e3),
    )
    totals = st.one_of(values, st.just(math.nan))
    return draw(
        st.lists(
            st.tuples(totals, st.integers(0, 3), st.lists(values, max_size=9)),
            min_size=1,
            max_size=30,
        )
    )


def _greedy_arrays(segments, minimize):
    """The array greedy over ``segments``, each row an optional value or a
    filler row that is not optional."""
    values, optional, starts = [], [], []
    for _, _, candidates in segments:
        starts.append(len(values))
        values += [123.0] + candidates
        optional += [False] + [True] * len(candidates)
    return V._greedy_means(
        [total for total, _, _ in segments],
        np.array([count for _, count, _ in segments]),
        np.array(values),
        np.array(optional),
        np.array(starts),
        minimize=minimize,
    )


class TestGreedyMeans:
    @settings(max_examples=300, deadline=None)
    @given(greedy_segments(), st.booleans())
    def test_equals_the_row_walk_greedy(self, segments, minimize):
        got = _greedy_arrays(segments, minimize)
        for mean, (total, count, candidates) in zip(got, segments):
            expected = _greedy_extreme_mean(
                total if count else 0.0, count, candidates, minimize=minimize
            )
            assert (mean is None) == (expected is None)
            assert mean is None or _same(mean, expected), (mean, expected)

    def test_nan_candidate_declines_to_the_row_walk(self):
        with pytest.raises(V.VectorizationError, match="NaN"):
            _greedy_arrays([(1.0, 1, [2.0, math.nan])], True)


#: The benchmark's PTIME cells (``perfbench`` ``scan``).
SCAN_CELLS = [
    ("COUNT(*)", "range"),
    ("COUNT(*)", "expected-value"),
    ("SUM(value)", "range"),
    ("SUM(value)", "expected-value"),
    ("AVG(value)", "range"),
    ("MIN(value)", "range"),
    ("MAX(value)", "range"),
]


@pytest.fixture(scope="module")
def scan_engines():
    """The ``scan`` shape (8 REAL attributes, 5 mappings) at 20k rows, ids
    folded into 37 groups; an array-body and a row-walk engine."""
    source = synthetic.source_relation(8)
    table = synthetic.generate_source_table(20_000, 8, seed=11, relation=source)
    table = Table(source, [(row[0] % 37,) + row[1:] for row in table.rows])
    pmapping = synthetic.generate_pmapping(
        source, 5, seed=12, target=synthetic.mediated_relation("T")
    )
    arrays = AggregationEngine([table], pmapping)
    walk = AggregationEngine([table], pmapping, vectorize=False)
    yield arrays, walk
    arrays.close()
    walk.close()


class TestScanShapeDifferential:
    @pytest.mark.parametrize(
        "where", ["value < -1", "value > 990", "value < 500", "value < 2000"]
    )
    @pytest.mark.parametrize("group_by", ["", " GROUP BY id"])
    def test_array_body_equals_row_walk(self, scan_engines, where, group_by):
        arrays, walk = scan_engines
        for aggregate, semantics in SCAN_CELLS:
            text = f"SELECT {aggregate} FROM T WHERE {where}{group_by}"
            expected = walk.answer(text, "by-tuple", semantics)
            assert arrays.answer(text, "by-tuple", semantics) == expected, text
        snapshot = arrays.metrics_snapshot()
        assert snapshot.get("vectorized.hit", 0) >= len(SCAN_CELLS)
        assert snapshot.get("vectorized.fallback", 0) == 0
