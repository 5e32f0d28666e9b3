"""``Range.count`` equals the membership loop; the tracker's batch path equals ``add``.

``Prefix``, ``Interval`` and ``Box`` count long numeric input with one array
comparison and everything else with ``sum(1 for x in xs if x in r)``.  The
property here is that the choice never shows: for any input the count (or
the exception) is the loop's.  The dense tracker indexes integer batches in
one operation; a batch with any element it cannot index must raise before
any state changes, and good batches must count exactly as per-element
``add`` does.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import TrackerUnsupportedError
from repro.setsystems import Box, Interval, Prefix, PrefixDiscrepancyTracker, Range
from repro.setsystems.base import NUMERIC_COUNT_CUTOFF

FAST = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])

#: Lengths on both sides of the numeric-path cutoff, plus empty input.
LENGTHS = st.sampled_from(
    [0, 1, 5, NUMERIC_COUNT_CUTOFF - 1, NUMERIC_COUNT_CUTOFF, NUMERIC_COUNT_CUTOFF + 1, 150]
)

#: Homogeneous element kinds the numeric path may take.
SCALARS = {
    "int": st.integers(-30, 30),
    "integral-float": st.integers(-30, 30).map(float),
    "float": st.floats(-30, 30, allow_nan=False),
    "bool": st.booleans(),
}

#: Values that must keep (or send) a count to the loop.
ODD_VALUES = [
    True,
    float("nan"),
    float("inf"),
    -float("inf"),
    2**53,
    2**53 + 1,
    -(2**60),
    2**70,
    "3",
    None,
]

BOUNDS = st.one_of(
    st.integers(-30, 30), st.floats(-30, 30, allow_nan=False), st.sampled_from([2**53 + 1, 2**70])
)


def _loop_count(range_: Range, elements) -> int:
    return sum(1 for element in elements if element in range_)


def _assert_count_matches(range_: Range, elements) -> None:
    try:
        expected = _loop_count(range_, elements)
    except Exception as exc:  # the count must fail the same way
        with pytest.raises(type(exc)):
            range_.count(elements)
        return
    counted = range_.count(elements)
    assert counted == expected
    assert type(counted) is int


@st.composite
def scalar_inputs(draw):
    """A list, tuple or array of one kind of value, maybe with one odd value in it."""
    length = draw(LENGTHS)
    kind = SCALARS[draw(st.sampled_from(sorted(SCALARS)))]
    values = draw(st.lists(kind, min_size=length, max_size=length))
    if values and draw(st.booleans()):
        values[draw(st.integers(0, len(values) - 1))] = draw(st.sampled_from(ODD_VALUES))
    container = draw(st.sampled_from(["list", "tuple", "array"]))
    if container == "tuple":
        return tuple(values)
    if container == "array":
        array = np.asarray(values)
        if array.dtype.kind in "iufb":
            return array
    return values


@st.composite
def point_inputs(draw, dimension: int):
    """Points of (mostly) the right dimension, maybe with one malformed point."""
    length = draw(LENGTHS)
    coordinate = SCALARS[draw(st.sampled_from(["int", "integral-float", "float"]))]
    point = st.tuples(*[coordinate] * dimension)
    values = draw(st.lists(point, min_size=length, max_size=length))
    if values and draw(st.booleans()):
        odd = draw(
            st.one_of(
                st.tuples(*[coordinate] * (dimension + 1)),
                st.tuples(*[coordinate] * max(dimension - 1, 1)),
                st.tuples(*[st.sampled_from(ODD_VALUES)] * dimension),
                st.just("ab"[:dimension]),
            )
        )
        values[draw(st.integers(0, len(values) - 1))] = odd
    if draw(st.booleans()):
        try:
            array = np.asarray(values)
        except ValueError:
            return values
        if array.dtype.kind in "iufb":
            return array
    return values


class TestRangeCountEqualsLoop:
    @FAST
    @given(bound=BOUNDS, elements=scalar_inputs())
    def test_prefix(self, bound, elements):
        _assert_count_matches(Prefix(bound), elements)

    @FAST
    @given(low=BOUNDS, width=st.integers(0, 40), elements=scalar_inputs())
    def test_interval(self, low, width, elements):
        _assert_count_matches(Interval(low, low + width), elements)

    @FAST
    @given(data=st.data(), dimension=st.integers(1, 3))
    def test_box(self, data, dimension):
        lows = data.draw(st.tuples(*[st.integers(-30, 30)] * dimension))
        widths = data.draw(st.tuples(*[st.floats(0, 40)] * dimension))
        box = Box(tuple(float(v) for v in lows), tuple(lo + w for lo, w in zip(lows, widths)))
        _assert_count_matches(box, data.draw(point_inputs(dimension)))

    @pytest.mark.parametrize(
        "elements",
        [
            [5] * 70 + ["3"],
            [1.5] * 70 + [2**70],
            [1, 2] * 40 + [2**53 + 1],
            np.arange(-100, 100, dtype=np.int64),
            np.arange(200, dtype=np.uint8),
            np.full(100, 2**53 + 1, dtype=np.int64),
            np.linspace(-5, 5, 101),
            [True, False] * 50,
            iter(range(200)),
        ],
    )
    def test_edge_inputs(self, elements):
        if hasattr(elements, "__next__"):
            # A one-shot iterator is counted by the loop, exactly once.
            assert Interval(3, 9).count(elements) == 7
            return
        ranges = (Prefix(3), Prefix(2**53 + 1), Prefix(2.0**53), Interval(-2, 4.5))
        for range_ in ranges:
            _assert_count_matches(range_, elements)

    def test_wrong_dimension_points_are_not_members(self):
        points = [(1, 2, 3)] * 100
        assert Box((0.0, 0.0), (5.0, 5.0)).count(points) == 0
        assert Box((0.0, 0.0, 0.0, 0.0), (5.0,) * 4).count(points) == 0

    def test_numeric_path_taken_from_the_cutoff(self, monkeypatch):
        def loop_disabled(self, elements):
            raise AssertionError("membership loop used")

        monkeypatch.setattr(Range, "count", loop_disabled)
        long, short = list(range(NUMERIC_COUNT_CUTOFF)), list(range(NUMERIC_COUNT_CUTOFF - 1))
        assert Prefix(10).count(long) == 11
        assert Interval(5, 10).count(np.array(long)) == 6
        assert Box((0.0, 0.0), (3.0, 9.0)).count([(v, v) for v in long]) == 4
        with pytest.raises(AssertionError, match="loop"):
            Prefix(10).count(short)
        with pytest.raises(AssertionError, match="loop"):
            Prefix(2**60).count(long)


UNIVERSE = 12
BAD_ELEMENTS = [0, UNIVERSE + 1, 2.5, float("nan"), "3", 2**70]


def _tracker_with_history() -> PrefixDiscrepancyTracker:
    tracker = PrefixDiscrepancyTracker(UNIVERSE)
    tracker.add_batch([1, 5, 5, 12])
    return tracker


class TestTrackerBatch:
    @pytest.mark.parametrize("bad", BAD_ELEMENTS, ids=repr)
    @pytest.mark.parametrize("position", [0, 3, 7])
    @pytest.mark.parametrize("as_array", [False, True])
    def test_bad_element_leaves_state_unchanged(self, bad, position, as_array):
        batch: list = [2, 3, 4, 6, 7, 8, 9, 10]
        batch[position] = bad
        elements = np.asarray(batch) if as_array else batch
        tracker = _tracker_with_history()
        counts, length = tracker._counts.copy(), tracker.stream_length
        with pytest.raises(TrackerUnsupportedError):
            tracker.add_batch(elements)
        assert np.array_equal(tracker._counts, counts)
        assert tracker.stream_length == length

    @pytest.mark.parametrize("bad", BAD_ELEMENTS, ids=repr)
    def test_bad_sample_element_raises(self, bad):
        with pytest.raises(TrackerUnsupportedError):
            _tracker_with_history().checkpoint([1, 2, bad, 4])

    @pytest.mark.parametrize(
        "batch",
        [
            [1, 2, 2, 12, 7],
            np.array([3, 3, 11, 1], dtype=np.int64),
            np.array([3, 4, 12], dtype=np.uint8),
            [1.0, 2.0, 12.0],
            np.array([4.0, 4.0, 9.0]),
            [True, 2, True],
            [True, True],
            (v for v in [5, 6, 7]),
            list(range(1, UNIVERSE + 1)) * 10,
        ],
        ids=lambda batch: type(batch).__name__,
    )
    def test_good_batch_counts_like_per_element_add(self, batch):
        elements = list(batch)
        batched, single = _tracker_with_history(), _tracker_with_history()
        batched.add_batch(elements if not isinstance(batch, np.ndarray) else batch)
        for element in elements:
            single.add(element)
        assert np.array_equal(batched._counts, single._counts)
        assert batched.stream_length == single.stream_length
        sample = elements[:3]
        assert batched.checkpoint(sample) == single.checkpoint(sample)

    def test_empty_batch_is_a_no_op(self):
        tracker = _tracker_with_history()
        counts = tracker._counts.copy()
        tracker.add_batch([])
        tracker.add_batch(np.array([], dtype=np.int64))
        assert np.array_equal(tracker._counts, counts)
        assert tracker.stream_length == 4
