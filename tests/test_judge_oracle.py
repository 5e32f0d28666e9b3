"""Differential oracle: the vectorised box judge vs the per-candidate loop.

:meth:`RectangleSystem.max_discrepancy` scores candidate boxes from
cumulative count grids in blocks of array operations.  :mod:`reference_judges`
keeps the loop that tested every point against every box; this module
requires the two to report the same error (``==``, not approximately), the
same witness box and the same ``ranges_examined``, on both the exact branch
and the sampled branch, where the seeded generator must also end in the same
state.
"""

from __future__ import annotations

import numpy as np
import pytest

from reference_judges import reference_box_discrepancy

from repro.setsystems import rectangles
from repro.setsystems.base import DiscrepancyResult
from repro.setsystems.rectangles import RectangleSystem
from repro.streams.generators import clustered_points


def _grid_points(rng: np.random.Generator, count: int, side: int, dimension: int) -> list:
    return [tuple(int(v) for v in row) for row in rng.integers(1, side + 1, (count, dimension))]


def _assert_same(system_args: dict, stream: list, sample: list, seed: int = 0) -> DiscrepancyResult:
    fast_system = RectangleSystem(**system_args, seed=seed)
    slow_system = RectangleSystem(**system_args, seed=seed)
    fast = fast_system.max_discrepancy(stream, sample)
    slow = reference_box_discrepancy(slow_system, stream, sample)
    assert fast.error == slow.error
    assert type(fast.error) is float
    assert fast.witness == slow.witness
    assert fast.exact == slow.exact
    assert fast.ranges_examined == slow.ranges_examined
    assert fast_system._rng.bit_generator.state == slow_system._rng.bit_generator.state
    return fast


@pytest.mark.parametrize("block", [None, 1])
@pytest.mark.parametrize("dimension", [1, 2, 3])
@pytest.mark.parametrize("seed", range(6))
def test_random_grids_exact_branch(monkeypatch, block, dimension, seed):
    if block is not None:
        monkeypatch.setattr(rectangles, "_BLOCK", block)
    rng = np.random.default_rng([dimension, seed])
    side = {1: 40, 2: 9, 3: 4}[dimension]
    stream = _grid_points(rng, int(rng.integers(5, 60)), side, dimension)
    sample = [stream[i] for i in rng.integers(0, len(stream), int(rng.integers(1, 12)))]
    assert _assert_same({"side": side, "dimension": dimension}, stream, sample).exact


@pytest.mark.parametrize("dimension", [1, 2, 3])
@pytest.mark.parametrize("seed", range(4))
def test_random_grids_sampled_branch(dimension, seed):
    rng = np.random.default_rng([7, dimension, seed])
    side = {1: 200, 2: 16, 3: 6}[dimension]
    stream = _grid_points(rng, 80, side, dimension)
    sample = _grid_points(rng, 9, side, dimension)
    result = _assert_same(
        {"side": side, "dimension": dimension, "max_exact_candidates": 700},
        stream,
        sample,
        seed=seed,
    )
    assert not result.exact and result.ranges_examined == 700


def test_sampled_branch_spans_several_blocks(monkeypatch):
    monkeypatch.setattr(rectangles, "_BLOCK", 97)
    rng = np.random.default_rng(11)
    stream = _grid_points(rng, 60, 12, 2)
    sample = stream[::7]
    _assert_same({"side": 12, "dimension": 2, "max_exact_candidates": 1_000}, stream, sample, 3)


def test_exact_branch_spans_several_blocks(monkeypatch):
    monkeypatch.setattr(rectangles, "_BLOCK", 50)
    rng = np.random.default_rng(12)
    stream = _grid_points(rng, 40, 6, 2)
    _assert_same({"side": 6, "dimension": 2}, stream, stream[:5])


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_direct_counter_matches_the_loop(monkeypatch, dimension):
    # A one-cell budget forces every count through direct comparison.
    monkeypatch.setattr(rectangles, "_MAX_GRID_CELLS", 1)
    rng = np.random.default_rng([13, dimension])
    side = {1: 30, 2: 7, 3: 4}[dimension]
    stream = _grid_points(rng, 30, side, dimension)
    _assert_same({"side": side, "dimension": dimension}, stream, stream[::4])


def test_direct_counter_blocks_over_points(monkeypatch):
    monkeypatch.setattr(rectangles, "_MAX_GRID_CELLS", 64)
    rng = np.random.default_rng(14)
    stream = _grid_points(rng, 50, 8, 2)
    _assert_same({"side": 8, "dimension": 2}, stream, stream[::3])


@pytest.mark.parametrize("block", [1, 7, 1 << 10])
def test_duplicate_points_and_ties(monkeypatch, block):
    # Many boxes share the worst error; the first in candidate order wins,
    # also when the tied boxes fall in different blocks.
    monkeypatch.setattr(rectangles, "_BLOCK", block)
    stream = [(1, 1)] * 6 + [(3, 3)] * 6 + [(2, 2)] * 4
    sample = [(1, 1), (3, 3)]
    _assert_same({"side": 3, "dimension": 2}, stream, sample)


def test_identical_stream_and_sample_scores_zero():
    points = [(1, 2), (2, 1), (2, 2), (1, 2)]
    _assert_same({"side": 2, "dimension": 2}, points, points)


def test_one_point_sample():
    rng = np.random.default_rng(15)
    stream = _grid_points(rng, 25, 5, 2)
    _assert_same({"side": 5, "dimension": 2}, stream, [stream[0]])


def test_one_point_sample_and_stream():
    _assert_same({"side": 5, "dimension": 3}, [(2, 3, 4)], [(2, 3, 4)])


def test_non_integral_coordinates():
    rng = np.random.default_rng(16)
    stream = [tuple(row) for row in rng.uniform(0, 5, (30, 2)).round(1)]
    _assert_same({"side": 5, "dimension": 2}, stream, stream[::5])


def test_array_input_matches_tuple_input():
    rng = np.random.default_rng(17)
    stream = _grid_points(rng, 40, 8, 2)
    sample = stream[::6]
    system = RectangleSystem(8, 2)
    expected = reference_box_discrepancy(RectangleSystem(8, 2), stream, sample)
    assert system.max_discrepancy(np.array(stream), np.array(sample)) == expected


def test_zero_candidate_cap_examines_nothing():
    stream, sample = [(1, 1), (2, 2)], [(1, 1)]
    _assert_same({"side": 2, "dimension": 2, "max_exact_candidates": 0}, stream, sample, 4)


def test_e9_clustered_data_on_both_branches():
    stream = clustered_points(400, 16, 2, clusters=4, seed=5)
    sample = stream[::9]
    exact = {"side": 16, "dimension": 2, "max_exact_candidates": 200_000}
    assert _assert_same(exact, stream, sample).exact
    sampled = {"side": 16, "dimension": 2, "max_exact_candidates": 2_000}
    assert not _assert_same(sampled, stream, sample, 9).exact


def test_sampled_draws_equal_scalar_draws():
    """One tiled ``integers`` call reproduces per-candidate, per-axis scalar draws."""
    lengths = np.array([528, 136, 1, 7])
    scalar, tiled = np.random.default_rng(21), np.random.default_rng(21)
    expected = [int(scalar.integers(0, int(n))) for _ in range(500) for n in lengths]
    drawn = tiled.integers(0, np.tile(lengths, 200)).tolist()
    drawn += tiled.integers(0, np.tile(lengths, 300)).tolist()
    assert drawn == expected
    assert tiled.bit_generator.state == scalar.bit_generator.state


def test_repeated_sampled_judgements_stay_in_step():
    rng = np.random.default_rng(22)
    stream = _grid_points(rng, 50, 10, 2)
    fast, slow = (RectangleSystem(10, 2, max_exact_candidates=300, seed=8) for _ in range(2))
    for sample in (stream[::5], stream[::3], stream[:1]):
        assert fast.max_discrepancy(stream, sample) == reference_box_discrepancy(
            slow, stream, sample
        )
    assert fast._rng.bit_generator.state == slow._rng.bit_generator.state
