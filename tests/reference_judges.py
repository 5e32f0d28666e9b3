"""Reference box judge: the per-candidate loop, kept as a differential oracle.

:meth:`repro.setsystems.RectangleSystem.max_discrepancy` scores candidate
boxes in blocks of array operations over cumulative count grids.  The
function below scores them literally one box at a time, testing every point
against it, exactly as the judge did before it was vectorised.
``tests/test_judge_oracle.py`` requires the two to return the same error,
witness and ``ranges_examined``, and to leave a seeded system's generator in
the same state.

Inputs must already be valid ``(n, d)`` points with finite coordinates; the
package judge rejects anything else at its boundary, and this loop does not
check.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Sequence
from typing import Any

import numpy as np

from repro.exceptions import EmptySampleError
from repro.setsystems.base import DiscrepancyResult
from repro.setsystems.rectangles import Box, RectangleSystem


def reference_box_discrepancy(
    system: RectangleSystem, stream: Sequence[Any], sample: Sequence[Any]
) -> DiscrepancyResult:
    """Worst candidate box of ``system`` by the per-candidate loop."""
    if len(sample) == 0:
        raise EmptySampleError("an empty sample is never an epsilon-approximation")
    stream_points = np.asarray([tuple(point) for point in stream], dtype=float)
    sample_points = np.asarray([tuple(point) for point in sample], dtype=float)

    candidate_axes: list[np.ndarray] = []
    for axis in range(system.dimension):
        values = np.unique(np.concatenate([stream_points[:, axis], sample_points[:, axis]]))
        candidate_axes.append(values)

    per_axis_intervals = [
        [(low, high) for i, low in enumerate(values) for high in values[i:]]
        for values in candidate_axes
    ]
    total_candidates = 1
    for intervals in per_axis_intervals:
        total_candidates *= len(intervals)

    exact = total_candidates <= system.max_exact_candidates
    if exact:
        candidates: Iterator[tuple[tuple[float, float], ...]] = itertools.product(
            *per_axis_intervals
        )
    else:
        candidates = (
            tuple(
                intervals[int(system._rng.integers(0, len(intervals)))]
                for intervals in per_axis_intervals
            )
            for _ in range(system.max_exact_candidates)
        )

    worst_error = -1.0
    worst_box: Box | None = None
    examined = 0
    for combination in candidates:
        examined += 1
        lows = tuple(low for low, _ in combination)
        highs = tuple(high for _, high in combination)
        stream_density = _box_density(stream_points, lows, highs)
        sample_density = _box_density(sample_points, lows, highs)
        error = abs(stream_density - sample_density)
        if error > worst_error:
            worst_error = error
            worst_box = Box(lows, highs)
    return DiscrepancyResult(
        error=max(worst_error, 0.0),
        witness=worst_box,
        exact=exact,
        ranges_examined=examined,
    )


def _box_density(points: np.ndarray, lows: tuple[float, ...], highs: tuple[float, ...]) -> float:
    """Fraction of ``points`` (an ``(n, d)`` array) falling in the closed box."""
    if points.size == 0:
        return 0.0
    inside = np.ones(len(points), dtype=bool)
    for axis, (low, high) in enumerate(zip(lows, highs)):
        inside &= (points[:, axis] >= low) & (points[:, axis] <= high)
    return float(np.count_nonzero(inside)) / len(points)
