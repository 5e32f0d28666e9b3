"""Axis-aligned rectangle (box) set systems over the grid universe ``[m]^d``.

Section 1.2 of the paper discusses range queries: with ``R`` the family of
axis-parallel boxes over ``U = [m]^d``, ``ln |R| = O(d ln m)`` and a sample of
size ``O((d ln m + ln 1/delta) / eps^2)`` answers every box-counting query up
to additive error ``eps * n``, even against an adaptive adversary.

The number of boxes is ``(m (m + 1) / 2)^d``, so exhaustive enumeration is
infeasible beyond tiny grids.  The discrepancy computation therefore works
over the *coordinate-compressed* candidate set derived from the data: for
axis-aligned boxes the worst box can always be chosen with each face touching
a data point, so restricting corners to coordinates appearing in the stream or
sample loses nothing.  When even the compressed candidate set is too large the
computation falls back to a randomised subset and reports ``exact=False``.

Candidates are scored in array operations: each axis is rank-compressed onto
its candidate values, one cumulative count grid is built for the stream and
one for the sample, and each box's counts are read from its ``2^d`` grid
corners by inclusion–exclusion.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from collections.abc import Callable, Iterable, Iterator, Sequence
from typing import Any

import numpy as np

from ..exceptions import ConfigurationError, EmptySampleError
from ..rng import RandomState, ensure_generator
from .base import DiscrepancyResult, Range, SetSystem, exact_bounds, numeric_elements

#: Candidate boxes scored per array operation.  Blocks of 2^16 boxes score
#: E9's 200k sampled candidates in ~35% less time, but raise the peak resident
#: memory of an E9 run by over a MiB; at 2^10 it stays at the per-box loop's.
_BLOCK = 1 << 10

#: Largest cumulative count grid, in cells, the judge builds.  Past it, boxes
#: are counted by comparing them with every point, in blocks of at most this
#: many box-point pairs.
_MAX_GRID_CELLS = 1 << 22

#: Counts the points inside each box ``[lo[b], hi[b]]`` of inclusive rank bounds.
BoxCounter = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Box(Range):
    """An axis-aligned closed box ``[lows[0], highs[0]] x ... x [lows[d-1], highs[d-1]]``."""

    lows: tuple[float, ...]
    highs: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.lows) != len(self.highs):
            raise ConfigurationError("box lows and highs must have the same dimension")
        for low, high in zip(self.lows, self.highs):
            if low > high:
                raise ConfigurationError(f"box low {low} exceeds high {high}")

    @property
    def dimension(self) -> int:
        return len(self.lows)

    def __contains__(self, element: Any) -> bool:
        point = tuple(element) if not isinstance(element, tuple) else element
        if len(point) != self.dimension:
            return False
        return all(
            low <= coordinate <= high
            for coordinate, low, high in zip(point, self.lows, self.highs)
        )

    def count(self, elements: Iterable[Any]) -> int:
        points = numeric_elements(elements, self.dimension)
        bounds = None if points is None else exact_bounds(*self.lows, *self.highs)
        if bounds is None:
            return super().count(elements)
        lows, highs = np.array(bounds[: self.dimension]), np.array(bounds[self.dimension :])
        inside = (lows <= points) & (points <= highs)
        return int(np.count_nonzero(inside.all(axis=1)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        sides = ", ".join(f"[{lo}, {hi}]" for lo, hi in zip(self.lows, self.highs))
        return f"Box({sides})"


class RectangleSystem(SetSystem):
    """All axis-aligned boxes over the grid universe ``[m]^d``.

    Parameters
    ----------
    side:
        Grid side length ``m``; coordinates range over ``{1, ..., m}``.
    dimension:
        Number of dimensions ``d``.
    max_exact_candidates:
        Cap on the number of candidate boxes the exact discrepancy sweep will
        enumerate; above it a randomised candidate subset is used and the
        result is flagged ``exact=False``.
    """

    name = "axis-aligned-boxes"

    def __init__(
        self,
        side: int,
        dimension: int,
        max_exact_candidates: int = 2_000_000,
        seed: RandomState = None,
    ) -> None:
        if side < 1:
            raise ConfigurationError(f"grid side must be >= 1, got {side}")
        if dimension < 1:
            raise ConfigurationError(f"dimension must be >= 1, got {dimension}")
        self.side = int(side)
        self.dimension = int(dimension)
        self.max_exact_candidates = int(max_exact_candidates)
        self._rng = ensure_generator(seed)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def ranges(self) -> Iterator[Box]:
        intervals_per_axis = [
            [(low, high) for low in range(1, self.side + 1) for high in range(low, self.side + 1)]
            for _ in range(self.dimension)
        ]
        for combination in itertools.product(*intervals_per_axis):
            lows = tuple(float(low) for low, _ in combination)
            highs = tuple(float(high) for _, high in combination)
            yield Box(lows, highs)

    def cardinality(self) -> int:
        per_axis = self.side * (self.side + 1) // 2
        return per_axis**self.dimension

    def log_cardinality(self) -> float:
        per_axis = self.side * (self.side + 1) // 2
        return self.dimension * math.log(per_axis)

    def vc_dimension(self) -> int:
        # Axis-aligned boxes in d dimensions have VC dimension exactly 2d
        # (for side >= 2; a single-point universe is degenerate).
        if self.side < 2:
            return 1
        return 2 * self.dimension

    def contains_element(self, element: Any) -> bool:
        try:
            point = tuple(element)
        except TypeError:
            return False
        if len(point) != self.dimension:
            return False
        return all(
            1 <= coordinate <= self.side and float(coordinate).is_integer()
            for coordinate in point
        )

    # ------------------------------------------------------------------
    # Discrepancy
    # ------------------------------------------------------------------
    def max_discrepancy(
        self, stream: Sequence[Any], sample: Sequence[Any]
    ) -> DiscrepancyResult:
        """Worst candidate box, scored a block of candidates at a time.

        Each axis's candidate intervals are ``[values[i], values[j]]`` with
        ``i <= j``, ordered by ``i`` then ``j``; the boxes are their
        ``itertools.product``.  The exact branch scores every box in that
        order, the sampled branch draws each box's intervals axis by axis from
        ``self._rng``.  The witness is the first box of largest error.
        """
        if len(sample) == 0:
            raise EmptySampleError("an empty sample is never an epsilon-approximation")
        if len(stream) == 0:
            raise EmptySampleError("the discrepancy against an empty stream is undefined")
        stream_points = self._points(stream, "stream")
        sample_points = self._points(sample, "sample")
        axes = [
            np.unique(np.concatenate([stream_points[:, axis], sample_points[:, axis]]))
            for axis in range(self.dimension)
        ]
        intervals = [np.triu_indices(len(values)) for values in axes]
        lengths = np.array([len(lows) for lows, _ in intervals])
        total_candidates = math.prod(int(length) for length in lengths)
        exact = total_candidates <= self.max_exact_candidates
        examined = total_candidates if exact else max(self.max_exact_candidates, 0)

        sizes = [len(values) for values in axes]
        count_stream = _box_counter(_ranks(stream_points, axes), sizes)
        count_sample = _box_counter(_ranks(sample_points, axes), sizes)
        worst_error = -1.0
        worst: tuple[np.ndarray, np.ndarray] | None = None
        for start in range(0, examined, _BLOCK):
            block = min(_BLOCK, examined - start)
            if exact:
                picks = np.unravel_index(np.arange(start, start + block), tuple(lengths))
            else:
                # One draw per (box, axis) in the order scalar draws would take.
                picks = tuple(self._rng.integers(0, np.tile(lengths, block)).reshape(block, -1).T)
            lo = np.column_stack([lows[pick] for (lows, _), pick in zip(intervals, picks)])
            hi = np.column_stack([highs[pick] for (_, highs), pick in zip(intervals, picks)])
            errors = np.abs(
                count_stream(lo, hi) / len(stream_points)
                - count_sample(lo, hi) / len(sample_points)
            )
            best = int(np.argmax(errors))
            if errors[best] > worst_error:
                worst_error = float(errors[best])
                worst = lo[best], hi[best]
        witness = None
        if worst is not None:
            witness = Box(
                tuple(values[i] for values, i in zip(axes, worst[0])),
                tuple(values[j] for values, j in zip(axes, worst[1])),
            )
        return DiscrepancyResult(
            error=max(worst_error, 0.0),
            witness=witness,
            exact=exact,
            ranges_examined=examined,
        )

    def _points(self, points: Sequence[Any], name: str) -> np.ndarray:
        """``points`` as an ``(n, d)`` array of finite coordinates, or raise."""
        try:
            array = np.asarray([tuple(point) for point in points], dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigurationError(
                f"the {name} must hold numeric points of dimension {self.dimension}"
            ) from exc
        if array.ndim != 2 or array.shape[1] != self.dimension:
            raise ConfigurationError(
                f"the {name} must hold points of dimension {self.dimension}, "
                f"got an array of shape {array.shape}"
            )
        if not np.isfinite(array).all():
            raise ConfigurationError(f"the {name} has a NaN or infinite coordinate")
        return array


def _ranks(points: np.ndarray, axes: list[np.ndarray]) -> np.ndarray:
    """Each coordinate replaced by its index among its axis's candidate values."""
    return np.column_stack(
        [np.searchsorted(values, points[:, axis]) for axis, values in enumerate(axes)]
    )


def _box_counter(ranks: np.ndarray, sizes: list[int]) -> BoxCounter:
    """A :data:`BoxCounter` over the points whose ranks are ``ranks``.

    It reads a cumulative count grid ``C``, where ``C[p]`` counts the points
    whose rank on every axis ``a`` is below ``p[a]``; a box's count is the
    signed sum of ``C`` over its ``2^d`` corners.  Counts are exact ``int64``.
    A grid of more than :data:`_MAX_GRID_CELLS` cells is not built, and the
    boxes are counted by direct comparison instead.
    """
    shape = tuple(size + 1 for size in sizes)
    if math.prod(shape) > _MAX_GRID_CELLS:
        return _direct_counter(ranks)
    cells = np.ravel_multi_index(tuple((ranks + 1).T), shape)
    grid = np.bincount(cells, minlength=math.prod(shape)).reshape(shape)
    for axis in range(len(shape)):
        grid = np.cumsum(grid, axis=axis)
    flat = grid.ravel()
    strides = [math.prod(shape[axis + 1 :]) for axis in range(len(shape))]

    def count(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        below, upto = lo * strides, (hi + 1) * strides
        total = np.zeros(len(lo), dtype=np.int64)
        for corner in itertools.product((False, True), repeat=len(shape)):
            cell = sum(upto[:, a] if top else below[:, a] for a, top in enumerate(corner))
            if (len(shape) - sum(corner)) % 2:
                total -= flat[cell]
            else:
                total += flat[cell]
        return total

    return count


def _direct_counter(ranks: np.ndarray) -> BoxCounter:
    """A :data:`BoxCounter` that compares every box with every point."""
    step = max(1, _MAX_GRID_CELLS // max(len(ranks), 1))

    def count(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        counts = np.empty(len(lo), dtype=np.int64)
        for start in range(0, len(lo), step):
            rows = slice(start, start + step)
            inside = np.ones((len(lo[rows]), len(ranks)), dtype=bool)
            for axis in range(ranks.shape[1]):
                inside &= ranks[:, axis] >= lo[rows, axis, None]
                inside &= ranks[:, axis] <= hi[rows, axis, None]
            counts[rows] = np.count_nonzero(inside, axis=1)
        return counts

    return count
