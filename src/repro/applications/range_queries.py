"""Sample-based range counting over grid universes (Section 1.2, "Range queries").

With ``R`` the axis-aligned boxes over ``U = [m]^d``, an epsilon-approximation
``S`` of the stream answers every box-counting query within ``epsilon * n``:
the estimate is simply ``d_R(S) * n``.  Because ``ln |R| = O(d ln m)``, the
adaptive sample size is ``O((d ln m + ln(1/delta)) / epsilon^2)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Iterable, Sequence
from typing import Literal

from ..core.bounds import bernoulli_adaptive_rate, reservoir_adaptive_size
from ..exceptions import ConfigurationError, EmptySampleError
from ..rng import RandomState
from ..samplers import BernoulliSampler, ReservoirSampler, StreamSampler
from ..setsystems.rectangles import Box


def exact_range_count(points: Sequence[tuple], box: Box) -> int:
    """Ground truth: number of stream points inside the box."""
    return box.count(points)


@dataclass(frozen=True)
class RangeQueryResult:
    """One answered range query: the estimate, the truth and the normalised error."""

    box: Box
    estimate: float
    exact: int
    stream_length: int

    @property
    def normalized_error(self) -> float:
        """``|estimate - exact| / n`` — the quantity bounded by epsilon."""
        if self.stream_length == 0:
            return 0.0
        return abs(self.estimate - self.exact) / self.stream_length


class SampleRangeCounter:
    """Streaming range-count estimator backed by a robust random sample.

    Parameters
    ----------
    side / dimension:
        The grid universe ``[side]^dimension``.
    epsilon / delta:
        Target additive error (as a fraction of ``n``) and failure probability.
    stream_length:
        Needed for the Bernoulli mechanism.
    mechanism:
        ``"reservoir"`` (default) or ``"bernoulli"``.
    """

    def __init__(
        self,
        side: int,
        dimension: int,
        epsilon: float,
        delta: float,
        stream_length: int | None = None,
        mechanism: Literal["reservoir", "bernoulli"] = "reservoir",
        seed: RandomState = None,
    ) -> None:
        if side < 2:
            raise ConfigurationError(f"grid side must be >= 2, got {side}")
        if dimension < 1:
            raise ConfigurationError(f"dimension must be >= 1, got {dimension}")
        self.side = int(side)
        self.dimension = int(dimension)
        self.epsilon = float(epsilon)
        self.delta = float(delta)
        log_cardinality = dimension * math.log(side * (side + 1) / 2)
        if mechanism == "reservoir":
            bound = reservoir_adaptive_size(log_cardinality, epsilon, delta)
            self._sampler: StreamSampler = ReservoirSampler(bound.size, seed=seed)
        elif mechanism == "bernoulli":
            if stream_length is None:
                raise ConfigurationError(
                    "Bernoulli-based range counters need the stream length up front"
                )
            bound = bernoulli_adaptive_rate(log_cardinality, epsilon, delta, stream_length)
            assert bound.probability is not None
            self._sampler = BernoulliSampler(bound.probability, seed=seed)
        else:
            raise ConfigurationError(f"unknown mechanism {mechanism!r}")
        self.sample_size_bound = bound
        self._count = 0

    # ------------------------------------------------------------------
    # Streaming interface
    # ------------------------------------------------------------------
    def update(self, point: tuple) -> None:
        """Process one stream point (a ``dimension``-tuple of grid coordinates)."""
        point = tuple(point)
        if len(point) != self.dimension:
            raise ConfigurationError(
                f"expected {self.dimension}-dimensional points, got {point!r}"
            )
        self._sampler.process(point)
        self._count += 1

    def extend(self, points: Iterable[tuple]) -> None:
        """Process a batch of stream points.

        Validates the batch up front, then routes through the sampler's
        vectorised ``extend`` with the per-element records suppressed.
        """
        points = [tuple(point) for point in points]
        for point in points:
            if len(point) != self.dimension:
                raise ConfigurationError(
                    f"expected {self.dimension}-dimensional points, got {point!r}"
                )
        self._sampler.extend(points, updates=False)
        self._count += len(points)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def count(self, box: Box) -> float:
        """Estimate the number of stream points inside ``box``."""
        sample = self._sampler.sample
        if len(sample) == 0:
            raise EmptySampleError("the counter has not retained any point yet")
        density = box.count(sample) / len(sample)
        return density * self._count

    def answer(self, box: Box, stream: Sequence[tuple]) -> RangeQueryResult:
        """Answer a query and package it with the exact count for evaluation."""
        return RangeQueryResult(
            box=box,
            estimate=self.count(box),
            exact=exact_range_count(stream, box),
            stream_length=len(stream),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def sampler(self) -> StreamSampler:
        """The underlying sampler."""
        return self._sampler

    @property
    def count_processed(self) -> int:
        """Number of stream points processed."""
        return self._count
