"""Reference sliding-window sampler: the rebuild-per-round rules, kept as an oracle.

:class:`repro.samplers.SlidingWindowSampler` keeps a dominator count beside
each candidate and updates every count in one pass per arrival.  The class
below keeps the historical rules instead: each round expires the old
candidates, appends the new one, and rebuilds the whole candidate set by
counting, for every candidate, the surviving newer ones with a strictly
smaller priority (``O(c^2)`` per round); the sample is a fresh stable sort
by priority.  ``extend(updates=False)`` draws its priorities with one
``random(n)`` call, like the package kernel, and then applies the per-round
rules element by element; ``merge`` combines the parts, sorts them by
arrival, expires and rebuilds.  ``tests/test_window_oracle.py`` and the
sliding-window perf gate require the package sampler to agree with it.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import Any

from repro.exceptions import ConfigurationError
from repro.rng import RandomState, ensure_generator, spawn_generators
from repro.samplers.base import SampleUpdate, StreamSampler, UpdateBatch


class ReferenceSlidingWindowSampler(StreamSampler):
    """Uniform ``k``-sample over the last ``window`` elements, rebuilt every round."""

    name = "reference-sliding-window"

    def __init__(self, capacity: int, window: int, seed: RandomState = None) -> None:
        super().__init__()
        self.capacity = capacity
        self.window = window
        self._rng = ensure_generator(seed)
        self._candidates: list[tuple[int, float, Any]] = []

    def _process(self, element: Any) -> SampleUpdate:
        return self._step(element, float(self._rng.random()))

    def _step(self, element: Any, priority: float) -> SampleUpdate:
        arrival = self.rounds_processed
        self._expire(arrival)
        self._candidates.append((arrival, priority, element))
        self._prune()
        accepted = any(
            arrival == candidate_arrival for candidate_arrival, _p, _e in self._current_sample_entries()
        )
        return SampleUpdate(round_index=arrival, element=element, accepted=accepted)

    def extend(self, elements: Iterable[Any], updates: bool = True) -> UpdateBatch | None:
        if updates:
            return super().extend(elements, True)
        elements = list(elements)
        if not elements:
            return None
        for element, priority in zip(elements, self._rng.random(len(elements))):
            self._round += 1
            self._step(element, float(priority))
        return None

    def merge(
        self,
        others: Sequence["ReferenceSlidingWindowSampler"],
        *,
        rng: RandomState | None = None,
        offsets: Sequence[int] | None = None,
    ) -> "ReferenceSlidingWindowSampler":
        parts = [self, *others]
        if offsets is None:
            offsets = []
            start = 0
            for part in parts:
                offsets.append(start)
                start += part.rounds_processed
            total_round = start
        else:
            if len(offsets) != len(parts):
                raise ConfigurationError(f"expected {len(parts)} offsets, got {len(offsets)}")
            total_round = max(
                int(offset) + part.rounds_processed for offset, part in zip(offsets, parts)
            )
        combined = [
            (arrival + int(offset), priority, element)
            for part, offset in zip(parts, offsets)
            for arrival, priority, element in part._candidates
        ]
        combined.sort(key=lambda candidate: candidate[0])
        merged = ReferenceSlidingWindowSampler(
            self.capacity,
            self.window,
            seed=rng if rng is not None else spawn_generators(self._rng, 1)[0],
        )
        cutoff = total_round - self.window
        merged._candidates = [candidate for candidate in combined if candidate[0] > cutoff]
        merged._prune()
        merged._round = total_round
        return merged

    @property
    def sample(self) -> Sequence[Any]:
        return [element for _arrival, _priority, element in self._current_sample_entries()]

    def reset(self) -> None:
        self._candidates = []
        self._round = 0

    def _expire(self, current_round: int) -> None:
        cutoff = current_round - self.window
        if cutoff > 0:
            self._candidates = [candidate for candidate in self._candidates if candidate[0] > cutoff]

    def _prune(self) -> None:
        """Drop every candidate that ``capacity`` surviving newer ones dominate."""
        kept: list[tuple[int, float, Any]] = []
        for candidate in reversed(self._candidates):
            dominators = sum(1 for newer in kept if newer[1] < candidate[1])
            if dominators < self.capacity:
                kept.append(candidate)
        kept.reverse()
        self._candidates = kept

    def _current_sample_entries(self) -> list[tuple[int, float, Any]]:
        live = sorted(self._candidates, key=lambda candidate: candidate[1])
        return live[: self.capacity]
