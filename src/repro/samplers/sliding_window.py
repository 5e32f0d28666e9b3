"""Uniform sampling over a sliding window of the most recent elements.

Many of the systems the paper motivates (network devices, trading monitors)
care about the *recent* stream rather than the full history.  This sampler
maintains a uniform sample of the last ``window`` elements using the
priority-based technique: each element receives a uniform priority, and the
sample consists of the ``k`` smallest-priority elements among the window's
live elements.  To answer that query exactly with bounded memory the sampler
keeps, per rank, only the candidates that could still become one of the ``k``
minima before they expire — the classical "chain/priority sampling over
sliding windows" idea.  Memory is ``O(k log window)`` in expectation.

The adversarial experiments exercise it as an extension subject: the paper's
guarantees are stated for whole-stream sampling, and the sliding-window
variant inherits them per window via the same union-bound argument.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Sequence
from itertools import chain
from operator import itemgetter
from typing import Any

from ..exceptions import ConfigurationError, require_int
from ..rng import RandomState, ensure_generator, spawn_generators
from .base import SampleUpdate, StreamSampler, UpdateBatch

#: ``(arrival_index, priority, element)``.
Candidate = tuple[int, float, Any]


class SlidingWindowSampler(StreamSampler):
    """Uniform ``k``-sample over the last ``window`` stream elements.

    Parameters
    ----------
    capacity:
        Target sample size ``k``.
    window:
        Window length ``w``; only the most recent ``w`` elements are eligible.
    seed:
        Seed or generator for priorities.
    """

    name = "sliding-window"

    #: This family's :meth:`merge` takes per-part trailing offsets (each
    #: part's window covers the most recent stretch of its substream), so
    #: coordinators must pass them; see ``ShardedSampler.merged_sampler``.
    merge_wants_offsets = True

    def __init__(self, capacity: int, window: int, seed: RandomState = None) -> None:
        super().__init__()
        capacity = require_int(capacity, "capacity")
        window = require_int(window, "window")
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        if window < capacity:
            raise ConfigurationError(
                f"window ({window}) must be at least the capacity ({capacity})"
            )
        self.capacity = capacity
        self.window = window
        self._rng = ensure_generator(seed)
        # Candidates, kept sorted by arrival, and beside each its dominator
        # count: how many later arrivals have a strictly smaller priority.  A
        # candidate is dropped once its count reaches `capacity` (it can then
        # never re-enter the sample before expiring).  The counts may include
        # later arrivals that were dropped themselves: a dropped dominator
        # has `capacity` dominators of its own, so either way the count
        # reaches `capacity` exactly when `capacity` surviving later
        # candidates dominate.
        self._candidates: list[Candidate] = []
        self._counts: list[int] = []
        self._sample_entries: list[Candidate] | None = None

    # ------------------------------------------------------------------
    # StreamSampler interface
    # ------------------------------------------------------------------
    def _process(self, element: Any) -> SampleUpdate:
        arrival = self.rounds_processed
        priority = float(self._rng.random())
        cutoff = arrival - self.window
        capacity = self.capacity
        candidates: list[Candidate] = []
        counts: list[int] = []
        # Survivors with priority <= the new one; ties sort older first, so
        # the new element joins the k smallest iff fewer than k precede it.
        smaller = 0
        for candidate, count in zip(self._candidates, self._counts):
            if candidate[0] <= cutoff:
                continue
            if candidate[1] > priority:
                count += 1
                if count >= capacity:
                    continue
            else:
                smaller += 1
            candidates.append(candidate)
            counts.append(count)
        candidates.append((arrival, priority, element))
        counts.append(0)
        self._set_candidates(candidates, counts)
        return SampleUpdate(round_index=arrival, element=element, accepted=smaller < capacity)

    def extend(
        self, elements: Iterable[Any], updates: bool = True
    ) -> UpdateBatch | None:
        """Vectorised batch ingestion; the resulting state is bit-identical
        to sequential processing.

        All priorities come from one ``Generator.random(n)`` draw (the same
        bit-stream consumption as ``n`` scalar draws).  The surviving
        candidate set after a batch is characterised without replaying the
        intermediate states: a candidate is live iff it has not expired by
        the batch's final round, and kept iff fewer than ``capacity``
        surviving later arrivals have strictly smaller priorities — the same
        fixed point :meth:`process` maintains through its dominator counts
        (dominators expire no earlier than the candidates they dominate, so
        dropping early never changes the final set).  The kernel therefore
        scans the batch newest-to-oldest with a single float comparison per
        rejected element and a sorted insert per survivor (``O(k log w)``
        expected survivors).

        The per-element ``accepted`` flag is defined against each
        intermediate state, so ``updates=True`` takes the sequential path
        (identical draws, identical state — just slower); batch callers that
        do not consume per-round records should pass ``updates=False``.
        """
        if updates:
            return super().extend(elements, True)
        elements = list(elements)
        if not elements:
            return None
        n = len(elements)
        priorities = self._rng.random(n)
        self._round += n
        # Only the trailing `window` batch elements can be live at the end.
        live = min(n, self.window)
        newest_batch = zip(
            range(self._round, self._round - live, -1),
            priorities[n - live :][::-1].tolist(),
            reversed(elements),
        )
        self._set_candidates(
            *self._survivors(chain(newest_batch, reversed(self._candidates)), self._round)
        )
        return None

    def merge(
        self,
        others: Sequence["SlidingWindowSampler"],
        *,
        rng: RandomState | None = None,
        offsets: Sequence[int] | None = None,
    ) -> "SlidingWindowSampler":
        """Merge sharded sliding-window samplers into one window summary.

        Each part's priority-tagged candidates are shifted to global arrival
        indices (``offsets``, defaulting to consecutive substreams: part
        ``i`` starts where part ``i-1`` ended), combined, and re-run through
        the same expiry + domination fixed point as the batch kernel.  For
        consecutive substreams the result is **bit-identical** to a single
        sampler that consumed the concatenated stream with the same
        priorities: local pruning only ever removes candidates whose
        dominators arrived later at the same part — later globally too — so
        the combined fixed point is unchanged (the same argument that makes
        the chunked ``extend`` kernel exact).

        For interleaved substreams (sharded routing) no offset assignment
        reconstructs global arrival order; the merged *candidate set* is then
        approximate, but the merged ``sample`` — the ``capacity`` smallest
        priorities among all live candidates — never depends on arrival
        order and remains exactly the priority rule applied to the union of
        the parts' windows.  Deterministic; the parts are not mutated.
        """
        parts = self._validate_merge_parts(others)
        if offsets is None:
            offsets = []
            start = 0
            for part in parts:
                offsets.append(start)
                start += part.rounds_processed
            total_round = start
        else:
            if len(offsets) != len(parts):
                raise ConfigurationError(
                    f"expected {len(parts)} offsets, got {len(offsets)}"
                )
            total_round = max(
                int(offset) + part.rounds_processed
                for offset, part in zip(offsets, parts)
            )
        combined = [
            (arrival + int(offset), priority, element)
            for part, offset in zip(parts, offsets)
            for arrival, priority, element in part._candidates
        ]
        combined.sort(key=lambda candidate: candidate[0])
        merged = SlidingWindowSampler(
            self.capacity,
            self.window,
            seed=rng if rng is not None else spawn_generators(self._rng, 1)[0],
        )
        merged._set_candidates(*self._survivors(reversed(combined), total_round))
        merged._round = total_round
        return merged

    def _validate_merge_parts(
        self, others: Sequence["SlidingWindowSampler"]
    ) -> list["SlidingWindowSampler"]:
        parts = [self, *others]
        for part in parts:
            if not isinstance(part, SlidingWindowSampler):
                raise ConfigurationError(
                    f"cannot merge a SlidingWindowSampler with {type(part).__name__}"
                )
            if part.capacity != self.capacity or part.window != self.window:
                raise ConfigurationError(
                    "cannot merge sliding windows with different geometry: "
                    f"({self.capacity}, {self.window}) vs ({part.capacity}, {part.window})"
                )
        return parts

    @property
    def sample(self) -> Sequence[Any]:
        return [element for _arrival, _priority, element in self._current_sample_entries()]

    def reset(self) -> None:
        self._set_candidates([], [])
        self._round = 0

    def memory_footprint(self) -> int:
        return len(self._candidates)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _set_candidates(self, candidates: list[Candidate], counts: list[int]) -> None:
        self._candidates = candidates
        self._counts = counts
        self._sample_entries = None

    def _survivors(
        self, newest_first: Iterable[Candidate], final_round: int
    ) -> tuple[list[Candidate], list[int]]:
        """The expiry + domination fixed point of candidates sorted by arrival.

        Scans ``newest_first`` until the first candidate expired at
        ``final_round`` and keeps a candidate iff fewer than ``capacity``
        kept newer ones have strictly smaller priorities; that number, its
        ``bisect_left`` rank among the kept priorities, is its dominator
        count.  Returns the kept candidates in arrival order with their counts.
        """
        cutoff = final_round - self.window
        capacity = self.capacity
        kept: list[Candidate] = []
        counts: list[int] = []
        priorities: list[float] = []
        # The capacity-th smallest kept priority: anything above it has
        # `capacity` dominators.
        threshold = float("inf")
        for candidate in newest_first:
            priority = candidate[1]
            if priority > threshold:
                continue
            if candidate[0] <= cutoff:
                break
            rank = bisect_left(priorities, priority)
            priorities.insert(rank, priority)
            kept.append(candidate)
            counts.append(rank)
            if len(priorities) >= capacity:
                threshold = priorities[capacity - 1]
        kept.reverse()
        counts.reverse()
        return kept, counts

    def _current_sample_entries(self) -> list[Candidate]:
        """The ``capacity`` smallest-priority candidates (ties: older first), cached."""
        if self._sample_entries is None:
            self._sample_entries = sorted(self._candidates, key=itemgetter(1))[: self.capacity]
        return self._sample_entries
