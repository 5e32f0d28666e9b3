"""Differential oracle: the incremental sliding window vs the rebuild-per-round rules.

:class:`repro.samplers.SlidingWindowSampler` keeps a dominator count per
candidate and updates the counts in one pass per arrival; ``extend`` and
``merge`` rebuild them in one newest-to-oldest scan.
:mod:`reference_window` keeps the historical rules (expire, append, rebuild
the whole candidate set, sort for the sample).  This module drives both
through the same random mix of ``process`` (reading ``sample`` after every
element, as the adaptive game does), ``extend`` with and without records at
random chunk sizes, ``reset`` and ``merge`` (default and trailing offsets),
and requires equal candidates, samples, ``accepted`` flags and generator
state after every operation.

Ties are pinned with a generator stand-in whose priorities come from
``{0.25, 0.5, 0.75}``: domination needs a strictly smaller priority, and a
new element is accepted iff fewer than ``capacity`` candidates have a
priority ``<=`` its own (the sample's stable sort puts older ties first).
"""

from __future__ import annotations

from typing import Any

import numpy as np
import pytest

from reference_window import ReferenceSlidingWindowSampler

from repro.samplers import SlidingWindowSampler

GEOMETRIES = [(k, w) for k in (1, 2, 32) for w in (k, k + 1, 256)]


class TiedPriorities:
    """Stands in for a sampler's generator; every priority is 0.25, 0.5 or 0.75.

    ``random(n)`` maps one ``Generator.random(n)`` draw, so a batch consumes
    the underlying generator exactly like ``n`` scalar draws.
    """

    def __init__(self, seed: int) -> None:
        self.generator = np.random.default_rng(seed)

    def random(self, size: int | None = None) -> Any:
        return (np.floor(self.generator.random(size) * 3) + 1) / 4


class FixedPriorities(TiedPriorities):
    """Hands out the given scalar priorities in order."""

    def __init__(self, priorities: list[float]) -> None:
        super().__init__(0)
        self.priorities = list(priorities)

    def random(self, size: int | None = None) -> Any:
        return self.priorities.pop(0)


def _make(capacity: int, window: int, seed: int, ties: bool) -> tuple[Any, Any]:
    new = SlidingWindowSampler(capacity, window, seed=seed)
    ref = ReferenceSlidingWindowSampler(capacity, window, seed=seed)
    if ties:
        new._rng, ref._rng = TiedPriorities(seed), TiedPriorities(seed)
    return new, ref


def _generator_state(sampler: Any) -> dict[str, Any]:
    rng = sampler._rng
    return getattr(rng, "generator", rng).bit_generator.state


def _assert_same(new: SlidingWindowSampler, ref: ReferenceSlidingWindowSampler) -> None:
    assert new._candidates == ref._candidates
    assert new.sample == ref.sample
    assert new.rounds_processed == ref.rounds_processed
    assert _generator_state(new) == _generator_state(ref)


def _chunk(script: np.random.Generator, window: int, start: int) -> list[int]:
    """Elements for one ``extend``: mostly short, sometimes about a window long."""
    if script.random() < 0.25:
        size = max(1, window + int(script.integers(-1, 2)))
    else:
        size = int(script.integers(1, min(window, 64) + 3))
    return list(range(start, start + size))


def _step(new: Any, ref: Any, script: np.random.Generator) -> None:
    """One random ingestion operation on both samplers, then a state check."""
    start = new.rounds_processed * 7 + 1
    op = script.integers(3)
    if op == 0:
        for element in range(start, start + int(script.integers(1, 24))):
            assert new.process(element) == ref.process(element)
            assert new.sample == ref.sample
    else:
        chunk = _chunk(script, new.window, start)
        records = bool(op == 1)
        new_batch = new.extend(chunk, updates=records)
        ref_batch = ref.extend(chunk, updates=records)
        if records:
            assert np.array_equal(new_batch.accepted, ref_batch.accepted)
            assert list(new_batch) == list(ref_batch)
        else:
            assert new_batch is None and ref_batch is None
    _assert_same(new, ref)


def _merge(
    new: Any, ref: Any, script: np.random.Generator, ties: bool, trailing: bool
) -> tuple[Any, Any]:
    """Merge both samplers with one or two freshly fed parts of the same geometry."""
    parts = [
        _make(new.capacity, new.window, int(script.integers(2**32)), ties)
        for _ in range(int(script.integers(1, 3)))
    ]
    for part_new, part_ref in parts:
        for _ in range(int(script.integers(1, 4))):
            _step(part_new, part_ref, script)
    others_new = [part_new for part_new, _ in parts]
    others_ref = [part_ref for _, part_ref in parts]
    offsets = None
    if trailing:
        # ShardedSampler.merged_sampler: each part's window is the most
        # recent stretch of its substream.
        sites = [new, *others_new]
        total = sum(site.rounds_processed for site in sites)
        offsets = [total - site.rounds_processed for site in sites]
    if ties or script.random() < 0.5:
        merge_seed = int(script.integers(2**32))
        merged_new = new.merge(others_new, rng=np.random.default_rng(merge_seed), offsets=offsets)
        merged_ref = ref.merge(others_ref, rng=np.random.default_rng(merge_seed), offsets=offsets)
    else:  # each merge spawns a child of its primary's own generator
        merged_new = new.merge(others_new, offsets=offsets)
        merged_ref = ref.merge(others_ref, offsets=offsets)
    if ties:
        merge_seed = int(script.integers(2**32))
        merged_new._rng = TiedPriorities(merge_seed)
        merged_ref._rng = TiedPriorities(merge_seed)
    _assert_same(merged_new, merged_ref)
    return merged_new, merged_ref


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("ties", [False, True], ids=["distinct", "tied"])
@pytest.mark.parametrize(("capacity", "window"), GEOMETRIES, ids=str)
def test_random_operation_mix(capacity, window, ties, seed):
    script = np.random.default_rng([capacity, window, int(ties), seed])
    new, ref = _make(capacity, window, seed, ties)
    for _ in range(40):
        draw = script.random()
        if draw < 0.04:
            new.reset()
            ref.reset()
            _assert_same(new, ref)
        elif draw < 0.12:
            new, ref = _merge(new, ref, script, ties, trailing=bool(script.integers(2)))
        else:
            _step(new, ref, script)


@pytest.mark.parametrize("trailing", [False, True], ids=["default-offsets", "trailing-offsets"])
@pytest.mark.parametrize("ties", [False, True], ids=["distinct", "tied"])
@pytest.mark.parametrize(("capacity", "window"), [(1, 2), (2, 2), (32, 256)], ids=str)
def test_process_after_merge(capacity, window, ties, trailing):
    """A merged sampler's counts carry the next rounds exactly like a rebuild."""
    script = np.random.default_rng([capacity, window, int(ties), int(trailing)])
    new, ref = _make(capacity, window, 5, ties)
    for _ in range(4):
        _step(new, ref, script)
    new, ref = _merge(new, ref, script, ties, trailing)
    start = new.rounds_processed + 1
    for element in range(start, start + 2 * window + 10):
        assert new.process(element) == ref.process(element)
        assert new.sample == ref.sample
    _assert_same(new, ref)


def test_tied_priorities_pin_domination_and_acceptance():
    """Equal priorities never dominate; an equal-priority arrival is accepted
    only while fewer than ``capacity`` older candidates have priority <= its own."""
    new, ref = _make(2, 8, 0, ties=True)
    for sampler in (new, ref):
        sampler._rng = FixedPriorities([0.5, 0.5, 0.5, 0.25, 0.5])
    flags = [(new.process(e).accepted, ref.process(e).accepted) for e in "abcde"]
    assert flags == [(True, True), (True, True), (False, False), (True, True), (False, False)]
    # `a`, `b` and `c` each have at most one strictly smaller newer priority
    # (`d`), so none is dominated.
    assert [element for _a, _p, element in new._candidates] == list("abcde")
    _assert_same(new, ref)
