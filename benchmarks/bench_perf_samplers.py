"""Per-element throughput micro-benchmarks for every sampler and summary (P1/P2)."""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.samplers import (
    BernoulliSampler,
    GreenwaldKhannaSketch,
    KLLSketch,
    MergeReduceSummary,
    MisraGriesSummary,
    PrioritySampler,
    ReservoirSampler,
    SlidingWindowSampler,
    WeightedReservoirSampler,
)

# The rebuild-per-round sliding window is kept beside the tests as their oracle.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from reference_window import ReferenceSlidingWindowSampler  # noqa: E402

STREAM_LENGTH = 20_000


@pytest.fixture(scope="module")
def workload() -> list[int]:
    rng = np.random.default_rng(0)
    return [int(x) for x in rng.integers(1, 100_000, size=STREAM_LENGTH)]


def test_perf_bernoulli_sampler(benchmark, workload):
    def run():
        sampler = BernoulliSampler(0.05, seed=1)
        sampler.extend(workload)
        return sampler.sample_size

    assert benchmark(run) > 0


def test_perf_reservoir_sampler(benchmark, workload):
    def run():
        sampler = ReservoirSampler(500, seed=1)
        sampler.extend(workload)
        return sampler.sample_size

    assert benchmark(run) == 500


def test_perf_weighted_reservoir_sampler(benchmark, workload):
    def run():
        sampler = WeightedReservoirSampler(500, seed=1)
        sampler.extend(workload)
        return sampler.sample_size

    assert benchmark(run) == 500


def test_perf_priority_sampler(benchmark, workload):
    def run():
        sampler = PrioritySampler(500, seed=1)
        sampler.extend(workload)
        return sampler.sample_size

    assert benchmark(run) == 500


def test_perf_sliding_window_sampler(benchmark, workload):
    # The sliding-window sampler's per-element cost scales with k log(window),
    # so its micro-benchmark uses a smaller configuration and stream slice.
    window_workload = workload[:4000]

    def run():
        sampler = SlidingWindowSampler(20, 500, seed=1)
        sampler.extend(window_workload)
        return sampler.sample_size

    assert benchmark(run) == 20


def test_perf_sliding_window_process(workload):
    """Gate: adaptive-game rounds on the sliding window are >= 5x the reference, bit for bit.

    The adaptive game's access pattern: one ``process`` per element and a
    ``sample`` read after each, 2*10^4 elements at (k, w) = (32, 256), against
    the rebuild-per-round sampler in ``tests/reference_window.py``.  One timed
    shot each (the reference takes seconds).
    """

    def play(sampler):
        start = time.perf_counter()
        accepted = []
        for element in workload:
            accepted.append(sampler.process(element).accepted)
            sampler.sample
        return time.perf_counter() - start, accepted

    fast = SlidingWindowSampler(32, 256, seed=1)
    slow = ReferenceSlidingWindowSampler(32, 256, seed=1)
    fast_seconds, fast_accepted = play(fast)
    slow_seconds, slow_accepted = play(slow)

    assert fast_accepted == slow_accepted
    assert fast._candidates == slow._candidates
    assert fast.sample == slow.sample
    assert fast._rng.bit_generator.state == slow._rng.bit_generator.state
    speedup = slow_seconds / fast_seconds
    assert speedup >= 5.0, (
        f"sliding window is only {speedup:.1f}x faster "
        f"({fast_seconds:.3f}s vs {slow_seconds:.2f}s)"
    )


def test_perf_greenwald_khanna(benchmark, workload):
    def run():
        sketch = GreenwaldKhannaSketch(0.05)
        sketch.extend(workload)
        return sketch.memory_footprint()

    assert benchmark(run) > 0


def test_perf_merge_reduce(benchmark, workload):
    def run():
        summary = MergeReduceSummary(0.05)
        summary.extend(workload)
        return summary.memory_footprint()

    assert benchmark(run) > 0


def test_perf_misra_gries(benchmark, workload):
    def run():
        summary = MisraGriesSummary(100)
        summary.extend(workload)
        return summary.count

    assert benchmark(run) == STREAM_LENGTH


def test_perf_kll(benchmark, workload):
    def run():
        sketch = KLLSketch(k=200, seed=1)
        sketch.extend(workload)
        return sketch.count

    assert benchmark(run) == STREAM_LENGTH
