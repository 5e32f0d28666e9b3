"""Micro-benchmarks for the game loop, the attacks and the discrepancy sweeps (P3/P4)."""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.adversary import (
    BisectionAdversary,
    GreedyDensityAdversary,
    ThresholdAttackAdversary,
    UniformAdversary,
    run_adaptive_game,
)
from repro.samplers import BernoulliSampler, ReservoirSampler
from repro.setsystems import IntervalSystem, Prefix, PrefixSystem, RectangleSystem, SingletonSystem
from repro.streams.generators import clustered_points

# The per-candidate box judge is kept beside the tests as their oracle.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from reference_judges import reference_box_discrepancy  # noqa: E402

STREAM_LENGTH = 5_000
UNIVERSE = 4_096


def test_perf_game_static_uniform(benchmark):
    def run():
        result = run_adaptive_game(
            ReservoirSampler(200, seed=0),
            UniformAdversary(UNIVERSE, seed=0),
            STREAM_LENGTH,
            keep_updates=False,
        )
        return result.sample_size

    assert benchmark(run) == 200


def test_perf_game_figure3_attack(benchmark):
    def run():
        adversary = ThresholdAttackAdversary.for_reservoir(50, STREAM_LENGTH)
        result = run_adaptive_game(
            ReservoirSampler(50, seed=0), adversary, STREAM_LENGTH, keep_updates=False
        )
        return result.sample_size

    assert benchmark(run) == 50


def test_perf_game_bisection_attack(benchmark):
    def run():
        result = run_adaptive_game(
            BernoulliSampler(0.05, seed=0),
            BisectionAdversary(),
            STREAM_LENGTH,
            keep_updates=False,
        )
        return result.stream_length

    assert benchmark(run) == STREAM_LENGTH


def test_perf_game_greedy_attack(benchmark):
    def run():
        adversary = GreedyDensityAdversary(Prefix(UNIVERSE // 2), 1, UNIVERSE)
        result = run_adaptive_game(
            ReservoirSampler(200, seed=0), adversary, STREAM_LENGTH, keep_updates=False
        )
        return result.stream_length

    assert benchmark(run) == STREAM_LENGTH


@pytest.fixture(scope="module")
def discrepancy_data() -> tuple[list[int], list[int]]:
    rng = np.random.default_rng(3)
    stream = [int(x) for x in rng.integers(1, UNIVERSE + 1, size=STREAM_LENGTH)]
    sample = stream[:: STREAM_LENGTH // 400]
    return stream, sample


def test_perf_prefix_discrepancy(benchmark, discrepancy_data):
    stream, sample = discrepancy_data
    system = PrefixSystem(UNIVERSE)
    result = benchmark(system.max_discrepancy, stream, sample)
    assert 0.0 <= result.error <= 1.0


def test_perf_interval_discrepancy(benchmark, discrepancy_data):
    stream, sample = discrepancy_data
    system = IntervalSystem(UNIVERSE)
    result = benchmark(system.max_discrepancy, stream, sample)
    assert 0.0 <= result.error <= 1.0


def test_perf_singleton_discrepancy(benchmark, discrepancy_data):
    stream, sample = discrepancy_data
    system = SingletonSystem(UNIVERSE)
    result = benchmark(system.max_discrepancy, stream, sample)
    assert 0.0 <= result.error <= 1.0


def test_perf_exact_bigint_discrepancy(benchmark):
    # The exact-arithmetic fallback used by the Figure-3 attack streams.
    base = 2**200
    stream = [base + 37 * i for i in range(2_000)]
    sample = stream[::20]
    system = PrefixSystem(2**220)
    result = benchmark(system.max_discrepancy, stream, sample)
    assert 0.0 <= result.error <= 1.0


@pytest.mark.parametrize(
    ("side", "clusters", "cap", "exact"),
    [(32, 16, 200_000, False), (16, 4, 2_000_000, True)],
    ids=["e9-sampled", "side16-exact"],
)
def test_perf_box_discrepancy(side, clusters, cap, exact):
    """Gate: the prefix-sum box judge is >= 10x the per-candidate loop, bit for bit.

    E9 scale: 2000 clustered points on a side-32 grid, whose ~279k candidate
    boxes exceed E9's 200k cap, so the sampled branch runs; side 16 takes the
    exact branch.  One timed shot each (the loop takes seconds).
    """
    stream = clustered_points(2_000, side, 2, clusters=clusters, seed=0)
    sample = stream[::10]

    start = time.perf_counter()
    fast = RectangleSystem(side, 2, max_exact_candidates=cap, seed=1).max_discrepancy(
        stream, sample
    )
    fast_seconds = time.perf_counter() - start

    start = time.perf_counter()
    slow = reference_box_discrepancy(
        RectangleSystem(side, 2, max_exact_candidates=cap, seed=1), stream, sample
    )
    slow_seconds = time.perf_counter() - start

    assert fast == slow
    assert fast.exact is exact
    speedup = slow_seconds / fast_seconds
    assert speedup >= 10.0, (
        f"box judge is only {speedup:.1f}x faster ({fast_seconds:.3f}s vs {slow_seconds:.2f}s)"
    )
