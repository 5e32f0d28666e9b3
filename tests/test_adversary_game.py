"""Tests for the game runners (Figures 1 and 2) and the static adversaries."""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversary import (
    BatchGameRunner,
    GeneratorAdversary,
    SortedAdversary,
    StaticAdversary,
    UniformAdversary,
    ZipfAdversary,
    run_adaptive_game,
    run_continuous_game,
)
from repro.exceptions import ConfigurationError, StreamExhaustedError
from repro.samplers import BernoulliSampler, ReservoirSampler
from repro.setsystems import PrefixSystem


class TestStaticAdversaries:
    def test_static_adversary_replays_stream(self):
        adversary = StaticAdversary([5, 4, 3])
        elements = [adversary.next_element(i, None) for i in range(1, 4)]
        assert elements == [5, 4, 3]

    def test_static_adversary_exhaustion(self):
        adversary = StaticAdversary([1])
        adversary.next_element(1, None)
        with pytest.raises(StreamExhaustedError):
            adversary.next_element(2, None)

    def test_static_adversary_reset(self):
        adversary = StaticAdversary([1, 2])
        adversary.next_element(1, None)
        adversary.reset()
        assert adversary.remaining == 2

    def test_empty_static_stream_rejected(self):
        with pytest.raises(ConfigurationError):
            StaticAdversary([])

    def test_uniform_adversary_stays_in_universe(self, rng):
        adversary = UniformAdversary(100, seed=rng)
        values = [adversary.next_element(i, None) for i in range(1, 201)]
        assert all(1 <= value <= 100 for value in values)

    def test_sorted_adversary_is_identity(self):
        adversary = SortedAdversary()
        assert [adversary.next_element(i, None) for i in (1, 2, 3)] == [1, 2, 3]

    def test_sorted_adversary_respects_universe_limit(self):
        adversary = SortedAdversary(universe_size=2)
        adversary.next_element(1, None)
        adversary.next_element(2, None)
        with pytest.raises(StreamExhaustedError):
            adversary.next_element(3, None)

    def test_zipf_adversary_heavy_tail(self, rng):
        adversary = ZipfAdversary(1000, exponent=1.5, seed=rng)
        values = [adversary.next_element(i, None) for i in range(1, 501)]
        assert all(1 <= value <= 1000 for value in values)
        # Zipf streams concentrate on small values.
        assert sum(1 for value in values if value <= 5) > len(values) * 0.4

    def test_zipf_invalid_exponent(self):
        with pytest.raises(ConfigurationError):
            ZipfAdversary(100, exponent=1.0)

    def test_generator_adversary_reset_reproduces(self):
        adversary = GeneratorAdversary(lambda i, rng: int(rng.integers(0, 100)), seed=3)
        first = [adversary.next_element(i, None) for i in range(1, 11)]
        adversary.reset()
        second = [adversary.next_element(i, None) for i in range(1, 11)]
        assert first == second


class TestAdaptiveGame:
    def test_game_runs_requested_rounds(self, rng):
        result = run_adaptive_game(
            BernoulliSampler(0.5, seed=rng), UniformAdversary(50, seed=rng), 100
        )
        assert result.stream_length == 100
        assert len(result.updates) == 100

    def test_game_without_set_system_has_no_verdict(self, rng):
        result = run_adaptive_game(
            BernoulliSampler(0.5, seed=rng), UniformAdversary(50, seed=rng), 20
        )
        assert result.error is None
        assert result.succeeded is None

    def test_game_with_set_system_scores_error(self, rng):
        system = PrefixSystem(50)
        result = run_adaptive_game(
            ReservoirSampler(40, seed=rng),
            UniformAdversary(50, seed=rng),
            200,
            set_system=system,
            epsilon=0.5,
        )
        assert 0.0 <= result.error <= 1.0
        assert result.succeeded is True

    def test_epsilon_without_system_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            run_adaptive_game(
                BernoulliSampler(0.5, seed=rng),
                UniformAdversary(50, seed=rng),
                10,
                epsilon=0.1,
            )

    def test_invalid_stream_length_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            run_adaptive_game(
                BernoulliSampler(0.5, seed=rng), UniformAdversary(50, seed=rng), 0
            )

    def test_empty_final_sample_scores_error_one(self):
        system = PrefixSystem(50)
        result = run_adaptive_game(
            BernoulliSampler(1e-9, seed=0),
            UniformAdversary(50, seed=1),
            50,
            set_system=system,
            epsilon=0.2,
        )
        assert result.error == 1.0
        assert result.succeeded is False

    def test_keep_updates_false_drops_log(self, rng):
        result = run_adaptive_game(
            BernoulliSampler(0.5, seed=rng),
            UniformAdversary(50, seed=rng),
            30,
            keep_updates=False,
        )
        assert result.updates == []

    def test_total_accepted_counts_accept_events(self, rng):
        result = run_adaptive_game(
            BernoulliSampler(1.0, seed=rng), UniformAdversary(50, seed=rng), 25
        )
        assert result.total_accepted == 25

    def test_knowledge_oblivious_hides_state(self, rng):
        class Spy(UniformAdversary):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.seen = []

            def next_element(self, round_index, observed_sample):
                self.seen.append(observed_sample)
                return super().next_element(round_index, observed_sample)

        # Overriding next_element reverts the adversary to per-round
        # decision points even under default chunking, so the spy sees
        # every round.
        spy = Spy(10, seed=rng)
        run_adaptive_game(BernoulliSampler(0.5, seed=rng), spy, 10, knowledge="oblivious")
        assert len(spy.seen) == 10 and all(view is None for view in spy.seen)

    def test_knowledge_full_exposes_sample(self, rng):
        class Spy(UniformAdversary):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.seen_sizes = []

            def next_element(self, round_index, observed_sample):
                # The view is live state; record its size at observation time.
                self.seen_sizes.append(
                    None if observed_sample is None else len(observed_sample)
                )
                return super().next_element(round_index, observed_sample)

        spy = Spy(10, seed=rng)
        run_adaptive_game(BernoulliSampler(1.0, seed=rng), spy, 5, knowledge="full")
        # Before round i the sample holds i - 1 elements (probability 1 here).
        assert spy.seen_sizes == [0, 1, 2, 3, 4]

    def test_overridden_next_element_is_honoured_under_default_chunking(self, rng):
        """Subclasses of the vectorised static adversaries that override the
        per-round hook must not be silently bypassed by the batched
        next_elements (regression)."""

        class ConstantAttack(UniformAdversary):
            def next_element(self, round_index, observed_sample):
                return 7

        result = run_adaptive_game(
            BernoulliSampler(0.5, seed=rng), ConstantAttack(10, seed=rng), 50
        )
        assert result.stream == [7] * 50

        class EveryOther(StaticAdversary):
            def next_element(self, round_index, observed_sample):
                element = super().next_element(round_index, observed_sample)
                return -element if round_index % 2 else element

        chunked = run_adaptive_game(
            BernoulliSampler(0.5, seed=1), EveryOther(list(range(1, 41))), 40
        )
        per_element = run_adaptive_game(
            BernoulliSampler(0.5, seed=1), EveryOther(list(range(1, 41))), 40, chunk_size=1
        )
        assert chunked.stream == per_element.stream


class TestContinuousGame:
    def test_checkpoints_default_to_geometric_schedule(self, rng):
        system = PrefixSystem(50)
        result = run_continuous_game(
            ReservoirSampler(30, seed=rng),
            UniformAdversary(50, seed=rng),
            200,
            set_system=system,
            epsilon=0.4,
        )
        assert result.checkpoints[0] == 1
        assert result.checkpoints[-1] == 200
        assert len(result.checkpoint_errors) == len(result.checkpoints)

    def test_explicit_checkpoints_respected(self, rng):
        system = PrefixSystem(50)
        result = run_continuous_game(
            ReservoirSampler(30, seed=rng),
            UniformAdversary(50, seed=rng),
            100,
            set_system=system,
            checkpoints=[10, 50, 100],
        )
        assert result.checkpoints == [10, 50, 100]

    def test_out_of_range_checkpoint_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            run_continuous_game(
                ReservoirSampler(5, seed=rng),
                UniformAdversary(50, seed=rng),
                20,
                set_system=PrefixSystem(50),
                checkpoints=[25],
            )

    def test_first_violation_and_success_flags(self, rng):
        system = PrefixSystem(50)
        result = run_continuous_game(
            ReservoirSampler(45, seed=rng),
            UniformAdversary(50, seed=rng),
            300,
            set_system=system,
            epsilon=0.5,
        )
        assert result.continuously_succeeded is True
        assert result.first_violation is None

    def test_max_checkpoint_error_at_least_final_error(self, rng):
        system = PrefixSystem(50)
        result = run_continuous_game(
            ReservoirSampler(20, seed=rng),
            UniformAdversary(50, seed=rng),
            150,
            set_system=system,
            epsilon=0.4,
            checkpoints=list(range(1, 151)),
        )
        assert result.max_checkpoint_error >= result.error - 1e-12


class TestRunnerBoundary:
    """Game sizes must be integers and the knowledge model a known one;
    anything else is rejected before a round is played."""

    @staticmethod
    def _adaptive(stream_length=40, **kwargs):
        return run_adaptive_game(
            BernoulliSampler(0.5, seed=1), UniformAdversary(16, seed=2), stream_length, **kwargs
        )

    @staticmethod
    def _continuous(checkpoints, stream_length=40, **kwargs):
        return run_continuous_game(
            BernoulliSampler(0.5, seed=1),
            UniformAdversary(16, seed=2),
            stream_length,
            set_system=PrefixSystem(16),
            checkpoints=checkpoints,
            **kwargs,
        )

    @pytest.mark.parametrize("stream_length", [5000.5, 40.0, True, "40"])
    def test_non_integral_stream_length_rejected(self, stream_length):
        with pytest.raises(ConfigurationError, match="stream length must be an integer"):
            self._adaptive(stream_length)
        with pytest.raises(ConfigurationError, match="stream length must be an integer"):
            self._continuous(None, stream_length=stream_length)

    @pytest.mark.parametrize("checkpoints", [[10.5, 20.9], (10, True), [np.float64(20)]])
    def test_non_integral_checkpoints_rejected(self, checkpoints):
        with pytest.raises(ConfigurationError, match="checkpoint must be an integer"):
            self._continuous(checkpoints)

    @pytest.mark.parametrize("chunk_size", [2.7, 4.0, True])
    def test_non_integral_chunk_size_rejected(self, chunk_size):
        with pytest.raises(ConfigurationError, match="chunk size must be an integer"):
            self._adaptive(chunk_size=chunk_size)
        with pytest.raises(ConfigurationError, match="chunk size must be an integer"):
            self._continuous(None, chunk_size=chunk_size)

    def test_numpy_integers_accepted(self):
        result = self._continuous(np.arange(10, 41, 10), chunk_size=np.int32(7))
        assert result.checkpoints == [10, 20, 30, 40]
        assert all(type(c) is int for c in result.checkpoints)
        assert self._adaptive(np.int64(40), chunk_size=np.int64(3)).stream_length == 40

    @pytest.mark.parametrize("knowledge", ["oblivous", "FULL", None])
    def test_unknown_knowledge_model_rejected(self, knowledge):
        with pytest.raises(ConfigurationError, match="unknown knowledge model"):
            self._adaptive(knowledge=knowledge)
        with pytest.raises(ConfigurationError, match="unknown knowledge model"):
            self._continuous(None, knowledge=knowledge)
        with pytest.raises(ConfigurationError, match="unknown knowledge model"):
            BatchGameRunner(40, knowledge=knowledge)

    def test_batch_runner_rejects_non_integral_sizes(self):
        with pytest.raises(ConfigurationError, match="stream length must be an integer"):
            BatchGameRunner(40.5)
        with pytest.raises(ConfigurationError, match="checkpoint must be an integer"):
            BatchGameRunner(40, set_system=PrefixSystem(16), continuous=True, checkpoints=[10.5])
