"""Differential oracle: the segmented game runners vs the per-round loop.

Both runners in :mod:`repro.adversary.game` play the stream as committed
segments.  :mod:`reference_game` keeps the historical one-round-at-a-time
game; this module requires the two to realise the same stream, sample,
final error, checkpoint errors and update record for every adversary
family, knowledge model and chunk size, against the samplers whose
segment kernels are bit-identical to ``process`` (Bernoulli at any chunk
size, the plain reservoir only at ``chunk_size=1``: its ``extend`` consumes
coins in batch order).
"""

from __future__ import annotations

import pytest

from reference_game import reference_adaptive_game, reference_continuous_game
from test_adversary_cadence import ATTACK_FACTORIES, UNIVERSE

from repro.adversary import (
    Adversary,
    SortedAdversary,
    StaticAdversary,
    UniformAdversary,
    ZipfAdversary,
    run_adaptive_game,
    run_continuous_game,
)
from repro.adversary.game import KNOWLEDGE_MODELS
from repro.samplers import BernoulliSampler, ReservoirSampler
from repro.setsystems import ContinuousPrefixSystem, PrefixSystem

ROUNDS = 300
CHECKPOINTS = range(37, ROUNDS + 1, 37)


class EchoSampleSize(Adversary):
    """A bare per-round adversary that reads both feedback channels."""

    name = "echo-sample-size"

    def __init__(self) -> None:
        self.accepted = 0

    def next_element(self, round_index, observed_sample):
        seen = 0 if observed_sample is None else len(observed_sample)
        return (seen + self.accepted + round_index) % UNIVERSE

    def observe_update(self, update):
        self.accepted += update.accepted


#: name -> (adversary factory, set system judging it).  The attack
#: families' universes range up to huge integers, so they are judged by the
#: continuous prefix system (no tracker); the universe-sized adversaries
#: go through the incremental prefix tracker.
ADVERSARIES = {
    **{
        f"{family}-p{period}": (
            lambda factory=factory, period=period: factory(period),
            ContinuousPrefixSystem(0.0, 2.0**901),
        )
        for family, factory in ATTACK_FACTORIES.items()
        for period in (1, 32)
    },
    "uniform": (lambda: UniformAdversary(UNIVERSE, seed=3), PrefixSystem(UNIVERSE)),
    "static": (
        lambda: StaticAdversary([(7 * i) % UNIVERSE for i in range(ROUNDS)]),
        PrefixSystem(UNIVERSE),
    ),
    "zipf": (lambda: ZipfAdversary(UNIVERSE, seed=4), PrefixSystem(UNIVERSE)),
    "sorted": (lambda: SortedAdversary(ROUNDS), PrefixSystem(ROUNDS + 1)),
    "per-round": (EchoSampleSize, PrefixSystem(UNIVERSE)),
}

SAMPLERS = {
    "bernoulli": (lambda: BernoulliSampler(0.08, seed=11), (1, 37, None)),
    "reservoir": (lambda: ReservoirSampler(16, seed=12), (1,)),
}

CASES = [
    pytest.param(sampler, adversary, chunk, id=f"{sampler}-{adversary}-chunk{chunk}")
    for sampler, (_, chunks) in SAMPLERS.items()
    for adversary in ADVERSARIES
    for chunk in chunks
]


@pytest.mark.parametrize("continuous", [False, True], ids=["adaptive", "continuous"])
@pytest.mark.parametrize("knowledge", KNOWLEDGE_MODELS)
@pytest.mark.parametrize("sampler_name, adversary_name, chunk_size", CASES)
def test_runner_matches_per_round_reference(
    sampler_name, adversary_name, chunk_size, knowledge, continuous
):
    make_sampler = SAMPLERS[sampler_name][0]
    make_adversary, set_system = ADVERSARIES[adversary_name]
    if continuous:
        game = dict(set_system=set_system, checkpoints=CHECKPOINTS, knowledge=knowledge)
        reference = reference_continuous_game(make_sampler(), make_adversary(), ROUNDS, **game)
        result = run_continuous_game(
            make_sampler(), make_adversary(), ROUNDS, chunk_size=chunk_size, **game
        )
        assert result.checkpoints == reference.checkpoints
        assert result.checkpoint_errors == reference.checkpoint_errors
    else:
        game = dict(set_system=set_system, knowledge=knowledge)
        reference = reference_adaptive_game(make_sampler(), make_adversary(), ROUNDS, **game)
        result = run_adaptive_game(
            make_sampler(), make_adversary(), ROUNDS, chunk_size=chunk_size, **game
        )
    assert result.stream == reference.stream
    assert result.sample == reference.sample
    assert result.error == reference.error
    assert result.updates == reference.updates
