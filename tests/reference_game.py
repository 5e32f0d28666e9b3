"""Reference game runners: the per-round loop, kept as a differential oracle.

:mod:`repro.adversary.game` plays both games of the paper as a sequence of
committed segments.  The runners below play them literally one round at a
time: one ``next_element`` request, one ``process`` call, and, under a
non-oblivious knowledge model, every update forwarded to
``observe_update``.  ``tests/test_game_oracle.py`` requires the package
runners to agree with them.

The result objects are the package's own, so callers compare ``stream``,
``sample``, ``error``, ``checkpoint_errors`` and ``updates`` field by field;
``updates`` is a plain list of :class:`~repro.samplers.base.SampleUpdate`.
"""

from __future__ import annotations

from typing import Any

from repro.adversary.base import Adversary
from repro.adversary.game import ContinuousGameResult, GameResult, normalize_checkpoints
from repro.exceptions import TrackerUnsupportedError
from repro.samplers.base import SampleUpdate, StreamSampler
from repro.setsystems.base import SetSystem


def _observed(sampler: StreamSampler, knowledge: str, adversary: Adversary) -> Any:
    if knowledge == "full" and adversary.will_observe_sample():
        return sampler.sample
    return None


def _play_round(
    sampler: StreamSampler,
    adversary: Adversary,
    knowledge: str,
    round_index: int,
    stream: list[Any],
    updates: list[SampleUpdate],
) -> Any:
    element = adversary.next_element(round_index, _observed(sampler, knowledge, adversary))
    update = sampler.process(element)
    stream.append(element)
    updates.append(update)
    if knowledge != "oblivious":
        adversary.observe_update(update)
    return element


def reference_adaptive_game(
    sampler: StreamSampler,
    adversary: Adversary,
    stream_length: int,
    set_system: SetSystem | None = None,
    epsilon: float | None = None,
    knowledge: str = "full",
) -> GameResult:
    """The AdaptiveGame of Figure 1, one round at a time."""
    stream: list[Any] = []
    updates: list[SampleUpdate] = []
    for round_index in range(1, stream_length + 1):
        _play_round(sampler, adversary, knowledge, round_index, stream, updates)
    sample = sampler.snapshot()
    error = witness = succeeded = None
    if set_system is not None:
        if len(sample) == 0:
            error = 1.0
        else:
            report = set_system.max_discrepancy(stream, sample)
            error, witness = report.error, report.witness
        if epsilon is not None:
            succeeded = error <= epsilon
    return GameResult(
        stream=stream,
        sample=sample,
        error=error,
        witness=witness,
        epsilon=epsilon,
        succeeded=succeeded,
        updates=updates,  # type: ignore[arg-type]
        sampler_name=sampler.name,
        adversary_name=adversary.name,
    )


def reference_continuous_game(
    sampler: StreamSampler,
    adversary: Adversary,
    stream_length: int,
    set_system: SetSystem,
    epsilon: float | None = None,
    checkpoints: Any = None,
    knowledge: str = "full",
) -> ContinuousGameResult:
    """The ContinuousAdaptiveGame of Figure 2, one round at a time.

    Uses the set system's incremental tracker while it accepts the stream,
    then the batch recomputation — the same judge the package runner uses.
    """
    checkpoint_list = normalize_checkpoints(checkpoints, stream_length, epsilon=epsilon)
    tracker = set_system.make_tracker(stream_length)
    stream: list[Any] = []
    updates: list[SampleUpdate] = []

    def judge(sample_now: tuple[Any, ...]) -> tuple[float, Any]:
        nonlocal tracker
        if len(sample_now) == 0:
            return 1.0, None
        if tracker is not None:
            try:
                report = tracker.checkpoint(sample_now)
                return report.error, report.witness
            except TrackerUnsupportedError:
                tracker = None
        report = set_system.max_discrepancy(stream, sample_now)
        return report.error, report.witness

    errors: list[float] = []
    next_checkpoint = 0
    for round_index in range(1, stream_length + 1):
        element = _play_round(sampler, adversary, knowledge, round_index, stream, updates)
        if tracker is not None:
            try:
                tracker.add(element)
            except TrackerUnsupportedError:
                tracker = None
        if next_checkpoint < len(checkpoint_list) and round_index == checkpoint_list[next_checkpoint]:
            errors.append(judge(sampler.snapshot())[0])
            next_checkpoint += 1
    sample = sampler.snapshot()
    final_error, witness = judge(sample)
    return ContinuousGameResult(
        stream=stream,
        sample=sample,
        error=final_error,
        witness=witness,
        epsilon=epsilon,
        succeeded=None if epsilon is None else final_error <= epsilon,
        updates=updates,  # type: ignore[arg-type]
        sampler_name=sampler.name,
        adversary_name=adversary.name,
        checkpoints=list(checkpoint_list),
        checkpoint_errors=errors,
    )
