"""Game runners realising Figures 1 and 2 of the paper.

:func:`run_adaptive_game` plays the ``AdaptiveGame`` of Figure 1: the
adversary submits ``n`` elements one by one, observing the sampler's state
after every round, and the final sample is judged against the full stream.

:func:`run_continuous_game` plays the ``ContinuousAdaptiveGame`` of Figure 2:
the sample is additionally judged against every prefix of the stream (at a
configurable set of checkpoints; evaluating literally every prefix is
supported but quadratic).

Both runners support three *knowledge models* for the ablation experiments:

* ``"full"`` — the paper's model: the adversary sees the entire sample and the
  per-round update;
* ``"updates"`` — the adversary only learns, per round, whether its element
  was accepted and what was evicted (sufficient for the Figure-3 attack);
* ``"oblivious"`` — the adversary learns nothing (the static setting).

Chunked execution
-----------------
The game is sequential only at the adversary's *decision points*; between
them the stream is fixed and the sampler can consume it in bulk.  Both
runners therefore play the stream as a sequence of segments: each iteration
asks the adversary (via :meth:`~repro.adversary.base.Adversary.next_elements`)
for up to ``chunk_size`` elements it commits to without further feedback,
feeds the segment to the sampler, and records the outcome as a columnar
:class:`~repro.samplers.base.UpdateBatch`.  A fully adaptive adversary (the
default ``next_elements``) commits to one element per request, so its game
is the paper's round-by-round loop; adversaries with a declared decision
cadence (:class:`~repro.adversary.base.CadencedAdversary`) emit one block per
decision point, and oblivious ones fill whole segments.  ``chunk_size=1``
caps every segment at one element.  The runner skips materialising the
sample view for adversaries whose ``decision_needs`` exclude it.  In the
continuous game segments additionally break at checkpoint boundaries, so
the sample is judged at exactly the checkpoint rounds for any chunking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable, Sequence
from typing import Any, Literal, get_args

from ..core.approximation import geometric_checkpoints
from ..exceptions import ConfigurationError, TrackerUnsupportedError, require_int
from ..samplers.base import SampleUpdate, StreamSampler, UpdateBatch
from ..setsystems.base import SetSystem
from .base import Adversary

KnowledgeModel = Literal["full", "updates", "oblivious"]

#: The knowledge models the runners accept, in declaration order.
KNOWLEDGE_MODELS: tuple[str, ...] = get_args(KnowledgeModel)

#: Default segment length for chunked execution.  Large enough that numpy
#: kernel launch overhead is negligible, small enough that the sampler state
#: the adversary observes between segments stays reasonably fresh for
#: coarse-grained semi-adaptive strategies.
DEFAULT_CHUNK_SIZE = 4096


@dataclass
class GameResult:
    """Outcome of one play of the adaptive game.

    Attributes
    ----------
    stream:
        The full adversarially chosen stream ``X``.
    sample:
        The sampler's final sample ``S`` (a tuple snapshot).
    error:
        ``sup_R |d_R(X) - d_R(S)|`` when a set system was supplied (``None``
        otherwise); an empty final sample counts as error 1.
    witness:
        A range achieving the error, when available.
    epsilon:
        The target epsilon the game was judged against (``None`` if not set).
    succeeded:
        ``True`` when the final sample is an epsilon-approximation (the
        paper's game outputs 1), ``None`` when no epsilon was supplied.
    updates:
        The per-round update record as a columnar
        :class:`~repro.samplers.base.UpdateBatch` (a lazy sequence of
        :class:`SampleUpdate`); empty when the game ran with
        ``keep_updates=False``.
    sampler_name / adversary_name:
        Names for reporting.
    """

    stream: list[Any]
    sample: tuple[Any, ...]
    error: float | None
    witness: Any
    epsilon: float | None
    succeeded: bool | None
    updates: UpdateBatch = field(repr=False, default_factory=UpdateBatch.empty)
    sampler_name: str = ""
    adversary_name: str = ""

    @property
    def stream_length(self) -> int:
        return len(self.stream)

    @property
    def sample_size(self) -> int:
        return len(self.sample)

    @property
    def total_accepted(self) -> int:
        """Total number of rounds whose element entered the sample (even if later evicted)."""
        return self.updates.accepted_count


@dataclass
class ContinuousGameResult(GameResult):
    """Outcome of one play of the continuous adaptive game.

    In addition to the final-sample verdict it records, per checkpoint, the
    worst-range error of the sample against the stream prefix at that point.
    """

    checkpoints: list[int] = field(default_factory=list)
    checkpoint_errors: list[float] = field(default_factory=list)

    @property
    def max_checkpoint_error(self) -> float:
        return max(self.checkpoint_errors) if self.checkpoint_errors else 0.0

    @property
    def first_violation(self) -> int | None:
        """The first checkpoint at which the sample was not an epsilon-approximation."""
        if self.epsilon is None:
            return None
        for checkpoint, error in zip(self.checkpoints, self.checkpoint_errors):
            if error > self.epsilon:
                return checkpoint
        return None

    @property
    def continuously_succeeded(self) -> bool | None:
        """The paper's ContinuousAdaptiveGame output: 1 iff no checkpoint is violated."""
        if self.epsilon is None:
            return None
        return self.first_violation is None


def validate_knowledge(knowledge: str) -> None:
    """Reject a knowledge model outside :data:`KNOWLEDGE_MODELS`."""
    if knowledge not in KNOWLEDGE_MODELS:
        raise ConfigurationError(
            f"unknown knowledge model {knowledge!r}; expected one of {KNOWLEDGE_MODELS}"
        )


def validate_game(stream_length: int, knowledge: str) -> int:
    """Validate the size and knowledge model of a game; returns the size as an int."""
    length = require_int(stream_length, "stream length")
    if length < 1:
        raise ConfigurationError(f"stream length must be >= 1, got {stream_length}")
    validate_knowledge(knowledge)
    return length


def _is_normalized_checkpoints(checkpoints: Sequence[int]) -> bool:
    """Cheap check for a strictly increasing tuple of ints (no allocation)."""
    previous = 0
    for checkpoint in checkpoints:
        if type(checkpoint) is not int or checkpoint <= previous:
            return False
        previous = checkpoint
    return True


def normalize_checkpoints(
    checkpoints: Iterable[int] | None,
    stream_length: int,
    *,
    epsilon: float | None = None,
    checkpoint_ratio: float | None = None,
) -> tuple[int, ...]:
    """Resolve a checkpoint schedule to a validated, strictly increasing tuple.

    ``None`` yields the geometric schedule used in the proof of Theorem 1.4
    with ratio ``epsilon / 4`` (or ``checkpoint_ratio``).  An already
    normalised tuple passes through untouched, so repeated callers — notably
    :class:`~repro.adversary.batch.BatchGameRunner`, which plays the same
    schedule for every trial of a grid — normalise once and reuse instead of
    re-deriving ``sorted(set(...))`` per game.
    """
    if checkpoints is None:
        ratio = checkpoint_ratio
        if ratio is None:
            ratio = (epsilon / 4.0) if epsilon is not None else 0.1
        checkpoints = geometric_checkpoints(1, stream_length, ratio)
    if isinstance(checkpoints, tuple) and _is_normalized_checkpoints(checkpoints):
        normalized = checkpoints
    else:
        normalized = tuple(sorted({require_int(c, "checkpoint") for c in checkpoints}))
    if normalized and not (1 <= normalized[0] and normalized[-1] <= stream_length):
        offender = normalized[0] if normalized[0] < 1 else normalized[-1]
        raise ConfigurationError(
            f"checkpoint {offender} outside the stream range [1, {stream_length}]"
        )
    return normalized


def _resolve_chunk_size(chunk_size: int | None) -> int:
    if chunk_size is None:
        return DEFAULT_CHUNK_SIZE
    chunk = require_int(chunk_size, "chunk size")
    if chunk < 1:
        raise ConfigurationError(f"chunk size must be >= 1, got {chunk_size}")
    return chunk


class _UpdateLog:
    """Accumulates per-segment update records into one columnar batch.

    Singleton segments (adaptive decision points) append plain
    :class:`SampleUpdate` records; multi-element segments append whole
    :class:`UpdateBatch` columns.  ``collect`` stitches them into a single
    :class:`UpdateBatch` so downstream consumers see one sequence.
    """

    def __init__(self) -> None:
        self._batches: list[UpdateBatch] = []
        self._pending: list[SampleUpdate] = []

    def append_update(self, update: SampleUpdate) -> None:
        self._pending.append(update)

    def append_batch(self, batch: UpdateBatch) -> None:
        if self._pending:
            self._batches.append(UpdateBatch.from_updates(self._pending))
            self._pending = []
        self._batches.append(batch)

    def collect(self) -> UpdateBatch:
        if self._pending:
            self._batches.append(UpdateBatch.from_updates(self._pending))
            self._pending = []
        return UpdateBatch.concat(self._batches)


def _play_segment(
    sampler: StreamSampler,
    adversary: Adversary,
    knowledge: KnowledgeModel,
    keep_updates: bool,
    stream: list[Any],
    log: "_UpdateLog",
    round_index: int,
    budget: int,
) -> list[Any]:
    """Request one committed segment, ingest it, log and forward updates.

    The shared inner step of both runners; returns the segment so the
    continuous runner can feed its tracker.  Singleton segments (an adaptive
    decision point) go through ``process`` directly — cheaper than a
    one-element ``extend`` — and multi-element segments through the
    sampler's vectorised kernel, with the update record materialised only
    when the caller keeps it or the adversary listens to this segment.
    """
    # will_observe_sample refines the static declaration per request: a
    # cadenced adversary mid-way through a committed block declines the view
    # it is guaranteed to ignore, so chunk sizes below the decision period
    # don't re-materialise the sample (a fresh merge on sharded deployments)
    # for every segment of one block.
    observed = sampler.sample if knowledge == "full" and adversary.will_observe_sample() else None
    segment = adversary.next_elements(round_index + 1, budget, observed)
    if not segment:
        raise ConfigurationError(
            f"{adversary.name!r} returned an empty segment at round {round_index + 1}"
        )
    if len(segment) > budget:
        raise ConfigurationError(
            f"{adversary.name!r} returned {len(segment)} elements for a segment "
            f"budget of {budget} at round {round_index + 1}"
        )
    feed = knowledge != "oblivious" and adversary.observes_updates(
        round_index + 1, round_index + len(segment)
    )
    if len(segment) == 1:
        update = sampler.process(segment[0])
        stream.append(segment[0])
        if keep_updates:
            log.append_update(update)
        if feed:
            adversary.observe_update(update)
    else:
        batch = sampler.extend(segment, updates=keep_updates or feed)
        stream.extend(segment)
        if keep_updates:
            log.append_batch(batch)
        if feed:
            # One columnar hand-off per segment; batch-aware adversaries
            # digest the columns directly, everyone else gets the lazy
            # per-round views from the default loop.
            adversary.observe_update_batch(batch)
    return segment


def run_adaptive_game(
    sampler: StreamSampler,
    adversary: Adversary,
    stream_length: int,
    set_system: SetSystem | None = None,
    epsilon: float | None = None,
    knowledge: KnowledgeModel = "full",
    keep_updates: bool = True,
    chunk_size: int | None = None,
) -> GameResult:
    """Play the AdaptiveGame of Figure 1 and judge the final sample.

    Parameters
    ----------
    sampler / adversary:
        Freshly constructed (or reset) players.
    stream_length:
        Number of rounds ``n``.
    set_system:
        If supplied, the final sample's worst-range error against the stream
        is computed with respect to it.
    epsilon:
        If supplied together with ``set_system``, the result's ``succeeded``
        flag reports whether the sample is an epsilon-approximation.
    knowledge:
        How much of the sampler's state the adversary observes (see module
        docstring).
    keep_updates:
        Set to ``False`` to drop the per-round update log (saves memory on
        very long streams).
    chunk_size:
        Maximum segment length (default :data:`DEFAULT_CHUNK_SIZE`; see the
        module docstring).  ``1`` plays one-element segments.
    """
    stream_length = validate_game(stream_length, knowledge)
    if epsilon is not None and set_system is None:
        raise ConfigurationError("judging against epsilon requires a set system")
    chunk = _resolve_chunk_size(chunk_size)

    stream: list[Any] = []
    log = _UpdateLog()
    round_index = 0
    while round_index < stream_length:
        budget = min(chunk, stream_length - round_index)
        segment = _play_segment(
            sampler, adversary, knowledge, keep_updates, stream, log, round_index, budget
        )
        round_index += len(segment)

    sample = sampler.snapshot()
    error: float | None = None
    witness: Any = None
    succeeded: bool | None = None
    if set_system is not None:
        if len(sample) == 0:
            error, witness = 1.0, None
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
        updates=log.collect(),
        sampler_name=sampler.name,
        adversary_name=adversary.name,
    )


def run_continuous_game(
    sampler: StreamSampler,
    adversary: Adversary,
    stream_length: int,
    set_system: SetSystem,
    epsilon: float | None = None,
    checkpoints: Iterable[int] | None = None,
    checkpoint_ratio: float | None = None,
    knowledge: KnowledgeModel = "full",
    incremental: bool = True,
    keep_updates: bool = True,
    chunk_size: int | None = None,
) -> ContinuousGameResult:
    """Play the ContinuousAdaptiveGame of Figure 2.

    Checkpoints default to the geometric schedule used in the proof of
    Theorem 1.4 with ratio ``epsilon / 4`` (or ``checkpoint_ratio``); pass an
    explicit iterable (e.g. ``range(1, n + 1)``) to check every prefix.
    Pre-normalised tuples (see :func:`normalize_checkpoints`) are reused
    as-is, so grid sweeps don't re-derive the schedule per trial.
    Unlike the game in the paper, the runner does not halt at the first
    violation — it records the error at every checkpoint so experiments can
    plot complete trajectories — but :attr:`ContinuousGameResult.first_violation`
    recovers the halting behaviour.

    When ``incremental`` is true (the default) and the set system provides an
    incremental tracker (:meth:`~repro.setsystems.base.SetSystem.make_tracker`),
    checkpoint errors are answered from the tracker's online state instead of
    re-sorting the stream prefix at every checkpoint; the reported errors are
    identical to the batch recomputation.  Systems without a tracker — or
    streams whose elements a tracker cannot index, such as the huge-integer
    universes of the Figure-3 attack — silently use the batch path.

    Segments (see module docstring) additionally break at checkpoint
    boundaries, so every checkpoint observes the sampler state after exactly
    that many rounds, whatever the ``chunk_size``.
    """
    stream_length = validate_game(stream_length, knowledge)
    checkpoint_list = normalize_checkpoints(
        checkpoints, stream_length, epsilon=epsilon, checkpoint_ratio=checkpoint_ratio
    )
    chunk = _resolve_chunk_size(chunk_size)

    tracker = set_system.make_tracker(stream_length) if incremental else None

    stream: list[Any] = []

    def _judge(sample_now: tuple[Any, ...]) -> tuple[float, Any]:
        """Worst-range error (and witness) of a snapshot against the stream.

        Prefers the live tracker; a snapshot the tracker cannot index
        deactivates it, and this (and every later) judgement recomputes from
        the stream the runner keeps anyway.
        """
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

    def _track(elements: Sequence[Any]) -> None:
        nonlocal tracker
        if tracker is None:
            return
        try:
            if len(elements) == 1:
                tracker.add(elements[0])
            else:
                tracker.add_batch(elements)
        except TrackerUnsupportedError:
            tracker = None

    errors: list[float] = []
    next_checkpoint = 0
    log = _UpdateLog()
    round_index = 0
    while round_index < stream_length:
        budget = min(chunk, stream_length - round_index)
        if next_checkpoint < len(checkpoint_list):
            budget = min(budget, checkpoint_list[next_checkpoint] - round_index)
        segment = _play_segment(
            sampler, adversary, knowledge, keep_updates, stream, log, round_index, budget
        )
        _track(segment)
        round_index += len(segment)
        if next_checkpoint < len(checkpoint_list) and round_index == checkpoint_list[next_checkpoint]:
            errors.append(_judge(sampler.snapshot())[0])
            next_checkpoint += 1

    sample = sampler.snapshot()
    final_error, witness = _judge(sample)
    succeeded = None if epsilon is None else final_error <= epsilon
    return ContinuousGameResult(
        stream=stream,
        sample=sample,
        error=final_error,
        witness=witness,
        epsilon=epsilon,
        succeeded=succeeded,
        updates=log.collect(),
        sampler_name=sampler.name,
        adversary_name=adversary.name,
        checkpoints=list(checkpoint_list),
        checkpoint_errors=errors,
    )
