"""The four workloads: inputs, the program call, and each unit's oracle.

A workload is run as many short *units*.  For each unit the harness asks the
workload for inputs generated from the run seed and the unit index, then
calls :meth:`Workload.run`, which builds the program objects from those
inputs, times only the program's public entry point, and returns a
:class:`UnitRun`.  :meth:`Workload.check` then compares the outputs against
an oracle outside the timed region.

The workloads are chosen so that each layer a later optimisation may rewrite
dominates one workload and is absent from another:

* ``game-continuous`` spends its time in the tracker and the adversary's
  planning; the judge, the window and the service take none;
* ``window-defense`` spends it in the sliding-window sampler, plain, sharded
  and wrapped by the [WZ21] defense; two of its three scenarios are
  continuous games, so the tracker runs there too, at under 1% of a unit;
* ``range-queries`` spends it in the box judge and the per-element greedy
  adversary; there is no tracker, window or service;
* ``service-mixed`` is the only one with reads beside writes: lock
  contention, [CTW16] merges and snapshot republishing.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro import (
    MixingGreedyDensityAdversary,
    PrefixSystem,
    ReservoirSampler,
    ShardedSampler,
    run_continuous_game,
    run_scenario,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.range_query_exp import run_range_queries
from repro.scenarios.registry import get_scenario
from repro.service import QueryService
from repro.setsystems import Prefix, RectangleSystem

from spans import Tracer


@dataclass
class UnitRun:
    """What one unit did: its timed seconds, the elements it ingested, and
    its outputs (``output`` must be equal for equal inputs)."""

    seconds: float
    elements: int
    output: Any
    detail: Any = None
    #: Per query: ``(due, sent, done, busy, kind)``, clock readings with
    #: ``busy`` the seconds in acquire and compute (traced runs only, else
    #: 0) and ``kind`` the query kind, suffixed ``.fresh`` for fresh reads;
    #: ``None`` for workloads that issue no queries.
    queries: list[tuple[float, float, float, float, str]] | None = None


def _invoke(tracer: Tracer | None, layer: str, func: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    """Call ``func``; inside a ``layer.run`` span when tracing."""
    if tracer is None:
        return func(*args, **kwargs)
    return tracer.call(layer, "run", func, args, kwargs)


def _seed(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _in_unit_interval(value: Any) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and 0.0 <= value <= 1.0


class Workload:
    name = ""
    why = ""

    def inputs(self, seed: int, index: int) -> Any:
        raise NotImplementedError

    def build(self, inputs: Any) -> Any:
        """The unit's program objects, timed as part of ``setup_s``.

        Where the entry point builds its own objects (``run_scenario``,
        ``run_range_queries``), these are the ones it builds first.
        """
        raise NotImplementedError

    def run(self, inputs: Any, tracer: Tracer | None) -> UnitRun:
        raise NotImplementedError

    def check(self, inputs: Any, unit: UnitRun) -> tuple[int, int]:
        """``(attempted, failed)`` operations of the unit, after its oracle."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# game-continuous
# ----------------------------------------------------------------------
@dataclass
class GameInputs:
    bound: int
    inside: list[int]
    outside: list[int]
    sampler_seed: int


class GameContinuous(Workload):
    name = "game-continuous"
    why = (
        "chunked continuous game: the tracker takes ~45% of a unit and adversary planning "
        "~35%, the reservoir kernel ~15%; the judge, window and service do no work"
    )
    ROUNDS = 100_000
    UNIVERSE = 4_096
    CAPACITY = 200
    PERIOD = 256
    CHECKPOINTS = tuple(range(1_000, ROUNDS + 1, 1_000))

    def inputs(self, seed: int, index: int) -> GameInputs:
        rng = _seed(seed, index)
        bound = int(rng.integers(self.UNIVERSE // 8, 7 * self.UNIVERSE // 8 + 1))
        # The adversary draws its in-range and out-of-range elements from
        # these pre-generated pools, one element per round at most.
        inside = rng.integers(1, bound + 1, size=self.ROUNDS).tolist()
        outside = rng.integers(bound + 1, self.UNIVERSE + 1, size=self.ROUNDS).tolist()
        return GameInputs(bound, inside, outside, int(rng.integers(2**62)))

    def build(self, inputs: GameInputs) -> tuple[Any, Any, Any]:
        sampler = ReservoirSampler(self.CAPACITY, seed=inputs.sampler_seed)
        adversary = MixingGreedyDensityAdversary(
            Prefix(inputs.bound),
            iter(inputs.inside).__next__,
            iter(inputs.outside).__next__,
            decision_period=self.PERIOD,
        )
        return sampler, adversary, PrefixSystem(self.UNIVERSE)

    def run(self, inputs: GameInputs, tracer: Tracer | None) -> UnitRun:
        sampler, adversary, system = self.build(inputs)
        start = time.perf_counter()
        result = run_continuous_game(
            sampler, adversary, self.ROUNDS, system, checkpoints=self.CHECKPOINTS
        )
        seconds = time.perf_counter() - start
        output = (result.error, tuple(result.checkpoint_errors), tuple(result.sample))
        return UnitRun(seconds, self.ROUNDS, output, detail=result)

    def check(self, inputs: GameInputs, unit: UnitRun) -> tuple[int, int]:
        result = unit.detail
        stream, sample = result.stream, result.sample
        oracle = PrefixSystem(self.UNIVERSE).max_discrepancy(stream, sample).error
        in_stream = not Counter(sample) - Counter(stream)
        ok = (
            len(stream) == self.ROUNDS
            and list(result.checkpoints) == list(self.CHECKPOINTS)
            and len(result.checkpoint_errors) == len(self.CHECKPOINTS)
            and all(_in_unit_interval(error) for error in result.checkpoint_errors)
            and len(sample) == self.CAPACITY
            and in_stream
            and result.error == oracle
        )
        return 1, int(not ok)


# ----------------------------------------------------------------------
# window-defense
# ----------------------------------------------------------------------
class WindowDefense(Workload):
    name = "window-defense"
    why = (
        "the three sliding-window scenarios (plain, sharded, [WZ21] defense): the sampler "
        "layer takes ~90% of a unit, the tracker and judge under 1%; no service"
    )
    SCENARIOS = (
        "sliding_window_burst",
        "sharded_sliding_window_burst",
        "difference_estimator_defense",
    )
    #: Cell fields that are discrepancies or rates, all in [0, 1].
    BOUNDED = (
        "mean_error",
        "max_error",
        "failure_rate",
        "violation_rate",
        "peak_discrepancy",
        "attacked_peak_discrepancy",
        "mean_max_checkpoint_error",
        "worst_checkpoint_error",
    )

    def inputs(self, seed: int, index: int) -> int:
        return int(_seed(seed, index).integers(2**31))

    def build(self, inputs: int) -> list[Any]:
        return [get_scenario(name).base_config.replace(trials=1, seed=inputs) for name in self.SCENARIOS]

    def run(self, inputs: int, tracer: Tracer | None) -> UnitRun:
        results = []
        seconds = 0.0
        for name in self.SCENARIOS:
            start = time.perf_counter()
            results.append(_invoke(tracer, "scenarios", run_scenario, name, trials=1, seed=inputs, workers=1))
            seconds += time.perf_counter() - start
        elements = sum(r.config["stream_length"] * r.config["trials"] for r in results)
        output = tuple(json.dumps(r.to_dict(include_timing=False), sort_keys=True) for r in results)
        return UnitRun(seconds, elements, output, detail=results)

    def check(self, inputs: int, unit: UnitRun) -> tuple[int, int]:
        ok = True
        for result in unit.detail:
            ok = ok and len(result.cells) == 1 and result.peak_discrepancy is not None
            for cell in result.cells:
                for key in self.BOUNDED:
                    value = cell.get(key)
                    ok = ok and (value is None or _in_unit_interval(value))
        return 1, int(not ok)


# ----------------------------------------------------------------------
# range-queries
# ----------------------------------------------------------------------
class RangeQueries(Workload):
    name = "range-queries"
    why = (
        "E9 at reduced scale: the per-element greedy box adversary takes ~75% of a unit "
        "and the box judge ~25%; no tracker, window or service"
    )
    STREAM = 1_000
    SIDE = 16
    ERRORS = ("mean_worst_query_error", "max_worst_query_error", "mean_box_discrepancy")

    def inputs(self, seed: int, index: int) -> ExperimentConfig:
        unit_seed = int(_seed(seed, index).integers(2**31))
        return ExperimentConfig(
            trials=1, seed=unit_seed, stream_length=self.STREAM, extras={"grid_side": self.SIDE}
        )

    def build(self, inputs: ExperimentConfig) -> Any:
        return RectangleSystem(self.SIDE, 2, max_exact_candidates=200_000)

    def run(self, inputs: ExperimentConfig, tracer: Tracer | None) -> UnitRun:
        start = time.perf_counter()
        result = _invoke(tracer, "experiments", run_range_queries, inputs)
        seconds = time.perf_counter() - start
        # Two rows (static and adaptive), each one trial over the stream.
        elements = len(result.rows) * inputs.trials * inputs.stream_length
        return UnitRun(seconds, elements, json.dumps(result.rows, sort_keys=True), detail=result)

    def check(self, inputs: ExperimentConfig, unit: UnitRun) -> tuple[int, int]:
        rows = unit.detail.rows
        ok = len(rows) == 2
        for row in rows:
            ok = ok and all(
                math.isfinite(value) for value in row.values() if isinstance(value, float)
            )
            ok = ok and all(_in_unit_interval(row.get(key)) for key in self.ERRORS)
            ok = ok and row.get("mean_sample_size", 0) > 0
        return 1, int(not ok)


# ----------------------------------------------------------------------
# service-mixed
# ----------------------------------------------------------------------
@dataclass
class ServiceInputs:
    chunks: list[np.ndarray]
    deployment_seed: int


def _site(rng: np.random.Generator) -> ReservoirSampler:
    return ReservoirSampler(ServiceMixed.CAPACITY, seed=rng)


class _Reader:
    """Open-loop client: one query every ``1 / rate`` seconds from ``start``.

    Each query records when it was due, sent and answered, so both its
    service time and how late the client ran are known.  Kinds rotate
    quantile, heavy hitters, discrepancy; every fourth query forces a fresh
    snapshot, the query-timing adversary.
    """

    KINDS = ("quantile", "heavy_hitters", "discrepancy")

    def __init__(self, service: QueryService, tracer: Tracer | None, start: float, rate: float) -> None:
        self.service = service
        self.tracer = tracer
        self.start = start
        self.period = 1.0 / rate
        self.stop = threading.Event()
        #: When the writer finished; set before ``stop``.
        self.end = math.inf
        self.queries: list[tuple[float, float, float, float, str]] = []
        self.answers: list[tuple[str, Any]] = []
        self.errors: list[str] = []

    def _busy(self) -> float:
        assert self.tracer is not None
        return self.tracer.thread_busy("service", "acquire") + self.tracer.thread_busy("service", "compute")

    def loop(self) -> None:
        issued = 0
        while True:
            issued += 1
            due = self.start + issued * self.period
            delay = due - time.perf_counter()
            if delay > 0:
                self.stop.wait(delay)
            # Queries that fell due before the writer finished are still
            # sent, late, so a stalled reader cannot hide its backlog.
            if self.stop.is_set() and due > self.end:
                return
            kind = self.KINDS[issued % len(self.KINDS)]
            fresh = issued % 4 == 0
            busy = self._busy() if self.tracer is not None else 0.0
            sent = time.perf_counter()
            try:
                answer = self.service.query(kind, fresh=fresh)
            except Exception as exc:  # a failed query is counted, never fatal
                self.errors.append(f"{kind}: {exc!r}")
                continue
            done = time.perf_counter()
            if self.tracer is not None:
                busy = self._busy() - busy
            self.queries.append((due, sent, done, busy, kind + ".fresh" if fresh else kind))
            self.answers.append((kind, answer))


class ServiceMixed(Workload):
    name = "service-mixed"
    why = (
        "QueryService over 4 hash-routed reservoir sites: ndarray ingest beside open-loop "
        "fresh and cached reads; the only workload with lock waits, merges and republishing"
    )
    SITES = 4
    CAPACITY = 200
    UNIVERSE = 2_048
    STALENESS = 2_048
    CHUNK = 1_024
    CHUNKS = 97
    RATE = 250.0
    JOIN_TIMEOUT = 30.0

    def inputs(self, seed: int, index: int) -> ServiceInputs:
        rng = _seed(seed, index)
        # Zipf-like key popularity, so heavy-hitter answers are not ties.
        weights = 1.0 / np.arange(1, self.UNIVERSE + 1) ** 0.8
        values = rng.choice(
            np.arange(1, self.UNIVERSE + 1, dtype=np.int64),
            size=self.CHUNK * self.CHUNKS,
            p=weights / weights.sum(),
        )
        chunks = [values[i : i + self.CHUNK] for i in range(0, len(values), self.CHUNK)]
        return ServiceInputs(chunks, int(rng.integers(2**62)))

    def deployment(self, seed: int) -> ShardedSampler:
        return ShardedSampler(self.SITES, _site, strategy="hash", seed=seed)

    def build(self, inputs: ServiceInputs) -> QueryService:
        return QueryService(
            self.deployment(inputs.deployment_seed),
            staleness_rounds=self.STALENESS,
            universe_size=self.UNIVERSE,
        )

    def run(self, inputs: ServiceInputs, tracer: Tracer | None) -> UnitRun:
        service = self.build(inputs)
        # The first chunk is ingested before the clock starts, so no query
        # meets an empty sample.
        service.ingest(inputs.chunks[0])
        start = time.perf_counter()
        reader = _Reader(service, tracer, start, self.RATE)
        thread = threading.Thread(target=reader.loop, name="perfbench-reader", daemon=True)
        thread.start()
        try:
            for chunk in inputs.chunks[1:]:
                service.ingest(chunk)
                # A writer fed from a socket blocks between chunks; without
                # this yield a spinning writer retakes the service lock
                # before a woken reader runs, and on a busy host a fresh
                # query starves for whole sessions.
                os.sched_yield()
            seconds = time.perf_counter() - start
        finally:
            reader.end = time.perf_counter()
            reader.stop.set()
            thread.join(timeout=self.JOIN_TIMEOUT)
        if thread.is_alive():
            reader.errors.append("reader thread did not stop")
        deployment = service.sampler
        output = (
            tuple(tuple(int(v) for v in deployment.site_sample(i)) for i in range(self.SITES)),
            tuple(deployment.site_counts),
        )
        elements = self.CHUNK * (len(inputs.chunks) - 1)
        return UnitRun(
            seconds,
            elements,
            output,
            detail=(service, reader),
            queries=reader.queries,
        )

    def _valid_answer(self, kind: str, answer: Any) -> bool:
        def in_universe(value: Any) -> bool:
            return isinstance(value, (int, np.integer)) and 1 <= int(value) <= self.UNIVERSE

        if kind == "quantile":
            return in_universe(answer)
        if kind == "heavy_hitters":
            return bool(answer) and all(in_universe(v) and count >= 1 for v, count in answer)
        return _in_unit_interval(float(answer))

    def check(self, inputs: ServiceInputs, unit: UnitRun) -> tuple[int, int]:
        service, reader = unit.detail
        replay = self.deployment(inputs.deployment_seed)
        for chunk in inputs.chunks:
            replay.extend(chunk, updates=False)
        expected = (
            tuple(tuple(int(v) for v in replay.site_sample(i)) for i in range(self.SITES)),
            tuple(replay.site_counts),
        )
        final = service.sampler.sample
        session_ok = (
            unit.output == expected
            and len(final) == self.CAPACITY
            and all(1 <= int(v) <= self.UNIVERSE for v in final)
        )
        bad_answers = sum(not self._valid_answer(kind, answer) for kind, answer in reader.answers)
        attempted = 1 + len(reader.answers) + len(reader.errors)
        return attempted, int(not session_ok) + bad_answers + len(reader.errors)


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (GameContinuous(), WindowDefense(), RangeQueries(), ServiceMixed())
}
