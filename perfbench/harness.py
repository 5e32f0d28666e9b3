"""Run one workload for a fixed time and reduce its units to metrics.

Untraced runs (``trace=False``) report the end-to-end metrics; traced runs
report the per-layer metrics.  In a traced run every unit's inputs are run
twice, untraced then traced, and the two outputs must be equal: a wrapper
that changed the program's path, or a program that is not deterministic for
a fixed seed, fails the run instead of skewing it.

The calibration kernel (:mod:`calib`) is timed before, after and every
50 ms during each unit; the unit's timings are scaled by
``REFERENCE_MS / calib_ms`` so that drift of the machine's speed cancels.
Raw figures are reported beside corrected ones in the traced run.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import calib
import layers
from spans import Tracer
from workloads import WORKLOADS, UnitRun, Workload

#: Fresh processes timed for ``setup_s``, spread evenly over the run; one
#: more runs first, untimed, so the timed ones find the byte-code cache warm.
SETUP_REPEATS = 9
#: A run measures at least this many unit inputs, however short ``seconds``.
MIN_INPUTS = 2
SETUP_TIMEOUT = 60.0

END_TO_END = {
    "elements_per_s": "elem/s",
    "latency_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


@dataclass
class Timed:
    """One unit run with the calibration that brackets it."""

    unit: UnitRun
    calib_ms: float
    traced: bool
    layer: dict[str, float] = field(default_factory=dict)

    @property
    def factor(self) -> float:
        return calib.REFERENCE_MS / self.calib_ms


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class SetupProbes:
    """Fresh-process set-ups, run one at a time and spread over the run.

    Each probe times its own set-up and then the calibration kernel in the
    same process, so the correction reads the speed of the CPU the set-up
    ran on.  Spread over the run, the probes see the machine as the units
    do, rather than in the one second when a run starts.
    """

    def __init__(self, root: Path, workload: str, seed: int) -> None:
        probe = Path(__file__).with_name("setup_probe.py")
        self.command = [sys.executable, str(probe), workload, str(seed)]
        self.root = root
        self.env = dict(os.environ)
        # The untimed first probe writes the byte-code cache the timed ones
        # read, as an installed package would have it, whatever this shell's
        # setting.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src"), str(probe.parent)]
            + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.raw: list[float] = []
        self.corrected: list[float] = []
        self._probe()

    def _probe(self) -> tuple[float, float]:
        done = subprocess.run(
            self.command,
            cwd=self.root,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT,
            check=True,
        )
        seconds, calib_ms = done.stdout.split()[-2:]
        return float(seconds), float(calib_ms)

    def catch_up(self, share: float) -> None:
        """Run the probes due once ``share`` (0 to 1) of the run has passed."""
        while len(self.raw) < SETUP_REPEATS * min(share, 1.0):
            seconds, calib_ms = self._probe()
            self.raw.append(seconds)
            self.corrected.append(seconds * calib.REFERENCE_MS / calib_ms)


def _run_unit(workload: Workload, inputs: Any, traced: bool) -> Timed:
    before = calib.measure()
    layer: dict[str, float] = {}
    tracer = Tracer() if traced else None
    if tracer is not None:
        layers.install(tracer)
    try:
        with calib.Sampler() as sampler:
            start = time.perf_counter()
            unit = workload.run(inputs, tracer)
            elapsed = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        layer = layers.unit_metrics(*tracer.totals())
    after = calib.measure()
    # The sampler's ticks fall evenly over the unit: take their share out of
    # its timed seconds.  (A query or span a tick lands in keeps the tick's
    # 0.6 ms; that touches about 1% of them.)
    unit.seconds *= 1.0 - sampler.spent / elapsed
    return Timed(unit, statistics.median([before, after, *sampler.samples_ms]), traced, layer)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    timed: list[Timed] = field(default_factory=list)
    overheads: list[float] = field(default_factory=list)


def _measure(workload: Workload, seed: int, seconds: float, trace: bool, setup: SetupProbes) -> Tally:
    tally = Tally()
    plan = [False, True] if trace else [False]
    start = time.perf_counter()
    index = 0
    while index < MIN_INPUTS or time.perf_counter() - start < seconds:
        setup.catch_up((time.perf_counter() - start) / seconds)
        inputs = workload.inputs(seed, index)
        index += 1
        runs: list[Timed] = []
        for traced in plan:
            try:
                timed = _run_unit(workload, inputs, traced)
                attempted, failed = workload.check(inputs, timed.unit)
            except Exception:  # a unit that raises is counted as failed
                traceback.print_exc(file=sys.stderr)
                tally.attempted += 1
                tally.failed += 1
                continue
            tally.attempted += attempted
            tally.failed += failed
            runs.append(timed)
        tally.timed.extend(runs)
        if len(runs) == 2:
            first, second = runs
            if first.unit.output != second.unit.output:
                print(f"{workload.name}: unit {index - 1} traced outputs differ", file=sys.stderr)
                tally.failed += 1
            else:
                tally.overheads.append(_seconds(second, True) / _seconds(first, True) - 1.0)
        # Drop the program objects before the next unit is built.
        for timed in runs:
            timed.unit.detail = None
    setup.catch_up(1.0)
    return tally


def _seconds(timed: Timed, corrected: bool) -> float:
    return timed.unit.seconds * (timed.factor if corrected else 1.0)


def _rate(timed: list[Timed], corrected: bool) -> float:
    """Elements per second over the run: all elements over all unit time.

    A total, not a median over units: unit costs differ from seed to seed
    (the box judge's by up to 4x), and the total wastes none of them.
    """
    return sum(t.unit.elements for t in timed) / sum(_seconds(t, corrected) for t in timed)


def _latency_ms(timed: list[Timed], corrected: bool) -> float:
    """Typical query service time where the workload queries; else mean unit time.

    Queries come in six classes (three kinds, each cached or fresh) whose
    service times differ by over 10x, in fixed proportions.  A median over
    all queries falls on the boundary between two classes and jumps between
    them from run to run, so the figure is the geometric mean of the
    classes' medians: each class's median is steady, and a gain on any one
    class moves the figure by its share.

    A query is timed from when it was sent, not when it was due: how late
    the client sent it depends on when the host runs the client's thread,
    which a steal of the virtual CPU can delay by tens of milliseconds.
    That lateness is reported per layer instead.
    """
    if timed[0].unit.queries is not None:
        classes: dict[str, list[float]] = {}
        for t in timed:
            factor = t.factor if corrected else 1.0
            for _, sent, done, _, kind in t.unit.queries or ():
                classes.setdefault(kind, []).append((done - sent) * 1e3 * factor)
        return statistics.geometric_mean(statistics.median(values) for values in classes.values())
    return 1e3 * sum(_seconds(t, corrected) for t in timed) / len(timed)


def _per_layer(tally: Tally, setup_raw: list[float]) -> dict[str, float]:
    traced = [t for t in tally.timed if t.traced]
    plain = [t for t in tally.timed if not t.traced]
    if not traced:
        raise RuntimeError("every traced unit failed")
    units = {name: unit for name, unit, _, _ in layers.PER_LAYER}
    metrics: dict[str, float] = {}
    for name in traced[0].layer:
        unit = units[name]
        values = [t.layer[name] * (t.factor if unit == "s" else 1.0) for t in traced]
        # Times are medians over units; counts and ratios are means, so a
        # rare event (a tracker fallback in one unit) still shows.
        metrics[name] = statistics.median(values) if unit == "s" else statistics.fmean(values)
    waits = [
        (done - due - busy) * 1e3 * t.factor
        for t in traced
        for due, _, done, busy, _ in t.unit.queries or ()
    ]
    queries = [
        (due, sent, done, t.factor) for t in plain for due, sent, done, _, _ in t.unit.queries or ()
    ]
    metrics["service.query_wait_ms"] = statistics.median(waits) if waits else 0.0
    metrics["service.query_late_ms"] = (
        statistics.median((sent - due) * 1e3 * f for due, sent, _, f in queries) if queries else 0.0
    )
    metrics["service.query_p99_ms"] = (
        percentile([(done - due) * 1e3 * f for due, _, done, f in queries], 0.99) if queries else 0.0
    )
    metrics["service.query_samples"] = len(queries)
    metrics["bench.calib_ms"] = statistics.median(t.calib_ms for t in tally.timed)
    metrics["bench.trace_overhead"] = statistics.median(tally.overheads) if tally.overheads else 0.0
    metrics["bench.failed_frac"] = tally.failed / tally.attempted
    metrics["bench.raw_elements_per_s"] = _rate(plain, corrected=False)
    metrics["bench.raw_latency_ms"] = _latency_ms(plain, corrected=False)
    metrics["bench.raw_setup_s"] = statistics.median(setup_raw)
    return metrics


def run(root: Path, name: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """One benchmark run; returns the result object the command prints."""
    workload = WORKLOADS[name]
    setup = SetupProbes(root, name, seed)
    tally = _measure(workload, seed, seconds, trace, setup)
    plain = [t for t in tally.timed if not t.traced]
    if not plain:
        raise RuntimeError(f"{name}: every unit failed")
    if trace:
        values = _per_layer(tally, setup.raw)
        units = {metric: unit for metric, unit, _, _ in layers.PER_LAYER}
    else:
        values = {
            "elements_per_s": _rate(plain, corrected=True),
            "latency_ms": _latency_ms(plain, corrected=True),
            "setup_s": statistics.median(setup.corrected),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": values[key], "unit": units[key]} for key in units},
    }
