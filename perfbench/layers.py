"""Which library methods the traced run wraps, and the per-layer metrics.

Each layer is named after the ``repro`` package that implements it.  Every
traced unit installs the same wrappers, whatever the workload, so a layer
that reads 0 on a workload was measured there and did no work: that is how
the benchmark shows, for instance, that the judge takes no time in the
continuous game and the tracker none in the service.

``PER_LAYER`` lists every per-layer metric with its unit, the direction in
which it is better, and the end-to-end metric and workload it should move.
"""

from __future__ import annotations

from typing import Any

from repro.adversary.base import Adversary
from repro.defenses.wrappers import ReplicatedDefenseSampler
from repro.distributed.sharded import ShardedSampler
from repro.samplers.base import StreamSampler
from repro.service import live as service_live
from repro.service.live import QueryService
from repro.service.served import ServedSampler
from repro.service.snapshots import SnapshotStore
from repro.setsystems.base import SetSystem
from repro.setsystems.tracker import DiscrepancyTracker

from spans import OpStats, Tracer, fixed, given, one, sized

#: (name, unit, better, the end-to-end metric and workload it should move).
PER_LAYER: list[tuple[str, str, str, str]] = [
    ("adversary.calls", "count", "lower", "elements_per_s on game-continuous, range-queries"),
    ("adversary.busy_s", "s", "lower", "elements_per_s on game-continuous, range-queries"),
    ("adversary.sample_reads", "count", "lower", "elements_per_s on game-continuous, range-queries"),
    ("samplers.extend_calls", "count", "lower", "elements_per_s on window-defense"),
    ("samplers.process_calls", "count", "lower", "elements_per_s on window-defense"),
    ("samplers.elements", "count", "higher", "elements_per_s on window-defense"),
    ("samplers.busy_s", "s", "lower", "elements_per_s on window-defense"),
    ("samplers.sample_reads", "count", "lower", "elements_per_s on window-defense"),
    ("tracker.add_calls", "count", "lower", "elements_per_s on game-continuous"),
    ("tracker.elements", "count", "higher", "elements_per_s on game-continuous"),
    ("tracker.add_s", "s", "lower", "elements_per_s on game-continuous"),
    ("tracker.checkpoint_calls", "count", "lower", "elements_per_s on game-continuous"),
    ("tracker.checkpoint_s", "s", "lower", "elements_per_s on game-continuous"),
    ("tracker.fallbacks", "count", "lower", "elements_per_s on game-continuous"),
    ("judge.calls", "count", "lower", "elements_per_s on range-queries"),
    ("judge.elements", "count", "lower", "elements_per_s on range-queries"),
    ("judge.busy_s", "s", "lower", "elements_per_s on range-queries"),
    ("defenses.self_s", "s", "lower", "elements_per_s on window-defense"),
    ("defenses.copy_extend_calls", "count", "lower", "elements_per_s on window-defense"),
    ("distributed.extend_s", "s", "lower", "elements_per_s on service-mixed"),
    ("distributed.merge_calls", "count", "lower", "latency_ms on service-mixed"),
    ("distributed.merge_s", "s", "lower", "latency_ms on service-mixed"),
    ("service.ingest_s", "s", "lower", "elements_per_s on service-mixed"),
    ("service.acquire_s", "s", "lower", "latency_ms on service-mixed"),
    ("service.compute_s", "s", "lower", "latency_ms on service-mixed"),
    ("service.refreshes", "count", "lower", "latency_ms on service-mixed"),
    ("service.cache_hit_ratio", "ratio", "higher", "latency_ms on service-mixed"),
    ("service.query_wait_ms", "ms", "lower", "latency_ms on service-mixed"),
    ("service.query_late_ms", "ms", "lower", "how late the open-loop client sent queries"),
    ("service.query_p99_ms", "ms", "lower", "query tail from due time on service-mixed"),
    ("service.query_samples", "count", "higher", "sample count behind service.query_p99_ms"),
    ("scenarios.self_s", "s", "lower", "elements_per_s on window-defense"),
    ("experiments.self_s", "s", "lower", "elements_per_s on range-queries"),
    ("bench.calib_ms", "ms", "lower", "drift correction of every timing"),
    ("bench.trace_overhead", "ratio", "lower", "traced over untraced unit time, minus 1"),
    ("bench.failed_frac", "ratio", "lower", "failed over attempted units and queries"),
    ("bench.raw_elements_per_s", "elem/s", "higher", "elements_per_s before drift correction"),
    ("bench.raw_latency_ms", "ms", "lower", "latency_ms before drift correction"),
    ("bench.raw_setup_s", "s", "lower", "setup_s before drift correction"),
]

def sampler_layer(sampler: Any) -> str:
    """Layer of a :class:`StreamSampler`: wrappers belong to their own package."""
    if isinstance(sampler, ShardedSampler):
        return "distributed"
    if isinstance(sampler, ReplicatedDefenseSampler):
        return "defenses"
    if isinstance(sampler, ServedSampler):
        return "service"
    return "samplers"


_ADVERSARY, _JUDGE = fixed("adversary"), fixed("judge")
_TRACKER, _SERVICE = fixed("tracker"), fixed("service")

#: (class, method, layer of the instance, op, count taken from the arguments).
_METHODS = [
    # next_element and next_elements share one op, so a request served
    # through the other counts once.
    (Adversary, "next_element", _ADVERSARY, "request", given(2)),
    (Adversary, "next_elements", _ADVERSARY, "request", given(3)),
    (Adversary, "observe_update", _ADVERSARY, "observe", one),
    (Adversary, "observe_update_batch", _ADVERSARY, "observe", one),
    (StreamSampler, "process", sampler_layer, "process", one),
    (StreamSampler, "extend", sampler_layer, "extend", sized(1)),
    (StreamSampler, "sample", sampler_layer, "sample", one),
    (StreamSampler, "merge", fixed("distributed"), "merge", one),
    (DiscrepancyTracker, "add", _TRACKER, "add", one),
    (DiscrepancyTracker, "add_batch", _TRACKER, "add", sized(1)),
    (DiscrepancyTracker, "checkpoint", _TRACKER, "checkpoint", one),
    (SetSystem, "max_discrepancy", _JUDGE, "max_discrepancy", sized(1)),
    (QueryService, "ingest", _SERVICE, "ingest", sized(1)),
    (QueryService, "acquire", _SERVICE, "acquire", one),
    (QueryService, "query", _SERVICE, "query", one),
    (SnapshotStore, "read", _SERVICE, "store_read", one),
    (SnapshotStore, "refresh", _SERVICE, "refresh", one),
]


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    for root, name, layer_of, op, measure in _METHODS:
        tracer.wrap_methods(root, name, layer_of, op, measure)
    for name in ("quantile", "heavy_hitters", "prefix_discrepancy"):
        tracer.wrap_function(service_live, name, "service", "compute")


def unit_metrics(
    stats: dict[tuple[str, str], OpStats], layer_busy: dict[str, float]
) -> dict[str, float]:
    """Per-layer metrics of one traced unit (times in raw seconds)."""

    def op(layer: str, name: str) -> OpStats:
        return stats.get((layer, name), OpStats())

    def self_time(layer: str) -> float:
        return sum(s.self_time for (owner, _), s in stats.items() if owner == layer)

    request = op("adversary", "request")
    extend, process = op("samplers", "extend"), op("samplers", "process")
    add, checkpoint = op("tracker", "add"), op("tracker", "checkpoint")
    judge = op("judge", "max_discrepancy")
    acquire, store_read = op("service", "acquire"), op("service", "store_read")
    return {
        "adversary.calls": request.calls,
        "adversary.busy_s": layer_busy.get("adversary", 0.0),
        "adversary.sample_reads": request.units,
        "samplers.extend_calls": extend.calls,
        "samplers.process_calls": process.calls,
        "samplers.elements": extend.layer_units + process.layer_units,
        "samplers.busy_s": layer_busy.get("samplers", 0.0),
        "samplers.sample_reads": op("samplers", "sample").calls,
        "tracker.add_calls": add.calls,
        "tracker.elements": add.units,
        "tracker.add_s": add.busy,
        "tracker.checkpoint_calls": checkpoint.calls,
        "tracker.checkpoint_s": checkpoint.busy,
        "tracker.fallbacks": sum(s.raised for (owner, _), s in stats.items() if owner == "tracker"),
        "judge.calls": judge.calls,
        "judge.elements": judge.units,
        "judge.busy_s": judge.busy,
        "defenses.self_s": self_time("defenses"),
        "defenses.copy_extend_calls": sum(
            count for parent, count in extend.parents.items() if parent.startswith("defenses.")
        ),
        "distributed.extend_s": op("distributed", "extend").busy,
        "distributed.merge_calls": op("distributed", "merge").calls,
        "distributed.merge_s": op("distributed", "merge").busy,
        "service.ingest_s": op("service", "ingest").busy,
        "service.acquire_s": acquire.busy,
        "service.compute_s": op("service", "compute").busy,
        "service.refreshes": op("service", "refresh").spans,
        # Every SnapshotStore.read comes from an acquire that missed the
        # published pair; the writer republishes through refresh directly.
        "service.cache_hit_ratio": (
            1.0 - store_read.spans / acquire.spans if acquire.spans else 0.0
        ),
        "scenarios.self_s": self_time("scenarios"),
        "experiments.self_s": self_time("experiments"),
    }
