"""Self-tests of the benchmark: metric names, oracles, and the traced path.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
Units are shrunk through the workload classes' size constants, so each run
here takes a second or two instead of the benchmark's full unit size.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import layers
import workloads
from repro.adversary.base import Adversary
from repro.samplers.base import StreamSampler
from repro.samplers.reservoir import ReservoirSampler
from repro.service import live as service_live
from spans import Tracer, all_subclasses

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    """Shrink every workload's unit and the set-up probe count."""
    monkeypatch.setattr(harness, "SETUP_REPEATS", 1)
    monkeypatch.setattr(workloads.GameContinuous, "ROUNDS", 5_000)
    monkeypatch.setattr(workloads.GameContinuous, "CHECKPOINTS", tuple(range(1_000, 5_001, 1_000)))
    monkeypatch.setattr(workloads.WindowDefense, "SCENARIOS", ("sharded_sliding_window_burst",))
    monkeypatch.setattr(workloads.RangeQueries, "STREAM", 200)
    monkeypatch.setattr(workloads.RangeQueries, "SIDE", 8)
    monkeypatch.setattr(workloads.ServiceMixed, "CHUNKS", 9)


def _run(name: str, trace: bool) -> dict:
    result = harness.run(ROOT, name, seed=3, seconds=0.01, trace=trace)
    json.dumps(result)  # the printed form must serialise
    return result


def _failed_frac(result: dict) -> float:
    return result["failed"] / result["attempted"]


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == harness.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in layers.PER_LAYER
    ]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_prints_every_metric_with_its_unit(name, trace):
    result = _run(name, trace)
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_layers_are_zero_where_they_do_no_work():
    game = _run("game-continuous", True)["metrics"]
    assert game["tracker.add_s"]["value"] > 0 and game["adversary.busy_s"]["value"] > 0
    assert game["judge.busy_s"]["value"] == 0 and game["service.ingest_s"]["value"] == 0
    ranges = _run("range-queries", True)["metrics"]
    assert ranges["judge.busy_s"]["value"] > 0
    assert ranges["tracker.add_calls"]["value"] == 0 and ranges["service.refreshes"]["value"] == 0
    service = _run("service-mixed", True)["metrics"]
    assert service["service.ingest_s"]["value"] > 0 and service["distributed.merge_calls"]["value"] > 0
    assert service["tracker.add_calls"]["value"] == 0 and service["adversary.calls"]["value"] == 0


def _wrong_sample(original):
    def sample(self):
        values = list(original.fget(self))
        return tuple([0] + values[1:]) if values else ()

    return property(sample)


def test_wrong_sample_fails_the_game_oracle(monkeypatch):
    monkeypatch.setattr(ReservoirSampler, "sample", _wrong_sample(ReservoirSampler.sample))
    assert _failed_frac(_run("game-continuous", False)) > 0


def test_wrong_answers_fail_the_service_oracle(monkeypatch):
    monkeypatch.setattr(workloads.ServiceMixed, "CHUNKS", 40)
    monkeypatch.setattr(service_live, "quantile", lambda sample, q: 0)
    monkeypatch.setattr(service_live, "heavy_hitters", lambda sample, k: [(0, 1)])
    assert _failed_frac(_run("service-mixed", False)) > 0


def test_out_of_range_error_fails_the_range_oracle(monkeypatch):
    original = workloads.run_range_queries

    def corrupted(config):
        result = original(config)
        result.rows[0]["mean_box_discrepancy"] = 1.5
        return result

    monkeypatch.setattr(workloads, "run_range_queries", corrupted)
    assert _failed_frac(_run("range-queries", False)) > 0


def test_nondeterministic_cells_fail_the_traced_pairing(monkeypatch):
    original = workloads.run_scenario
    calls = []

    def drifting(name, **overrides):
        calls.append(name)
        overrides["seed"] += len(calls)
        return original(name, **overrides)

    monkeypatch.setattr(workloads, "run_scenario", drifting)
    result = _run("window-defense", True)
    assert result["metrics"]["bench.failed_frac"]["value"] > 0


def test_traced_run_that_changes_outputs_fails(monkeypatch):
    original_install = layers.install

    def install_and_perturb(tracer):
        original_install(tracer)
        traced_extend = ReservoirSampler.extend
        tracer._restore.append((ReservoirSampler, "extend", traced_extend))
        ReservoirSampler.extend = lambda self, elements, updates=True: traced_extend(
            self, list(elements)[::-1], updates
        )

    monkeypatch.setattr(layers, "install", install_and_perturb)
    result = _run("game-continuous", True)
    assert result["metrics"]["bench.failed_frac"]["value"] > 0
    assert ReservoirSampler.extend is ReservoirSampler.__dict__["extend"]


def test_tracer_keeps_type_dispatch_and_restores():
    classes = all_subclasses(Adversary) + all_subclasses(StreamSampler)
    before = {cls: dict(cls.__dict__) for cls in classes}
    segmented = [cls.next_elements is not Adversary.next_elements for cls in all_subclasses(Adversary)]
    tracer = Tracer()
    layers.install(tracer)
    try:
        assert ReservoirSampler.__dict__["extend"] is not before[ReservoirSampler]["extend"]
        assert [
            cls.next_elements is not Adversary.next_elements for cls in all_subclasses(Adversary)
        ] == segmented
    finally:
        tracer.uninstall()
    assert all(dict(cls.__dict__) == before[cls] for cls in classes)


def test_command_refuses_a_directory_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "game-continuous", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""
