"""E9 — sample-based range queries over a grid (Section 1.2, "Range queries").

Clustered points are streamed into a :class:`SampleRangeCounter` sized from
``ln |R| = O(d ln m)``; a panel of query boxes (including the worst box found
by the discrepancy sweep) is then answered from the sample and compared with
the exact counts.  Both a static stream and an adaptive greedy adversary
targeting one fixed box are used.  The reproduced shape: every query's
normalised error stays below ``epsilon`` at the prescribed sample size, under
both regimes.
"""

from __future__ import annotations

import numpy as np

from ..adversary import GreedyDensityAdversary, StaticAdversary, run_adaptive_game
from ..applications.range_queries import SampleRangeCounter, exact_range_count
from ..setsystems import RectangleSystem
from ..setsystems.rectangles import Box
from ..streams.generators import clustered_points
from .config import ExperimentConfig
from .metrics import summarize
from .runner import monte_carlo
from .tables import ExperimentResult


def _query_panel(side: int) -> list[Box]:
    """A fixed panel of query boxes spanning small, medium and large ranges."""
    half = side // 2
    quarter = side // 4
    return [
        Box((1.0, 1.0), (float(half), float(half))),
        Box((float(quarter), float(quarter)), (float(3 * quarter), float(3 * quarter))),
        Box((float(half), 1.0), (float(side), float(side))),
        Box((1.0, 1.0), (float(side), float(quarter))),
        Box((float(side - quarter), float(side - quarter)), (float(side), float(side))),
    ]


def run_range_queries(config: ExperimentConfig | None = None) -> ExperimentResult:
    """E9: additive error of sample-based box counting, static and adversarial."""
    config = config or ExperimentConfig()
    n = config.stream_length
    side = int(config.extra("grid_side", 32))
    dimension = 2
    system = RectangleSystem(side, dimension, max_exact_candidates=200_000)
    queries = _query_panel(side)
    target_box = queries[0]

    result = ExperimentResult(
        experiment_id="E9",
        title="Range queries over [m]^2 from a robust sample",
        parameters={
            "epsilon": config.epsilon,
            "delta": config.delta,
            "stream_length": n,
            "grid_side": side,
            "trials": config.trials,
        },
    )

    for workload in ("static-clustered", "adaptive-greedy"):
        def trial(rng: np.random.Generator, _index: int) -> dict:
            counter = SampleRangeCounter(
                side=side,
                dimension=dimension,
                epsilon=config.epsilon,
                delta=config.delta,
                mechanism="reservoir",
                seed=rng,
            )
            if workload == "static-clustered":
                points = clustered_points(n, side, dimension, clusters=4, seed=rng)
                adversary = StaticAdversary(points)
            else:
                adversary = GreedyDensityAdversary(
                    target_range=target_box,
                    in_range_element=(1, 1),
                    out_range_element=(side, side),
                )
            outcome = run_adaptive_game(
                counter.sampler, adversary, n, keep_updates=False
            )
            stream = outcome.stream
            sample = list(outcome.sample)
            if not sample:
                return {"worst_query_error": 1.0, "discrepancy": 1.0, "sample_size": 0}
            worst_query_error = 0.0
            for box in queries:
                exact = exact_range_count(stream, box)
                estimate = box.count(sample) / len(sample) * len(stream)
                worst_query_error = max(worst_query_error, abs(estimate - exact) / len(stream))
            discrepancy = system.max_discrepancy(stream, sample)
            return {
                "worst_query_error": worst_query_error,
                "discrepancy": discrepancy.error,
                "sample_size": len(sample),
            }

        outcomes = monte_carlo(trial, config.trials, seed=config.seed)
        result.add_row(
            workload=workload,
            mean_worst_query_error=summarize(
                [o["worst_query_error"] for o in outcomes]
            ).mean,
            max_worst_query_error=summarize(
                [o["worst_query_error"] for o in outcomes]
            ).maximum,
            mean_box_discrepancy=summarize([o["discrepancy"] for o in outcomes]).mean,
            mean_sample_size=summarize([float(o["sample_size"]) for o in outcomes]).mean,
        )
    result.note(
        f"ln|R| = {system.log_cardinality():.1f} for the box system; "
        "the reservoir is sized from it via Theorem 1.2"
    )
    return result
