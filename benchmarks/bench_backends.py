"""The engine's bulk scoring path against its reference: ``batch`` over ``oracle``.

The ``oracle-batch`` case times HOR with ``k = |T|`` (a full run *is* the
initial round, pure score-evaluation throughput) on a random unconstrained
instance (every pair feasible, the worst case) under the per-pair oracle of
the test suite (``tests/oracle.py``, patched into the engine for the leg)
and on the engine's vectorised bulk path (``batch``).  It checks that both
legs' raw score matrices are bit-identical and that their schedules,
utilities and counters agree, and asserts the bulk path's wall-clock
speedup.  Run it from the repository root, so ``tests.oracle`` imports.

Scales (``REPRO_BENCH_SCALE``; events × intervals × users, minimum speedup):

* ``tiny`` — 120 × 12 × 60, ≥2× (the CI quick mode);
* ``small`` — 500 × 50 × 200, ≥3× (the acceptance size, default);
* ``default`` — 900 × 90 × 400, ≥3×.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Tuple, Type

import numpy as np
import pytest

from repro.algorithms.base import BaseScheduler
from repro.algorithms.hor import HorScheduler
from repro.core.execution import ExecutionConfig
from repro.core.instance import SESInstance
from repro.core.scoring import ScoringEngine

from benchmarks.conftest import persist_rows, run_once
from tests.oracle import ORACLE, SCORING_PATHS


@dataclass(frozen=True)
class PathCase:
    """One candidate scoring path timed against its baseline path
    (names of :data:`tests.oracle.SCORING_PATHS`)."""

    baseline: str
    candidate: str
    #: Scheduler of the timed ``k = |T|`` run.
    scheduler: Type[BaseScheduler]
    seed: int
    #: Per scale: (num_events, num_intervals, num_users, minimum speedup).
    scales: Dict[str, Tuple[int, int, int, float]]


CASES: Dict[str, PathCase] = {
    "oracle-batch": PathCase(
        ORACLE, "batch", HorScheduler, seed=7,
        scales={
            "tiny": (120, 12, 60, 2.0),
            "small": (500, 50, 200, 3.0),
            "default": (900, 90, 400, 3.0),
        },
    ),
}


def build_instance(
    seed: int, num_events: int, num_intervals: int, num_users: int
) -> SESInstance:
    rng = np.random.default_rng(seed)
    return SESInstance.from_arrays(
        interest=rng.random((num_users, num_events)),
        activity=rng.random((num_users, num_intervals)),
        name=f"backends-{num_events}x{num_intervals}x{num_users}",
    )


def time_run(case: PathCase, instance: SESInstance, path: str, repetitions=1):
    """Best-of-N timing of one ``k = |T|`` run; returns ``(seconds, result)``.

    The minimum over repetitions is the standard robust estimator on noisy
    shared machines — every source of interference only ever adds time.
    """
    best_elapsed, result = float("inf"), None
    with SCORING_PATHS[path]():
        for _ in range(repetitions):
            scheduler = case.scheduler(instance, execution=ExecutionConfig())
            started = time.perf_counter()
            result = scheduler.schedule(instance.num_intervals)
            best_elapsed = min(best_elapsed, time.perf_counter() - started)
    return best_elapsed, result


def score_matrix(instance: SESInstance, path: str) -> np.ndarray:
    """The raw score matrix of a fresh engine on ``path``."""
    with SCORING_PATHS[path]():
        return ScoringEngine(instance).score_matrix(count=False)


def compare_paths(case_id: str, scale: str):
    case = CASES[case_id]
    num_events, num_intervals, num_users, _ = case.scales[scale]
    legs = (case.baseline, case.candidate)
    # Warm-up on a minute instance so one-time costs (lazy imports,
    # allocator warm-up) don't pollute the first timed leg.
    warmup = build_instance(case.seed, 10, 3, 8)
    for leg in legs:
        time_run(case, warmup, leg)
    instance = build_instance(case.seed, num_events, num_intervals, num_users)
    rows, results, timings = [], {}, {}
    for leg in legs:
        elapsed, result = time_run(case, instance, leg, repetitions=3)
        results[leg] = result
        timings[leg] = elapsed
        rows.append(
            {
                "scale": scale,
                "case": case_id,
                "path": leg,
                "events": num_events,
                "intervals": num_intervals,
                "users": num_users,
                "time_sec": round(elapsed, 4),
                "utility": round(result.utility, 4),
                "score_computations": result.score_computations,
            }
        )
    # Ratios come from the raw timings — rounding is for display only.
    for row in rows:
        row[f"speedup_vs_{case.baseline}"] = round(
            timings[case.baseline] / max(timings[row["path"]], 1e-9), 2
        )
    speedup = timings[case.baseline] / max(timings[case.candidate], 1e-9)

    # Bit-identity of the raw score matrices, on the benchmark instance itself.
    baseline_matrix, candidate_matrix = (score_matrix(instance, leg) for leg in legs)
    identical = np.array_equal(baseline_matrix, candidate_matrix)
    return rows, results, speedup, identical


@pytest.mark.parametrize("case_id", list(CASES))
def test_bulk_path_speedup(benchmark, bench_scale, results_dir, case_id):
    case = CASES[case_id]
    scale = bench_scale if bench_scale in case.scales else "small"
    rows, results, speedup, identical = run_once(benchmark, compare_paths, case_id, scale)
    text = persist_rows(f"backends_{case_id}", rows, results_dir)
    print("\n" + text)
    print(f"{case.candidate} speedup over {case.baseline}: {speedup:.2f}x")

    # The legs must be observationally identical …
    assert identical, f"the legs of {case_id} have score matrices that are not bit-identical"
    baseline, candidate = results[case.baseline], results[case.candidate]
    assert baseline.schedule.as_dict() == candidate.schedule.as_dict()
    assert baseline.utility == candidate.utility
    assert baseline.counters == candidate.counters
    # … and the candidate actually faster.
    minimum = case.scales[scale][3]
    assert speedup >= minimum, (
        f"{case.candidate} speedup {speedup:.2f}x below the {minimum}x "
        f"floor over {case.baseline} at scale {scale!r}"
    )
