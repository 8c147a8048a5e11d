"""The per-pair oracle vs. the bulk path on INC/HOR-I *beyond-first-round* work.

``bench_backends.py`` measures generation throughput (HOR's initial round).
This one measures what the batched incremental refresh adds on top:
the later-round work of the two incremental algorithms — INC's per-selection
stale-prefix updates and HOR-I's round-start refreshes plus lazy head
resolution.

The later-round cost is isolated by differencing two runs per scoring path
(the test suite's per-pair oracle, ``tests/oracle.py``, and the engine's
bulk path, ``batch``):

* INC: a full ``k = |T|`` run minus a ``k = 1`` run (generation plus one
  selection, no updates);
* HOR-I: a two-round ``k = 2·|T|`` run minus a one-round ``k = |T|`` run
  (whose refresh paths never fire).

Both paths must produce identical schedules, utilities and counters —
the benchmark asserts it — so the ratio of the differences is a pure
wall-clock comparison of the refresh implementation.

INC runs with ``use_interval_bounds=False``: on this unstructured instance
its structural Φ bound soundly skips every refresh walk, which would leave
no refresh work to time.

Scales (``REPRO_BENCH_SCALE``):

* ``tiny``  — 120 events × 12 intervals × 60 users (CI quick mode);
* ``small`` — 500 events × 50 intervals × 200 users (the acceptance-criteria
  size, default);
* ``default`` — 900 events × 90 intervals × 400 users.

Run it from the repository root, so ``tests.oracle`` imports.
"""

from __future__ import annotations

import time

import numpy as np

from repro.algorithms.registry import get_scheduler
from repro.core.execution import ExecutionConfig
from repro.core.instance import SESInstance

from benchmarks.conftest import persist_rows, run_once
from tests.oracle import ORACLE, SCORING_PATHS

#: The timed scoring paths: the baseline first.
PATHS = (ORACLE, "batch")

#: Scheduler options per algorithm: INC's structural bound is off so that
#: its refresh walks run (the bound skips all of them on this instance).
OPTIONS = {"INC": {"use_interval_bounds": False}, "HOR-I": {}}

#: (num_events, num_intervals, num_users, minimum accepted refresh speedup).
REFRESH_SCALES = {
    "tiny": (120, 12, 60, 1.5),
    "small": (500, 50, 200, 2.0),
    "default": (900, 90, 400, 2.0),
}


def build_instance(num_events: int, num_intervals: int, num_users: int) -> SESInstance:
    rng = np.random.default_rng(11)
    return SESInstance.from_arrays(
        interest=rng.random((num_users, num_events)),
        activity=rng.random((num_users, num_intervals)),
        name=f"refresh-{num_events}x{num_intervals}",
    )


def time_run(algorithm: str, instance: SESInstance, k: int, path: str, repetitions: int = 3):
    """Best-of-N timing of one scheduler run (min is robust to interference)."""
    best_elapsed, result = float("inf"), None
    with SCORING_PATHS[path]():
        for _ in range(repetitions):
            scheduler = get_scheduler(algorithm)(
                instance, execution=ExecutionConfig(), **OPTIONS[algorithm]
            )
            started = time.perf_counter()
            result = scheduler.schedule(k)
            best_elapsed = min(best_elapsed, time.perf_counter() - started)
    return best_elapsed, result


def compare_refresh(scale: str):
    num_events, num_intervals, num_users, _ = REFRESH_SCALES[scale]
    # Warm-up so lazy imports / allocator effects don't pollute the first run.
    warmup = build_instance(10, 3, 8)
    for path in PATHS:
        time_run("INC", warmup, 3, path, repetitions=1)
        time_run("HOR-I", warmup, 6, path, repetitions=1)

    instance = build_instance(num_events, num_intervals, num_users)
    #: algorithm -> (baseline k with no refresh work, full k with refresh work).
    plans = {
        "INC": (1, num_intervals),
        "HOR-I": (num_intervals, 2 * num_intervals),
    }
    rows, speedups, results = [], {}, {}
    for algorithm, (base_k, full_k) in plans.items():
        beyond = {}
        for path in PATHS:
            base_time, _ = time_run(algorithm, instance, base_k, path)
            full_time, result = time_run(algorithm, instance, full_k, path)
            beyond[path] = max(full_time - base_time, 0.0)
            results[(algorithm, path)] = result
            rows.append(
                {
                    "scale": scale,
                    "algorithm": algorithm,
                    "path": path,
                    "events": num_events,
                    "intervals": num_intervals,
                    "users": num_users,
                    "k": full_k,
                    "full_time_sec": round(full_time, 4),
                    "beyond_first_round_sec": round(beyond[path], 4),
                    "utility": round(result.utility, 4),
                    "update_computations": result.counters["update_computations"],
                }
            )
        speedups[algorithm] = beyond[ORACLE] / max(beyond["batch"], 1e-9)
    for row in rows:
        row["refresh_speedup"] = round(speedups[row["algorithm"]], 2)
    return rows, results, speedups


def test_incremental_refresh_speedup(benchmark, bench_scale, results_dir):
    scale = bench_scale if bench_scale in REFRESH_SCALES else "small"
    rows, results, speedups = run_once(benchmark, compare_refresh, scale)
    text = persist_rows("incremental_refresh", rows, results_dir)
    print("\n" + text)
    for algorithm, speedup in speedups.items():
        print(f"{algorithm} beyond-first-round refresh speedup: {speedup:.2f}x")

    # The paths must be observationally identical on the full runs …
    for algorithm in ("INC", "HOR-I"):
        oracle = results[(algorithm, ORACLE)]
        batch = results[(algorithm, "batch")]
        assert oracle.schedule.as_dict() == batch.schedule.as_dict()
        assert oracle.utility == batch.utility
        assert oracle.counters == batch.counters
        # … with real refresh work on the table (otherwise the ratio is noise).
        assert batch.counters["update_computations"] > 0

    minimum = REFRESH_SCALES[scale][3]
    for algorithm, speedup in speedups.items():
        assert speedup >= minimum, (
            f"{algorithm} refresh speedup {speedup:.2f}x below the {minimum}x floor "
            f"at scale {scale!r}"
        )
