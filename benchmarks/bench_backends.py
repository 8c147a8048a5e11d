"""Execution backends against their reference, one case per backend.

Each case times a *baseline* and a *candidate* leg on a random unconstrained
instance (every pair feasible, the worst case), checks that both legs' raw
score matrices are bit-identical to the ``batch`` backend's (and, for
scheduler cases, that schedules, utilities and counters agree), and asserts
the candidate's wall-clock speedup:

* ``scalar-batch`` — HOR with ``k = |T|`` (a full run *is* the initial
  round, pure score-evaluation throughput): the vectorised ``batch`` backend
  against the per-pair ``scalar`` reference, ≥3× at ``small``;
* ``batch-cluster`` — TOP (one full score matrix plus a top-k selection)
  with its columns sharded over two localhost workers
  (:func:`~repro.core.distributed.start_local_worker`, the processes
  ``repro worker serve`` runs), ≥1.3× over ``batch`` at ``small``;
* ``cluster-per-column`` — a warm ``score_matrix`` on an interval-heavy
  instance, where the per-request wire latency dominates: the cluster
  backend's batched, pipelined dispatch against the same backend pinned to
  one column per request and one request in flight
  (``cluster/per-column``), ≥1.5× at ``small``.

The cluster cases enforce their floors only on a machine with at least two
CPUs — on one core two worker processes degenerate to serial
execution plus dispatch overhead.  At ``tiny`` their instances are too small
to beat that overhead, so only equivalence is asserted.  The cluster legs'
rows carry the client's wire counters of the last timed run.

Scales (``REPRO_BENCH_SCALE``; events × intervals × users):

* ``tiny`` — 120 × 12 × 60 (scalar-batch), 120 × 12 × 200 (batch-cluster)
  or 50 × 400 × 50 (cluster-per-column) — the CI quick mode;
* ``small`` — 500 × 50 × 200, 500 × 50 × 2000 or 50 × 2000 × 50 (the
  acceptance sizes, default);
* ``default`` — 900 × 90 × 400, 900 × 90 × 4000 or 80 × 4000 × 80.
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Type

import numpy as np
import pytest

from repro.algorithms.base import BaseScheduler
from repro.algorithms.hor import HorScheduler
from repro.algorithms.top import TopScheduler
from repro.core.distributed import protocol, start_local_worker
from repro.core.execution import ExecutionConfig
from repro.core.instance import SESInstance
from repro.core.scoring import ScoringEngine

from benchmarks.conftest import persist_rows, run_once

#: Per scale: (num_events, num_intervals, num_users, minimum speedup or None).
Scales = Dict[str, Tuple[int, int, int, Optional[float]]]

#: Localhost workers spawned for a case with a cluster leg.
CLUSTER_WORKERS = 2

#: Wire-protocol constants pinned while a leg runs.  ``cluster/per-column``
#: is the cluster backend sending one column per request with one request in
#: flight: the dispatch shape that batching and pipelining replaced.
LEG_PINS: Dict[str, Dict[str, int]] = {
    "cluster/per-column": {"MAX_TASK_BATCH": 1, "PIPELINE_DEPTH": 1},
}

#: Client wire counters copied into a cluster leg's row.
WIRE_COLUMNS = ("task_batch", "batches", "round_trips", "bytes_sent", "local_columns")


@dataclass(frozen=True)
class BackendCase:
    """One candidate leg timed against its baseline leg.

    A leg is a backend name, optionally suffixed ``/<shape>`` for a
    :data:`LEG_PINS` entry.
    """

    baseline: str
    candidate: str
    #: Scheduler of the timed ``k = |T|`` run, or ``None`` to time a warm
    #: ``score_matrix`` on one engine (links up, instance shipped).
    scheduler: Optional[Type[BaseScheduler]]
    seed: int
    #: Events per vectorised pass (``None`` keeps the library default).
    chunk_size: Optional[int]
    scales: Scales


CASES: Dict[str, BackendCase] = {
    "scalar-batch": BackendCase(
        "scalar", "batch", HorScheduler, seed=7, chunk_size=None,
        scales={
            "tiny": (120, 12, 60, 2.0),
            "small": (500, 50, 200, 3.0),
            "default": (900, 90, 400, 3.0),
        },
    ),
    "batch-cluster": BackendCase(
        "batch", "cluster", TopScheduler, seed=13, chunk_size=64,
        scales={
            "tiny": (120, 12, 200, None),
            "small": (500, 50, 2000, 1.3),
            "default": (900, 90, 4000, 1.3),
        },
    ),
    "cluster-per-column": BackendCase(
        "cluster/per-column", "cluster", None, seed=13, chunk_size=64,
        scales={
            "tiny": (50, 400, 50, None),
            "small": (50, 2000, 50, 1.5),
            "default": (80, 4000, 80, 1.5),
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


def backend_of(leg: str) -> str:
    return leg.split("/")[0]


def execution_for(case: BackendCase, leg: str, addresses: Sequence[str]) -> ExecutionConfig:
    backend = backend_of(leg)
    return ExecutionConfig(
        backend=backend,
        chunk_size=case.chunk_size,
        workers_addr=tuple(addresses) if backend == "cluster" else None,
    )


@contextlib.contextmanager
def pinned(leg: str):
    """Hold the leg's :data:`LEG_PINS` on the protocol module while it runs."""
    with pytest.MonkeyPatch.context() as patch:
        for name, value in LEG_PINS.get(leg, {}).items():
            patch.setattr(protocol, name, value)
        yield


def time_run(case: BackendCase, instance: SESInstance, leg: str, addresses, repetitions=1):
    """Best-of-N timing of the case's unit of work under one leg.

    Returns ``(seconds, result, wire counters)``; the result is the
    scheduler's :class:`~repro.algorithms.base.SchedulerResult`, or the score
    matrix when the case has no scheduler.  The minimum over repetitions is
    the standard robust estimator on noisy shared machines — every source of
    interference only ever adds time.
    """
    execution = execution_for(case, leg, addresses)
    best_elapsed, result, stats = float("inf"), None, {}
    with pinned(leg):
        if case.scheduler is None:
            engine = ScoringEngine(instance, execution=execution)
            try:
                engine.score_matrix(count=False)  # ship + link establishment
                for _ in range(repetitions):
                    started = time.perf_counter()
                    result = engine.score_matrix(count=False)
                    best_elapsed = min(best_elapsed, time.perf_counter() - started)
                stats = engine.execution_backend.stats()
            finally:
                engine.close()
        else:
            for _ in range(repetitions):
                scheduler = case.scheduler(instance, execution=execution)
                started = time.perf_counter()
                result = scheduler.schedule(instance.num_intervals)
                best_elapsed = min(best_elapsed, time.perf_counter() - started)
            stats = result.cluster_stats
    return best_elapsed, result, stats


def score_matrix_for(case: BackendCase, instance: SESInstance, leg: str, addresses):
    with pinned(leg):
        engine = ScoringEngine(instance, execution=execution_for(case, leg, addresses))
        try:
            return engine.score_matrix(count=False)
        finally:
            engine.close()


def compare_backends(case_id: str, scale: str):
    case = CASES[case_id]
    num_events, num_intervals, num_users, _ = case.scales[scale]
    legs = (case.baseline, case.candidate)
    clustered = any(backend_of(leg) == "cluster" for leg in legs)
    workers = [start_local_worker() for _ in range(CLUSTER_WORKERS if clustered else 0)]
    addresses = [worker.address for worker in workers]
    try:
        # Warm-up on a minute instance so one-time costs (connection
        # handshakes, lazy imports, allocator warm-up) don't pollute the
        # first timed leg.
        warmup = build_instance(case.seed, 10, 3, 8)
        for leg in legs:
            time_run(case, warmup, leg, addresses)
        instance = build_instance(case.seed, num_events, num_intervals, num_users)
        rows, results, timings = [], {}, {}
        for leg in legs:
            elapsed, result, stats = time_run(case, instance, leg, addresses, repetitions=3)
            results[leg] = result
            timings[leg] = elapsed
            row = {
                "scale": scale,
                "case": case_id,
                "backend": leg,
                "events": num_events,
                "intervals": num_intervals,
                "users": num_users,
                "time_sec": round(elapsed, 4),
            }
            if case.scheduler is not None:
                row["workers"] = result.workers
                row["utility"] = round(result.utility, 4)
                row["score_computations"] = result.score_computations
            if clustered:
                row.update({key: stats.get(key, "-") for key in WIRE_COLUMNS})
            rows.append(row)
        # Ratios come from the raw timings — rounding is for display only.
        for row in rows:
            row[f"speedup_vs_{case.baseline}"] = round(
                timings[case.baseline] / max(timings[row["backend"]], 1e-9), 2
            )
        speedup = timings[case.baseline] / max(timings[case.candidate], 1e-9)

        # Bit-identity of the raw score matrices, on the benchmark instance
        # itself, against the serial batch path.
        reference = score_matrix_for(case, instance, "batch", addresses)
        identical = all(
            np.array_equal(score_matrix_for(case, instance, leg, addresses), reference)
            for leg in legs
        )
    finally:
        for worker in workers:
            worker.stop()
    return rows, results, speedup, identical


@pytest.mark.parametrize("case_id", list(CASES))
def test_backend_speedup(benchmark, bench_scale, results_dir, case_id):
    case = CASES[case_id]
    scale = bench_scale if bench_scale in case.scales else "small"
    rows, results, speedup, identical = run_once(benchmark, compare_backends, case_id, scale)
    text = persist_rows(f"backends_{case_id}", rows, results_dir)
    print("\n" + text)
    print(
        f"{case.candidate} speedup over {case.baseline}: {speedup:.2f}x "
        f"({os.cpu_count()} CPUs)"
    )

    # The legs must be observationally identical …
    assert identical, f"a leg of {case_id} has a score matrix not bit-identical to batch"
    if case.scheduler is not None:
        baseline, candidate = results[case.baseline], results[case.candidate]
        assert baseline.schedule.as_dict() == candidate.schedule.as_dict()
        assert baseline.utility == candidate.utility
        assert baseline.counters == candidate.counters
    # … and the candidate actually faster where the hardware allows it.
    minimum = case.scales[scale][3]
    clustered = backend_of(case.candidate) == "cluster"
    if minimum is not None and (not clustered or (os.cpu_count() or 1) >= 2):
        assert speedup >= minimum, (
            f"{case.candidate} speedup {speedup:.2f}x below the {minimum}x "
            f"floor over {case.baseline} at scale {scale!r} on {os.cpu_count()} CPUs"
        )
