"""The sharded (thread-pool) scoring backend, locked to batch and scalar.

The ``parallel`` backend dispatches the batch backend's event-axis chunks to a
:class:`~concurrent.futures.ThreadPoolExecutor`.  Each chunk runs the *same*
NumPy kernel on the *same* rows as the serial batch path, and every row's
per-user reduction is independent of the others, so the results must be
**bit-identical** to ``batch`` (and agree with ``scalar`` to machine
precision) — regardless of worker count, chunk size or block split.  These
tests pin that down, along with the ``workers`` knob's resolution rules and
its plumbing through schedulers, results, records and the CLI.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.registry import run_scheduler
from repro.cli import main
from repro.core.errors import SolverError
from repro.core.execution import ExecutionConfig, available_backends, get_backend
from repro.core.scoring import ScoringEngine, resolve_workers
from repro.experiments.harness import run_algorithms
from repro.experiments.metrics import MetricRecord

from tests.conftest import make_random_instance

#: Worker count of the equivalence runs: 2, so the pool genuinely fans out
#: even on a single-core machine (where the automatic resolution picks 1).
WORKERS = 2

#: Every scheduler wired onto the bulk scoring API.
PARALLEL_SCHEDULERS = ["ALG", "INC", "HOR", "HOR-I", "TOP", "INC-U", "ALG-O"]

TOLERANCE = 1e-12


# --------------------------------------------------------------------------- #
# Engine-level bit-identity
# --------------------------------------------------------------------------- #
class TestEngineBitIdentity:
    @pytest.mark.parametrize("chunk_size", [1, 3, 7, None])
    def test_score_matrix_bit_identical_to_batch(self, chunk_size):
        instance = make_random_instance(
            seed=90, num_users=40, num_events=24, num_intervals=5, num_competing=6
        )
        batch = ScoringEngine(instance, execution=ExecutionConfig(backend="batch", chunk_size=chunk_size))
        parallel = ScoringEngine(
            instance,
            execution=ExecutionConfig(
                backend="parallel", chunk_size=chunk_size, workers=WORKERS
            ),
        )
        assert np.array_equal(
            parallel.score_matrix(count=False), batch.score_matrix(count=False)
        )
        # … and against a non-empty schedule state.
        for engine in (batch, parallel):
            engine.apply(2, 1)
            engine.apply(11, 3)
        assert np.array_equal(
            parallel.score_matrix(count=False), batch.score_matrix(count=False)
        )

    def test_interval_scores_and_refresh_bit_identical(self):
        instance = make_random_instance(
            seed=91, num_users=30, num_events=20, num_intervals=4, num_competing=3
        )
        batch = ScoringEngine(instance, execution=ExecutionConfig(backend="batch", chunk_size=4))
        parallel = ScoringEngine(instance, execution=ExecutionConfig(backend="parallel", chunk_size=4, workers=WORKERS))
        subset = [1, 4, 7, 9, 13, 19, 0, 5]
        assert np.array_equal(
            parallel.score_matrix(subset, count=False),
            batch.score_matrix(subset, count=False),
        )
        for interval_index in range(instance.num_intervals):
            assert np.array_equal(
                parallel.interval_scores(interval_index, count=False),
                batch.interval_scores(interval_index, count=False),
            )
            assert np.array_equal(
                parallel.refresh_scores(interval_index, subset, count=False),
                batch.refresh_scores(interval_index, subset, count=False),
            )

    def test_agrees_with_scalar_reference(self):
        instance = make_random_instance(
            seed=92, num_users=25, num_events=18, num_intervals=3, num_competing=2
        )
        scalar = ScoringEngine(instance, execution=ExecutionConfig(backend="scalar"))
        parallel = ScoringEngine(instance, execution=ExecutionConfig(backend="parallel", chunk_size=5, workers=WORKERS))
        matrix = parallel.score_matrix(count=False)
        for event_index in range(instance.num_events):
            for interval_index in range(instance.num_intervals):
                pair = scalar.assignment_score(event_index, interval_index, count=False)
                assert abs(matrix[event_index, interval_index] - pair) <= TOLERANCE

    def test_counter_totals_match_batch(self):
        instance = make_random_instance(seed=93, num_users=12, num_events=9, num_intervals=3)
        totals = {}
        for backend in (b for b in available_backends() if get_backend(b).is_bulk):
            engine = ScoringEngine(instance, execution=ExecutionConfig(backend=backend, chunk_size=2, workers=WORKERS))
            engine.score_matrix(initial=True)
            engine.interval_scores(0, [1, 2, 3], initial=False)
            totals[backend] = engine.counter.snapshot()
        assert totals["parallel"] == totals["batch"]


# --------------------------------------------------------------------------- #
# Worker resolution and pool lifecycle
# --------------------------------------------------------------------------- #
class TestWorkersKnob:
    def test_resolve_workers_auto_and_explicit(self):
        assert resolve_workers(None) >= 1
        assert resolve_workers(1) == 1
        assert resolve_workers(8) == 8

    def test_serial_backends_pin_workers_to_one(self):
        """Serial runs must record workers=1, not the machine's CPU count —
        otherwise identical runs look different across machines in the
        harness tables."""
        assert resolve_workers(None, "batch") == 1
        assert resolve_workers(8, "scalar") == 1
        assert resolve_workers(8, "parallel") == 8
        with pytest.raises(SolverError):
            resolve_workers(0, "batch")  # validation still applies when pinned
        instance = make_random_instance(seed=101, num_users=8, num_events=4, num_intervals=2)
        for backend in ("scalar", "batch"):
            result = run_scheduler("TOP", instance, 2, execution=ExecutionConfig(backend=backend, workers=8))
            assert result.workers == 1, backend
        assert run_scheduler("TOP", instance, 2, execution=ExecutionConfig(backend="parallel", workers=8)).workers == 8

    @pytest.mark.parametrize("bad", [0, -3, True, 2.5, "four"])
    def test_resolve_workers_rejects_non_positive(self, bad):
        with pytest.raises(SolverError):
            resolve_workers(bad)

    def test_invalid_workers_rejected_by_scheduler(self):
        instance = make_random_instance(seed=94, num_users=8, num_events=4, num_intervals=2)
        with pytest.raises(SolverError):
            run_scheduler("TOP", instance, 2, execution=ExecutionConfig(backend="parallel", workers=0))

    def test_single_worker_degrades_to_serial_batch(self):
        """workers=1 must not spin up a pool at all — it is the batch path."""
        instance = make_random_instance(seed=95, num_users=20, num_events=16, num_intervals=3)
        engine = ScoringEngine(instance, execution=ExecutionConfig(backend="parallel", chunk_size=4, workers=1))
        batch = ScoringEngine(instance, execution=ExecutionConfig(backend="batch", chunk_size=4))
        assert np.array_equal(
            engine.score_matrix(count=False), batch.score_matrix(count=False)
        )
        assert engine.execution_backend._executor is None

    def test_pool_created_lazily_and_reused(self):
        instance = make_random_instance(seed=96, num_users=20, num_events=16, num_intervals=3)
        engine = ScoringEngine(instance, execution=ExecutionConfig(backend="parallel", chunk_size=4, workers=2))
        assert engine.execution_backend._executor is None
        engine.score_matrix(count=False)
        first = engine.execution_backend._executor
        assert first is not None
        engine.score_matrix(count=False)
        assert engine.execution_backend._executor is first
        engine.close()
        assert engine.execution_backend._executor is None
        engine.close()  # idempotent

    def test_dropping_the_engine_releases_pool_promptly(self):
        """The engine↔backend link is weak: refcounting alone must free the
        engine (running its __del__, which shuts the pool down) — no waiting
        for the cycle collector."""
        instance = make_random_instance(seed=103, num_users=20, num_events=16, num_intervals=3)
        engine = ScoringEngine(instance, execution=ExecutionConfig(backend="parallel", chunk_size=4, workers=2))
        engine.score_matrix(count=False)
        impl = engine.execution_backend
        assert impl._executor is not None
        del engine
        assert impl._executor is None

    def test_serial_backends_never_create_a_pool(self):
        """The serial strategies do not even have an executor slot."""
        instance = make_random_instance(seed=97, num_users=10, num_events=8, num_intervals=2)
        for backend in ("scalar", "batch"):
            engine = ScoringEngine(instance, execution=ExecutionConfig(backend=backend, workers=4))
            engine.score_matrix(count=False)
            assert getattr(engine.execution_backend, "_executor", None) is None

    def test_scheduler_releases_pool_after_run(self):
        """schedule() must shut the pool down deterministically, not rely on GC."""
        from repro.algorithms.hor import HorScheduler

        instance = make_random_instance(seed=102, num_users=20, num_events=16, num_intervals=3)
        scheduler = HorScheduler(
            instance, execution=ExecutionConfig(backend="parallel", chunk_size=4, workers=2)
        )
        scheduler.schedule(3)
        assert scheduler.engine.execution_backend._executor is None


# --------------------------------------------------------------------------- #
# Scheduler-level equivalence (schedules, utilities, counters)
# --------------------------------------------------------------------------- #
class TestSchedulerEquivalence:
    @pytest.mark.parametrize("algorithm", PARALLEL_SCHEDULERS)
    def test_identical_to_scalar_and_batch(self, algorithm):
        instance = make_random_instance(
            seed=98, num_users=35, num_events=18, num_intervals=4, num_competing=5
        )
        k = min(instance.num_events, 2 * instance.num_intervals)  # multi-round for HOR
        results = {
            backend: run_scheduler(
                algorithm,
                instance,
                k,
                execution=ExecutionConfig(backend=backend, chunk_size=3, workers=WORKERS),
            )
            for backend in available_backends()
        }
        for backend in (b for b in results if get_backend(b).is_bulk):
            assert (
                results[backend].schedule.as_dict() == results["scalar"].schedule.as_dict()
            ), backend
            assert abs(results[backend].utility - results["scalar"].utility) <= TOLERANCE
            assert results[backend].counters == results["scalar"].counters, backend
        # batch vs parallel must be *bit*-identical, not just close.
        assert results["parallel"].utility == results["batch"].utility

    def test_workers_recorded_in_result_and_record(self):
        instance = make_random_instance(seed=99, num_users=15, num_events=8, num_intervals=3)
        result = run_scheduler("HOR", instance, 3, execution=ExecutionConfig(backend="parallel", workers=3))
        assert result.workers == 3
        assert result.summary()["workers"] == 3
        record = MetricRecord.from_result(result, experiment_id="x", dataset="d")
        assert record.params["backend"] == "parallel"
        assert record.params["workers"] == 3

    def test_harness_forwards_workers_and_collects_results(self):
        instance = make_random_instance(seed=100, num_users=15, num_events=8, num_intervals=3)
        sink = []
        records = run_algorithms(
            instance,
            3,
            algorithms=["ALG", "TOP"],
            execution=ExecutionConfig(backend="parallel", workers=2),
            results=sink,
        )
        assert [result.algorithm for result in sink] == ["ALG", "TOP"]
        assert all(record.params["workers"] == 2 for record in records)
        assert all(result.workers == 2 for result in sink)


# --------------------------------------------------------------------------- #
# CLI plumbing
# --------------------------------------------------------------------------- #
class TestCliWorkers:
    def test_solve_with_parallel_backend(self, capsys):
        code = main(
            [
                "solve", "--dataset", "Unf", "-k", "3",
                "--users", "20", "--events", "10", "--intervals", "3",
                "--algorithms", "HOR",
                "--backend", "parallel", "--workers", "2",
            ]
        )
        assert code == 0
        assert "HOR" in capsys.readouterr().out

    def test_invalid_workers_reports_error(self, capsys):
        code = main(
            [
                "solve", "--dataset", "Unf", "-k", "2",
                "--users", "10", "--events", "5", "--intervals", "2",
                "--algorithms", "TOP",
                "--backend", "parallel", "--workers", "0",
            ]
        )
        assert code == 2
        assert "workers" in capsys.readouterr().err
