"""Protocol v2 of the cluster backend: batched, pipelined dispatch.

PR 6 grew the wire protocol from one round-trip per score-matrix column to
batched, pipelined batches (:data:`OP_SCORE_COLUMNS`), with reconnection
backoff and mid-run re-discovery on the client.  These tests pin down the v2
behaviours the v1-era suite (``test_cluster_backend.py``) could not express:

* the **batch sizing rule** (:func:`derive_task_batch`): the batch size is
  always derived from |T| and the lane count, never configured;
* **version-mismatch rejection**: a v1-speaking peer fails the handshake with
  a clear :class:`SolverError` — never a hang, never a wrong result;
* **batched equivalence**: schedules, utilities, scores and counters are
  bit-identical to the serial batch path for every derived batch size —
  single columns, an intermediate size and the :data:`MAX_TASK_BATCH` clamp;
* **elasticity**: a worker started mid-run on a configured address joins an
  in-flight ``score_matrix`` call via re-discovery; an explicit ``workers=N``
  caps dispatch *lanes* but never slices the candidate worker set;
* the **failure model**: in-flight batches of a dead worker re-split across
  the survivors, a fatal worker-side error aborts the remaining lanes
  promptly, and :meth:`WorkerHandle.kill` is a real SIGKILL.

The deterministic failure/elasticity scenarios host :class:`WorkerServer`
subclasses on in-process threads (slow, broken or mortal on cue); the
equivalence tests use two real spawned worker processes.
"""

from __future__ import annotations

import collections
import dataclasses
import importlib
import signal
import socket
import threading
import time

import numpy as np
import pytest

from repro.algorithms.base import SchedulerResult
from repro.algorithms.registry import run_scheduler
from repro.cli import main
from repro.core.distributed import ClusterWorkerWarning, protocol, start_local_worker
from repro.core.distributed.client import ClusterBackend, _CallState, _WorkerLink
from repro.core.distributed.protocol import (
    MAX_TASK_BATCH,
    OP_SCORE_COLUMNS,
    PIPELINE_DEPTH,
    STATUS_ERROR,
    STATUS_OK,
    TASK_OVERSUBSCRIBE,
    derive_task_batch,
)
from repro.core.distributed.worker import WorkerServer
from repro.core.errors import SolverError
from repro.core.execution import ExecutionConfig
from repro.core.scoring import ScoringEngine
from repro.experiments.metrics import MetricRecord

from tests.conftest import make_random_instance

#: Backend under test.
BACKEND = "cluster"

#: Spawned worker count of the equivalence runs (2: real fan-out).
WORKERS = 2

TOLERANCE = 1e-12

#: Interval counts whose derived batch size over two lanes is one column,
#: an intermediate size and the MAX_TASK_BATCH clamp.  The clamped shape
#: cuts 40 batches, so the timing-based scenarios have as many wire
#: round-trips as per-column dispatch of 40 intervals would.
SINGLE_COLUMN_INTERVALS = 2 * TASK_OVERSUBSCRIBE
MID_INTERVALS = 17
CLAMPED_INTERVALS = 40 * MAX_TASK_BATCH


@pytest.fixture(scope="module")
def worker_pool():
    """Long-lived localhost worker processes shared by the equivalence tests."""
    handles = [start_local_worker() for _ in range(WORKERS)]
    yield handles
    for handle in handles:
        handle.stop()


def _config(worker_handles, **overrides) -> ExecutionConfig:
    defaults = {
        "backend": BACKEND,
        "workers_addr": tuple(handle.address for handle in worker_handles),
    }
    defaults.update(overrides)
    return ExecutionConfig(**defaults)


# --------------------------------------------------------------------------- #
# In-thread worker servers with scripted behaviour (deterministic scenarios)
# --------------------------------------------------------------------------- #
class _ThreadWorker(WorkerServer):
    """A :class:`WorkerServer` hosted on an in-process thread.

    ``delay`` sleeps before every score request (a slow machine);
    ``die_after`` drops the connection mid-run after that many served score
    batches (a crash — once; reconnections serve normally) and then sets
    ``died``; ``gate`` holds every score request until that event is set
    (bounded, so a broken script fails instead of hanging);
    ``break_scores`` answers every batch with a non-healable error payload.
    """

    def __init__(self, *, delay: float = 0.0, die_after=None, break_scores=False,
                 gate=None, port: int = 0) -> None:
        super().__init__(port=port)
        self.delay = delay
        self.die_after = die_after
        self.break_scores = break_scores
        self.gate = gate
        self.died = threading.Event()
        self.served_batches = 0
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()

    def _dispatch(self, request, selection):
        if isinstance(request, tuple) and request and request[0] == OP_SCORE_COLUMNS:
            if self.break_scores:
                return (STATUS_ERROR, "injected-failure"), False
            if self.gate is not None:
                self.gate.wait(timeout=30.0)
            if self.delay:
                time.sleep(self.delay)
            self.served_batches += 1
            if self.die_after is not None and self.served_batches > self.die_after:
                self.die_after = None  # die once; reconnections serve normally
                self.died.set()
                raise SystemExit  # escapes the per-request handler: drops the link
        return super()._dispatch(request, selection)

    def _serve_connection(self, connection):
        try:
            super()._serve_connection(connection)
        except SystemExit:
            pass  # scripted death — the base class already closed the link

    def shutdown(self) -> None:
        self.stop()
        self._thread.join(timeout=5.0)


def _reserved_port() -> int:
    """A localhost port that is currently free (bind-and-release)."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _batch_matrix(instance, **kwargs) -> np.ndarray:
    engine = ScoringEngine(
        instance, execution=ExecutionConfig(backend="batch", **kwargs)
    )
    return engine.score_matrix(count=False)


# --------------------------------------------------------------------------- #
# Batch sizing: derived from the instance shape, never configured
# --------------------------------------------------------------------------- #
class TestBatchSizing:
    def test_auto_derivation_spreads_over_lanes(self):
        # ceil(n / (lanes * TASK_OVERSUBSCRIBE)), clamped to [1, MAX_TASK_BATCH].
        assert derive_task_batch(100, 2) == -(-100 // (2 * TASK_OVERSUBSCRIBE))
        assert derive_task_batch(8, 2) == 1
        assert derive_task_batch(1, 1) == 1
        assert derive_task_batch(10_000, 1) == MAX_TASK_BATCH
        # One batch never exceeds MAX_TASK_BATCH columns on the wire.
        for intervals in (1, 5, 63, 64, 65, 257, 4096):
            for lanes in (1, 2, 3, 8):
                assert 1 <= derive_task_batch(intervals, lanes) <= MAX_TASK_BATCH

    def test_test_shapes_cover_every_sizing_regime(self):
        assert derive_task_batch(SINGLE_COLUMN_INTERVALS, WORKERS) == 1
        assert 1 < derive_task_batch(MID_INTERVALS, WORKERS) < MAX_TASK_BATCH
        assert derive_task_batch(CLAMPED_INTERVALS, WORKERS) == MAX_TASK_BATCH

    def test_batch_size_is_not_configurable(self):
        with pytest.raises(TypeError):
            ExecutionConfig(task_batch=2)
        # No v3 client ever sent the per-column op, so the version stays.
        assert protocol.PROTOCOL_VERSION == 3
        for module, name in (
            ("repro.core.execution", "resolve_task_batch"),
            ("repro.core.distributed.protocol", "OP_SCORE_COLUMN"),
        ):
            assert not hasattr(importlib.import_module(module), name), name
        config = ExecutionConfig(backend="cluster", workers_addr=("h:1",)).resolve(10)
        assert not hasattr(ClusterBackend(config), "_pipeline_depth")
        assert "task_batch" not in {f.name for f in dataclasses.fields(SchedulerResult)}

    def test_cli_rejects_the_retired_task_batch_flag(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(
                [
                    "solve", "--dataset", "Unf", "-k", "2",
                    "--users", "10", "--events", "5", "--intervals", "2",
                    "--algorithms", "TOP",
                    "--backend", "cluster", "--task-batch", "2",
                ]
            )
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --task-batch" in capsys.readouterr().err


# --------------------------------------------------------------------------- #
# Version-mismatch rejection
# --------------------------------------------------------------------------- #
class TestVersionMismatch:
    def test_v1_peer_is_rejected_with_a_clear_error(self):
        """A v1-speaking peer fails the handshake loudly — no hang, no demotion."""
        from multiprocessing.connection import Listener

        from repro.core.distributed.protocol import authkey_bytes

        listener = Listener(("127.0.0.1", 0), authkey=authkey_bytes(None))
        host, port = listener.address

        def serve_v1():
            try:
                connection = listener.accept()
            except (OSError, EOFError):
                return
            try:
                connection.recv()  # the client's OP_PING
                connection.send((STATUS_OK, {"version": 1, "pid": 0}))
                connection.recv()  # wait for the client to hang up
            except (OSError, EOFError):
                pass
            finally:
                connection.close()

        peer = threading.Thread(target=serve_v1, daemon=True)
        peer.start()
        instance = make_random_instance(seed=601, num_users=10, num_events=6, num_intervals=3)
        engine = ScoringEngine(
            instance,
            execution=ExecutionConfig(
                backend="cluster", workers_addr=(f"{host}:{port}",)
            ),
        )
        try:
            with pytest.raises(SolverError, match="speaks protocol 1"):
                engine.score_matrix(count=False)
        finally:
            engine.close()
            listener.close()
            peer.join(timeout=5.0)


# --------------------------------------------------------------------------- #
# Batched equivalence (bit-identity across batch sizes)
# --------------------------------------------------------------------------- #
class TestBatchedEquivalence:
    @pytest.mark.parametrize(
        "num_intervals",
        [SINGLE_COLUMN_INTERVALS, MID_INTERVALS, 100, CLAMPED_INTERVALS],
    )
    def test_score_matrix_bit_identical_for_every_batch_size(
        self, worker_pool, num_intervals
    ):
        instance = make_random_instance(
            seed=602, num_users=30, num_events=20, num_intervals=num_intervals,
            num_competing=4,
        )
        cluster = ScoringEngine(instance, execution=_config(worker_pool, chunk_size=4))
        try:
            assert np.array_equal(
                cluster.score_matrix(count=False),
                _batch_matrix(instance, chunk_size=4),
            )
            subset = [1, 4, 7, 9, 13, 19, 0, 5]
            assert np.array_equal(
                cluster.score_matrix(subset, count=False),
                ScoringEngine(
                    instance, execution=ExecutionConfig(backend="batch", chunk_size=4)
                ).score_matrix(subset, count=False),
            )
            stats = cluster.execution_backend.stats()
            expected = derive_task_batch(instance.num_intervals, cluster.workers)
            assert stats["task_batch"] == expected
            # Remote batches respect the wire batch size.
            assert all(
                worker["tasks"] <= worker["batches"] * expected
                for worker in stats["workers"].values()
            )
        finally:
            cluster.close()

    @pytest.mark.parametrize("algorithm", ["ALG", "INC", "HOR", "TOP"])
    def test_schedules_and_counters_identical_to_batch(self, worker_pool, algorithm):
        # 8, 9 and 33 intervals derive batches of 1, 2 and 5 columns.
        for num_intervals in (SINGLE_COLUMN_INTERVALS, 9, 33):
            instance = make_random_instance(
                seed=603, num_users=25, num_events=16, num_intervals=num_intervals,
                num_competing=3,
            )
            k = min(instance.num_events, 2 * instance.num_intervals)
            batch = run_scheduler(
                algorithm, instance, k,
                execution=ExecutionConfig(backend="batch", chunk_size=3),
            )
            remote = run_scheduler(
                algorithm, instance, k, execution=_config(worker_pool, chunk_size=3)
            )
            assert remote.schedule.as_dict() == batch.schedule.as_dict()
            assert remote.utility == batch.utility  # bit-identical, not just close
            assert remote.counters == batch.counters

    def test_used_batch_size_recorded_in_summary(self, worker_pool):
        instance = make_random_instance(
            seed=604, num_users=15, num_events=8, num_intervals=MID_INTERVALS
        )
        result = run_scheduler("ALG", instance, 3, execution=_config(worker_pool))
        summary_cluster = result.summary()["cluster"]
        assert summary_cluster["task_batch"] == derive_task_batch(MID_INTERVALS, WORKERS)
        assert summary_cluster["tasks"] + summary_cluster["local_columns"] > 0
        assert summary_cluster["round_trips"] > 0
        assert summary_cluster["bytes_sent"] > 0
        assert "task_batch" not in result.summary()
        record = MetricRecord.from_result(result, experiment_id="x", dataset="d")
        assert "task_batch" not in record.params


# --------------------------------------------------------------------------- #
# Elasticity: mid-run join, lanes-cap semantics
# --------------------------------------------------------------------------- #
class TestElasticity:
    def test_worker_started_mid_run_joins_via_rediscovery(self):
        """A worker that comes up on a configured address mid-call gets work."""
        slow = _ThreadWorker(delay=0.02)
        late_port = _reserved_port()
        late_address = f"127.0.0.1:{late_port}"
        joined = {}

        def start_late_worker():
            time.sleep(0.1)  # after the first connect round has failed
            joined["worker"] = _ThreadWorker(port=late_port)

        starter = threading.Thread(target=start_late_worker, daemon=True)
        instance = make_random_instance(
            seed=605, num_users=10, num_events=8, num_intervals=CLAMPED_INTERVALS
        )
        engine = ScoringEngine(
            instance,
            execution=ExecutionConfig(
                backend="cluster",
                chunk_size=4,
                workers_addr=(slow.address, late_address),
            ),
        )
        try:
            # Warm-up: establish the slow link first, so the main call's
            # ship-overlap local compute ends immediately and the batches
            # genuinely flow over the wire (the run needs wall-clock runway
            # for the late worker to join mid-call).
            with pytest.warns(ClusterWorkerWarning, match="unreachable"):
                engine.score_matrix(count=False)
            starter.start()
            with pytest.warns(ClusterWorkerWarning, match="unreachable"):
                matrix = engine.score_matrix(count=False)
            assert np.array_equal(matrix, _batch_matrix(instance, chunk_size=4))
            stats = engine.execution_backend.stats()
            assert stats["workers"][late_address]["tasks"] > 0, (
                "the late worker never joined the in-flight call"
            )
        finally:
            engine.close()
            starter.join(timeout=5.0)
            slow.shutdown()
            if "worker" in joined:
                joined["worker"].shutdown()

    def test_explicit_workers_caps_lanes_not_the_candidate_set(self):
        """workers=2 with 3 addresses: the third address is a live candidate.

        Regression: v1 sliced ``workers_addr[:workers]``, so when one of the
        two dispatching links died, the third configured worker never received
        its share.  v2 caps concurrent *lanes* at ``workers`` while keeping
        every address a candidate.
        """
        real = start_local_worker()
        slow_b = _ThreadWorker(delay=0.02)
        spare_c = _ThreadWorker()
        instance = make_random_instance(
            seed=606, num_users=10, num_events=8, num_intervals=CLAMPED_INTERVALS
        )
        engine = ScoringEngine(
            instance,
            execution=ExecutionConfig(
                backend="cluster",
                chunk_size=4,
                workers=2,
                workers_addr=(real.address, slow_b.address, spare_c.address),
            ),
        )
        try:
            reference = _batch_matrix(instance, chunk_size=4)
            assert np.array_equal(engine.score_matrix(count=False), reference)
            links = engine.execution_backend._links
            # Two lanes: only the first two addresses hold links so far.
            assert {link.address for link in links if link.alive} == {
                real.address,
                slow_b.address,
            }
            real.kill()
            with pytest.warns(ClusterWorkerWarning):
                assert np.array_equal(engine.score_matrix(count=False), reference)
            stats = engine.execution_backend.stats()
            assert stats["workers"].get(spare_c.address, {}).get("tasks", 0) > 0, (
                "the spare third worker never picked up the dead worker's share"
            )
            links = engine.execution_backend._links
            assert {link.address for link in links if link.alive} == {
                slow_b.address,
                spare_c.address,
            }
        finally:
            engine.close()
            real.kill()
            slow_b.shutdown()
            spare_c.shutdown()


# --------------------------------------------------------------------------- #
# Failure model: re-split, abort flag, SIGKILL
# --------------------------------------------------------------------------- #
class TestFailureModel:
    def test_inflight_batches_resplit_across_survivors(self):
        """_discard_link splits a dead link's window instead of re-queueing whole."""
        config = ExecutionConfig(
            backend="cluster", workers_addr=("a:1", "b:2", "c:3")
        ).resolve(10)
        backend = ClusterBackend(config)

        class _DeadConnection:
            def close(self):
                pass

        dead = _WorkerLink("a:1", _DeadConnection())
        survivors = [_WorkerLink("b:2", _DeadConnection()), _WorkerLink("c:3", _DeadConnection())]
        backend._links = [dead] + survivors
        state = _CallState({}, None, collections.deque(), 0, None, [])
        inflight = collections.deque([[0, 1, 2, 3, 4, 5]])
        with pytest.warns(ClusterWorkerWarning, match="re-dispatching"):
            backend._discard_link(state, dead, inflight, OSError("connection reset"))
        assert dead not in backend._links
        # ceil(6 / 2 survivors) = 3 columns per re-queued share.
        assert sorted(tuple(batch) for batch in state.pending) == [(0, 1, 2), (3, 4, 5)]

    def test_worker_death_mid_call_redispatches_and_stays_bit_identical(self):
        # die_after=1: the worker answers its first batch and drops the link
        # on the second.  The survivor serves nothing until that death, so
        # it holds at most its in-flight window and the local ship overlap
        # stops at the lanes' pipeline floor: the mortal lane always gets the
        # two batches it needs to die on, however the threads are scheduled.
        # 16 intervals over two lanes derive 8 batches of 2 columns.
        mortal = _ThreadWorker(die_after=1)
        survivor = _ThreadWorker(gate=mortal.died)
        instance = make_random_instance(
            seed=607, num_users=12, num_events=10, num_intervals=16
        )
        engine = ScoringEngine(
            instance,
            execution=ExecutionConfig(
                backend="cluster",
                chunk_size=4,
                workers_addr=(mortal.address, survivor.address),
            ),
        )
        try:
            with pytest.warns(ClusterWorkerWarning, match="re-dispatching"):
                matrix = engine.score_matrix(count=False)
            assert np.array_equal(matrix, _batch_matrix(instance, chunk_size=4))
        finally:
            engine.close()
            mortal.shutdown()
            survivor.shutdown()

    def test_fatal_error_aborts_remaining_lanes_promptly(self):
        """One lane's fatal error stops the others before they drain the pool."""
        broken = _ThreadWorker(break_scores=True)
        slow = _ThreadWorker(delay=0.05)
        instance = make_random_instance(
            seed=608, num_users=10, num_events=8, num_intervals=CLAMPED_INTERVALS
        )
        engine = ScoringEngine(
            instance,
            execution=ExecutionConfig(
                backend="cluster",
                chunk_size=4,
                workers_addr=(broken.address, slow.address),
            ),
        )
        try:
            with pytest.raises(SolverError, match="injected-failure"):
                engine.score_matrix(count=False)
            stats = engine.execution_backend.stats()
            # The broken worker produced nothing; the slow lane stopped after
            # at most its in-flight window instead of draining all 40 batches.
            assert stats["workers"].get(broken.address, {}).get("tasks", 0) == 0
            slow_batches = stats["workers"].get(slow.address, {}).get("batches", 0)
            assert slow_batches <= 2 * PIPELINE_DEPTH + 1
        finally:
            engine.close()
            broken.shutdown()
            slow.shutdown()

    def test_kill_is_a_real_sigkill(self):
        """kill() must SIGKILL: abrupt death, no Python-level cleanup."""
        handle = start_local_worker()
        assert handle.process.is_alive()
        handle.kill()
        assert not handle.process.is_alive()
        assert handle.process.exitcode == -signal.SIGKILL
