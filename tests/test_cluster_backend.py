"""The distributed ``cluster`` scoring backend, locked to batch and scalar.

The ``cluster`` backend shards :meth:`ScoringEngine.score_matrix`'s
per-interval column tasks across remote worker processes over TCP.  Each
worker runs the *same* chunked NumPy kernel on the *same* rows as the serial
batch path, and every column's per-user reduction is independent of the
others, so the results must be **bit-identical** to ``batch`` (and agree with
``scalar`` to machine precision) — regardless of how many workers there are,
which worker computed which column, or how many of them died along the way.

These tests spawn real localhost workers (:func:`start_local_worker`) and pin
down:

* config resolution of the new ``workers_addr`` / ``cluster_key`` knobs;
* engine-level bit-identity (full grid, subsets, refresh, counters);
* the failure model — a worker killed mid-sequence re-dispatches to the
  survivors, a fully-dead cluster computes locally, an evicted instance is
  re-shipped, a key mismatch is a loud configuration error;
* scheduler / harness / CLI plumbing, including the ``worker serve``
  subcommand end-to-end.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from multiprocessing.connection import Client

import numpy as np
import pytest

from repro.algorithms.registry import run_scheduler
from repro.cli import main
from repro.core.distributed import (
    ClusterBackend,
    ClusterWorkerWarning,
    DEFAULT_CLUSTER_KEY,
    start_local_worker,
)
from repro.core.distributed import client as cluster_client
from repro.core.distributed.protocol import (
    OP_HAS_INSTANCE,
    OP_PING,
    OP_PUT_INSTANCE,
    OP_SCORE_COLUMNS,
    OP_SHUTDOWN,
    PROTOCOL_VERSION,
    STATUS_ERROR,
    STATUS_OK,
    authkey_bytes,
    parse_worker_address,
)
from repro.core.errors import SolverError
from repro.core.execution import (
    ExecutionConfig,
    get_backend,
    resolve_cluster_key,
    resolve_workers,
    resolve_workers_addr,
)
from repro.core.scoring import ScoringEngine
from repro.experiments.harness import run_algorithms
from repro.experiments.metrics import MetricRecord

from tests.conftest import make_random_instance

#: Every scheduler wired onto the bulk scoring API.
CLUSTER_SCHEDULERS = ["ALG", "INC", "HOR", "HOR-I", "TOP", "INC-U", "ALG-O"]

TOLERANCE = 1e-12


@pytest.fixture(scope="module")
def worker_pair():
    """Two long-lived localhost workers shared by the equivalence tests."""
    handles = [start_local_worker(), start_local_worker()]
    yield handles
    for handle in handles:
        handle.stop()


def _config(worker_handles, **overrides) -> ExecutionConfig:
    defaults = {
        "backend": "cluster",
        "workers_addr": tuple(handle.address for handle in worker_handles),
    }
    defaults.update(overrides)
    return ExecutionConfig(**defaults)


# --------------------------------------------------------------------------- #
# Config resolution
# --------------------------------------------------------------------------- #
class TestConfigResolution:
    def test_workers_addr_accepts_string_and_iterable(self):
        assert resolve_workers_addr("10.0.0.5:7077, 10.0.0.6:7078") == (
            "10.0.0.5:7077",
            "10.0.0.6:7078",
        )
        assert resolve_workers_addr(["a:1", "b:2"]) == ("a:1", "b:2")
        assert resolve_workers_addr(None) == ()

    @pytest.mark.parametrize("bad", ["nohost", "host:", "host:notaport", "host:0", "h:1:2"])
    def test_invalid_addresses_rejected(self, bad):
        with pytest.raises(SolverError):
            resolve_workers_addr((bad,))

    def test_knobs_do_not_apply_to_in_process_backends(self):
        assert resolve_workers_addr(("h:1",), "batch") == ()
        assert resolve_cluster_key("secret", "batch") is None
        assert resolve_cluster_key(None, "cluster") == DEFAULT_CLUSTER_KEY
        assert resolve_cluster_key("secret", "cluster") == "secret"
        with pytest.raises(SolverError):
            resolve_cluster_key("", "cluster")

    def test_workers_default_is_the_cluster_size(self):
        addresses = ("h:1", "h:2", "h:3")
        assert resolve_workers(None, "cluster", addresses) == 3
        assert resolve_workers(2, "cluster", addresses) == 2
        assert resolve_workers(None, None, addresses) == 3
        resolved = ExecutionConfig(backend="cluster", workers_addr=addresses).resolve(10)
        assert resolved.workers == 3
        assert resolved.workers_addr == addresses
        assert resolved.cluster_key == DEFAULT_CLUSTER_KEY
        # Idempotent, like every other knob.
        assert resolved.resolve(10) == resolved

    def test_workers_clamped_to_the_cluster_size(self):
        """A cap above the number of addresses resolves to the lanes that run."""
        addresses = ("h:1", "h:2")
        assert resolve_workers(8, "cluster", addresses) == 2
        resolved = ExecutionConfig(backend="cluster", workers=8, workers_addr=addresses).resolve(10)
        assert resolved.workers == 2
        assert resolved.resolve(10) == resolved

    def test_no_addresses_records_one_worker(self):
        """Without workers_addr the cluster backend runs serial batch, so it
        must record workers=1 — not the requested lane cap."""
        assert ExecutionConfig(backend="cluster").resolve(10).workers == 1
        assert resolve_workers(4, "cluster") == 1
        instance = make_random_instance(seed=215, num_users=8, num_events=4, num_intervals=2)
        result = run_scheduler("TOP", instance, 2, execution=ExecutionConfig(backend="cluster"))
        assert result.summary()["workers"] == 1

    def test_registry_wiring(self):
        assert get_backend("cluster") is ClusterBackend
        assert ClusterBackend.is_bulk and ClusterBackend.uses_cluster
        resolved = ExecutionConfig(backend="batch", workers_addr=("h:1",)).resolve(10)
        assert resolved.workers_addr == ()
        assert resolved.cluster_key is None


# --------------------------------------------------------------------------- #
# Engine-level bit-identity against live workers
# --------------------------------------------------------------------------- #
class TestEngineBitIdentity:
    @pytest.mark.parametrize("chunk_size", [1, 3, 7, None])
    def test_score_matrix_bit_identical_to_batch(self, worker_pair, chunk_size):
        instance = make_random_instance(
            seed=210, num_users=40, num_events=24, num_intervals=5, num_competing=6
        )
        batch = ScoringEngine(
            instance, execution=ExecutionConfig(backend="batch", chunk_size=chunk_size)
        )
        cluster = ScoringEngine(instance, execution=_config(worker_pair, chunk_size=chunk_size))
        try:
            assert np.array_equal(
                cluster.score_matrix(count=False), batch.score_matrix(count=False)
            )
            # … and against a non-empty schedule state.
            for engine in (batch, cluster):
                engine.apply(2, 1)
                engine.apply(11, 3)
            assert np.array_equal(
                cluster.score_matrix(count=False), batch.score_matrix(count=False)
            )
        finally:
            cluster.close()

    def test_selected_rows_and_refresh_bit_identical(self, worker_pair):
        instance = make_random_instance(
            seed=211, num_users=30, num_events=20, num_intervals=4, num_competing=3
        )
        batch = ScoringEngine(instance, execution=ExecutionConfig(backend="batch", chunk_size=4))
        cluster = ScoringEngine(instance, execution=_config(worker_pair, chunk_size=4))
        try:
            subset = [1, 4, 7, 9, 13, 19, 0, 5]
            assert np.array_equal(
                cluster.score_matrix(subset, count=False),
                batch.score_matrix(subset, count=False),
            )
            for interval_index in range(instance.num_intervals):
                assert np.array_equal(
                    cluster.interval_scores(interval_index, count=False),
                    batch.interval_scores(interval_index, count=False),
                )
                assert np.array_equal(
                    cluster.refresh_scores(interval_index, subset, count=False),
                    batch.refresh_scores(interval_index, subset, count=False),
                )
        finally:
            cluster.close()

    def test_agrees_with_scalar_reference(self, worker_pair):
        instance = make_random_instance(
            seed=212, num_users=25, num_events=18, num_intervals=3, num_competing=2
        )
        scalar = ScoringEngine(instance, execution=ExecutionConfig(backend="scalar"))
        cluster = ScoringEngine(instance, execution=_config(worker_pair, chunk_size=5))
        try:
            matrix = cluster.score_matrix(count=False)
        finally:
            cluster.close()
        for event_index in range(instance.num_events):
            for interval_index in range(instance.num_intervals):
                pair = scalar.assignment_score(event_index, interval_index, count=False)
                assert abs(matrix[event_index, interval_index] - pair) <= TOLERANCE

    def test_counter_totals_match_batch(self, worker_pair):
        instance = make_random_instance(seed=213, num_users=12, num_events=9, num_intervals=3)
        totals = {}
        for name, execution in (
            ("batch", ExecutionConfig(backend="batch", chunk_size=2)),
            ("cluster", _config(worker_pair, chunk_size=2)),
        ):
            engine = ScoringEngine(instance, execution=execution)
            try:
                engine.score_matrix(initial=True)
                engine.interval_scores(0, [1, 2, 3], initial=False)
                totals[name] = engine.counter.snapshot()
            finally:
                engine.close()
        assert totals["cluster"] == totals["batch"]

    def test_degraded_mode_without_workers_is_in_process(self):
        """No workers_addr: the backend must not touch the network at all."""
        instance = make_random_instance(seed=214, num_users=20, num_events=16, num_intervals=3)
        cluster = ScoringEngine(
            instance, execution=ExecutionConfig(backend="cluster", chunk_size=4, workers=1)
        )
        batch = ScoringEngine(instance, execution=ExecutionConfig(backend="batch", chunk_size=4))
        try:
            assert np.array_equal(
                cluster.score_matrix(count=False), batch.score_matrix(count=False)
            )
            assert cluster.execution_backend._links is None
        finally:
            cluster.close()


# --------------------------------------------------------------------------- #
# Connection lifecycle
# --------------------------------------------------------------------------- #
class TestLifecycle:
    def test_scheduler_closes_backend_after_run(self, worker_pair):
        """schedule() closes the worker connections itself, not through GC."""
        from repro.algorithms.hor import HorScheduler

        instance = make_random_instance(seed=102, num_users=20, num_events=16, num_intervals=3)
        scheduler = HorScheduler(instance, execution=_config(worker_pair, chunk_size=4))
        scheduler.schedule(3)
        assert scheduler.engine.execution_backend._links is None

    def test_dropping_the_engine_closes_links_promptly(self, worker_pair):
        """The engine↔backend link is weak: refcounting alone frees the
        engine (running its __del__, which closes the connections) — no
        waiting for the cycle collector."""
        instance = make_random_instance(seed=103, num_users=20, num_events=16, num_intervals=3)
        engine = ScoringEngine(instance, execution=_config(worker_pair, chunk_size=4))
        engine.score_matrix(count=False)
        impl = engine.execution_backend
        assert impl._links
        del engine
        assert impl._links is None


# --------------------------------------------------------------------------- #
# Failure tolerance
# --------------------------------------------------------------------------- #
class TestFailureTolerance:
    def test_killed_worker_redispatches_to_survivor(self, monkeypatch):
        first, second = start_local_worker(), start_local_worker()
        instance = make_random_instance(
            seed=220, num_users=30, num_events=18, num_intervals=6, num_competing=4
        )
        batch = ScoringEngine(instance, execution=ExecutionConfig(backend="batch", chunk_size=4))
        cluster = ScoringEngine(
            instance,
            execution=ExecutionConfig(
                backend="cluster", chunk_size=4, workers_addr=(first.address, second.address)
            ),
        )
        try:
            # Both workers participate in the first call (links established).
            assert np.array_equal(
                cluster.score_matrix(count=False), batch.score_matrix(count=False)
            )
            first.kill()
            # Hold the survivor's sends until the dead link has failed:
            # otherwise a fast survivor (or the local ship overlap) can drain
            # the queue before the dead worker's lane ever uses its link.
            dead_link_failed = threading.Event()
            send_batch = ClusterBackend._send_batch
            discard_link = ClusterBackend._discard_link

            def gated_send(backend, state, link, batch):
                if link.address == second.address:
                    dead_link_failed.wait(timeout=30.0)
                send_batch(backend, state, link, batch)

            def observed_discard(backend, state, link, inflight, error):
                discard_link(backend, state, link, inflight, error)
                if link.address == first.address:
                    dead_link_failed.set()

            monkeypatch.setattr(ClusterBackend, "_send_batch", gated_send)
            monkeypatch.setattr(ClusterBackend, "_discard_link", observed_discard)
            with pytest.warns(ClusterWorkerWarning, match="re-dispatching"):
                resumed = cluster.score_matrix(count=False)
            assert np.array_equal(resumed, batch.score_matrix(count=False))
        finally:
            cluster.close()
            first.kill()
            second.stop()

    def test_fully_dead_cluster_computes_locally(self):
        worker = start_local_worker()
        instance = make_random_instance(seed=221, num_users=20, num_events=12, num_intervals=4)
        batch = ScoringEngine(instance, execution=ExecutionConfig(backend="batch", chunk_size=3))
        cluster = ScoringEngine(
            instance,
            execution=ExecutionConfig(
                backend="cluster", chunk_size=3, workers_addr=(worker.address,)
            ),
        )
        try:
            assert np.array_equal(
                cluster.score_matrix(count=False), batch.score_matrix(count=False)
            )
            worker.kill()
            # The established link dies mid-call: every interval re-queues and
            # is computed locally with the bit-identical serial kernel.
            with pytest.warns(ClusterWorkerWarning):
                after_death = cluster.score_matrix(count=False)
            assert np.array_equal(after_death, batch.score_matrix(count=False))
        finally:
            cluster.close()
            worker.kill()

    def test_unreachable_worker_is_skipped_with_warning(self):
        worker = start_local_worker()
        # A dead address: bind-and-release an ephemeral port so nobody listens.
        import socket

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_address = "127.0.0.1:%d" % probe.getsockname()[1]
        instance = make_random_instance(seed=222, num_users=20, num_events=10, num_intervals=3)
        batch = ScoringEngine(instance, execution=ExecutionConfig(backend="batch", chunk_size=3))
        cluster = ScoringEngine(
            instance,
            execution=ExecutionConfig(
                backend="cluster", chunk_size=3, workers_addr=(dead_address, worker.address)
            ),
        )
        try:
            with pytest.warns(ClusterWorkerWarning, match="unreachable"):
                matrix = cluster.score_matrix(count=False)
            assert np.array_equal(matrix, batch.score_matrix(count=False))
        finally:
            cluster.close()
            worker.stop()

    def test_evicted_instance_is_reshipped(self):
        """A capacity-1 worker serving two instances keeps evicting — every
        eviction must be healed transparently by a re-ship + retry."""
        worker = start_local_worker(capacity=1)
        first = make_random_instance(seed=223, num_users=15, num_events=8, num_intervals=3)
        second = make_random_instance(seed=224, num_users=15, num_events=8, num_intervals=3)
        execution = ExecutionConfig(
            backend="cluster", chunk_size=3, workers_addr=(worker.address,)
        )
        engine_a = ScoringEngine(first, execution=execution)
        engine_b = ScoringEngine(second, execution=execution)
        batch_a = ScoringEngine(first, execution=ExecutionConfig(backend="batch", chunk_size=3))
        batch_b = ScoringEngine(second, execution=ExecutionConfig(backend="batch", chunk_size=3))
        try:
            subset = [5, 1, 6, 3]
            for _ in range(2):  # A ships, B evicts A, A re-ships, B re-ships …
                assert np.array_equal(
                    engine_a.score_matrix(count=False), batch_a.score_matrix(count=False)
                )
                assert np.array_equal(
                    engine_b.score_matrix(subset, count=False),
                    batch_b.score_matrix(subset, count=False),
                )
        finally:
            engine_a.close()
            engine_b.close()
            worker.stop()

    def test_restarted_worker_rejoins_on_the_next_call(self):
        """A dead link is pruned, so a worker restarted on the same address
        is reconnected (and re-shipped) by the next score_matrix call."""
        from repro.core.distributed.protocol import parse_worker_address

        worker = start_local_worker()
        port = parse_worker_address(worker.address)[1]
        instance = make_random_instance(seed=229, num_users=20, num_events=12, num_intervals=4)
        batch = ScoringEngine(instance, execution=ExecutionConfig(backend="batch", chunk_size=3))
        cluster = ScoringEngine(
            instance,
            execution=ExecutionConfig(
                backend="cluster", chunk_size=3, workers_addr=(worker.address,)
            ),
        )
        replacement = None
        try:
            assert np.array_equal(
                cluster.score_matrix(count=False), batch.score_matrix(count=False)
            )
            worker.kill()
            with pytest.warns(ClusterWorkerWarning):
                cluster.score_matrix(count=False)  # discovers the death
            replacement = start_local_worker(port=port)  # same address
            matrix = cluster.score_matrix(count=False)
            assert np.array_equal(matrix, batch.score_matrix(count=False))
            links = cluster.execution_backend._links
            assert [link.address for link in links if link.alive] == [worker.address]
        finally:
            cluster.close()
            worker.kill()
            if replacement is not None:
                replacement.stop()

    @pytest.mark.parametrize(
        "host, loopback",
        [
            ("localhost", True),
            ("127.0.0.1", True),
            ("127.0.0.2", True),
            ("::1", True),
            ("127.example.com", False),
            ("0.0.0.0", False),
            ("10.0.0.5", False),
        ],
    )
    def test_loopback_host_check(self, host, loopback):
        from repro.core.distributed.protocol import is_loopback_host

        assert is_loopback_host(host) is loopback

    def test_non_loopback_bind_requires_explicit_key(self):
        from repro.core.distributed.worker import WorkerServer

        # A DNS name that merely starts with "127." is not loopback; the
        # refusal happens before bind, so no lookup is made.
        for host in ("0.0.0.0", "127.example.com"):
            with pytest.raises(SolverError, match="cluster-key|cluster_key"):
                WorkerServer(host, 0)
        server = WorkerServer("0.0.0.0", 0, cluster_key="explicit-secret")
        server.stop()

    def test_explicit_workers_caps_dispatch_lanes(self, worker_pair):
        """workers=1 with two configured workers uses one dispatch lane —
        and the recorded workers count matches what actually fanned out."""
        instance = make_random_instance(seed=230, num_users=20, num_events=12, num_intervals=4)
        batch = ScoringEngine(instance, execution=ExecutionConfig(backend="batch", chunk_size=3))
        cluster = ScoringEngine(instance, execution=_config(worker_pair, chunk_size=3, workers=1))
        try:
            assert cluster.execution.workers == 1
            assert np.array_equal(
                cluster.score_matrix(count=False), batch.score_matrix(count=False)
            )
            result = run_scheduler(
                "ALG", instance, 3, execution=_config(worker_pair, workers=1)
            )
            assert result.workers == 1
            assert result.backend == "cluster"
        finally:
            cluster.close()

    def test_recorded_workers_never_exceed_the_lanes(self, worker_pair):
        """workers=8 on two addresses runs two lanes — and records two."""
        instance = make_random_instance(seed=232, num_users=15, num_events=8, num_intervals=4)
        result = run_scheduler("ALG", instance, 3, execution=_config(worker_pair, workers=8))
        assert result.workers == 2
        assert len(result.summary()["cluster"]["workers"].split(",")) == 2
        record = MetricRecord.from_result(result, experiment_id="x", dataset="d")
        assert record.params["workers"] == 2

    def test_subset_selector_ships_once_per_call(self, worker_pair):
        """Later tasks of a subset call reference the cached selection; the
        results stay bit-identical to batch across repeated subset calls."""
        instance = make_random_instance(seed=231, num_users=25, num_events=20, num_intervals=6)
        batch = ScoringEngine(instance, execution=ExecutionConfig(backend="batch", chunk_size=4))
        cluster = ScoringEngine(instance, execution=_config(worker_pair, chunk_size=4))
        try:
            for subset in ([2, 4, 6, 8, 10], [1, 3, 5], [0, 19, 7, 11]):
                assert np.array_equal(
                    cluster.score_matrix(subset, count=False),
                    batch.score_matrix(subset, count=False),
                )
            # The links remember the last call's token (the once-per-call marker).
            links = cluster.execution_backend._links
            assert any(link.selection_token is not None for link in links)
        finally:
            cluster.close()

    def test_cluster_key_mismatch_is_a_loud_error(self):
        worker = start_local_worker(cluster_key="right-key")
        instance = make_random_instance(seed=225, num_users=10, num_events=6, num_intervals=3)
        cluster = ScoringEngine(
            instance,
            execution=ExecutionConfig(
                backend="cluster",
                workers_addr=(worker.address,),
                cluster_key="wrong-key",
            ),
        )
        try:
            with pytest.raises(SolverError, match="authentication"):
                cluster.score_matrix(count=False)
        finally:
            cluster.close()
            worker.stop()


# --------------------------------------------------------------------------- #
# Instance fingerprints: the cache key must always travel with its payload
# --------------------------------------------------------------------------- #
class TestInstanceFingerprint:
    def test_slow_fingerprint_never_scores_a_stale_instance(self, monkeypatch):
        """Lanes racing the first fingerprint of each instance stay exact.

        Hashing a large buffer releases the GIL, so a second lane can ask for
        the ship payload while the first is still fingerprinting it.  The
        sleep widens that window: every instance must still be scored
        against its own matrices, never against an earlier same-shape one.
        """
        fingerprint = cluster_client.instance_fingerprint

        def slow_fingerprint(arrays):
            time.sleep(0.3)
            return fingerprint(arrays)

        monkeypatch.setattr(cluster_client, "instance_fingerprint", slow_fingerprint)
        handles = [start_local_worker(), start_local_worker()]
        try:
            for seed in range(240, 244):
                instance = make_random_instance(
                    seed=seed, num_users=30, num_events=20, num_intervals=8
                )
                batch = ScoringEngine(
                    instance, execution=ExecutionConfig(backend="batch", chunk_size=4)
                )
                cluster = ScoringEngine(instance, execution=_config(handles, chunk_size=4))
                try:
                    assert np.array_equal(
                        cluster.score_matrix(count=False), batch.score_matrix(count=False)
                    ), f"instance {seed} scored against a stale worker record"
                finally:
                    cluster.close()
        finally:
            for handle in handles:
                handle.stop()

    @pytest.mark.parametrize(
        "request_",
        [
            (OP_HAS_INSTANCE, None),
            (OP_PUT_INSTANCE, None, {"kind": "file", "path": "/nonexistent.npz"}),
            (OP_SCORE_COLUMNS, None, ()),
            (OP_HAS_INSTANCE,),
        ],
        ids=["has", "put", "score", "missing"],
    )
    def test_worker_refuses_a_non_str_fingerprint(self, worker_pair, request_):
        host, port = parse_worker_address(worker_pair[0].address)
        connection = Client((host, port), authkey=authkey_bytes(None))
        try:
            connection.send(request_)
            status, reply = connection.recv()
            assert status == STATUS_ERROR
            assert "fingerprint" in reply
            # The link survives a refused request.
            connection.send((OP_HAS_INSTANCE, "no-such-fingerprint"))
            assert connection.recv() == (STATUS_OK, False)
        finally:
            connection.close()


# --------------------------------------------------------------------------- #
# Scheduler-level equivalence (schedules, utilities, counters)
# --------------------------------------------------------------------------- #
class TestSchedulerEquivalence:
    @pytest.mark.parametrize("algorithm", CLUSTER_SCHEDULERS)
    def test_identical_to_scalar_and_batch(self, worker_pair, algorithm):
        instance = make_random_instance(
            seed=219, num_users=35, num_events=18, num_intervals=4, num_competing=5
        )
        k = min(instance.num_events, 2 * instance.num_intervals)  # multi-round for HOR
        results = {
            "scalar": run_scheduler(
                algorithm, instance, k, execution=ExecutionConfig(backend="scalar")
            ),
            "batch": run_scheduler(
                algorithm, instance, k,
                execution=ExecutionConfig(backend="batch", chunk_size=3),
            ),
            "cluster": run_scheduler(
                algorithm, instance, k, execution=_config(worker_pair, chunk_size=3)
            ),
        }
        for name in ("batch", "cluster"):
            assert (
                results[name].schedule.as_dict() == results["scalar"].schedule.as_dict()
            ), name
            assert abs(results[name].utility - results["scalar"].utility) <= TOLERANCE
            assert results[name].counters == results["scalar"].counters, name
        # batch vs cluster must be *bit*-identical, not just close.
        assert results["cluster"].utility == results["batch"].utility

    def test_execution_recorded_in_result_and_record(self, worker_pair):
        instance = make_random_instance(seed=226, num_users=15, num_events=8, num_intervals=3)
        result = run_scheduler("ALG", instance, 3, execution=_config(worker_pair))
        addresses = tuple(handle.address for handle in worker_pair)
        assert result.backend == "cluster"
        assert result.workers == len(addresses)
        assert result.summary()["workers"] == len(addresses)
        assert result.cluster == addresses
        cluster_cell = result.summary()["cluster"]
        assert cluster_cell["workers"] == ",".join(addresses)
        assert cluster_cell["tasks"] + cluster_cell["local_columns"] > 0
        assert "task_batch" not in result.summary()
        record = MetricRecord.from_result(result, experiment_id="x", dataset="d")
        assert record.params["backend"] == "cluster"
        assert record.params["workers"] == len(addresses)
        assert record.params["cluster"] == ",".join(addresses)
        assert "task_batch" not in record.params
        # In-process runs must not grow a cluster param.
        local = run_scheduler("ALG", instance, 3, execution=ExecutionConfig(backend="batch"))
        assert local.cluster == ()
        assert local.summary()["cluster"] == "-"
        local_record = MetricRecord.from_result(local, experiment_id="x", dataset="d")
        assert "cluster" not in local_record.params

    def test_harness_forwards_execution(self, worker_pair):
        instance = make_random_instance(seed=227, num_users=15, num_events=8, num_intervals=3)
        sink = []
        records = run_algorithms(
            instance,
            3,
            algorithms=["ALG", "TOP"],
            execution=_config(worker_pair),
            results=sink,
        )
        assert [result.algorithm for result in sink] == ["ALG", "TOP"]
        assert all(record.params["backend"] == "cluster" for record in records)
        assert all(record.params["workers"] == 2 for record in records)
        assert all(result.workers == 2 for result in sink)
        addresses = ",".join(handle.address for handle in worker_pair)
        assert all(record.params["cluster"] == addresses for record in records)


# --------------------------------------------------------------------------- #
# CLI plumbing
# --------------------------------------------------------------------------- #
class TestCliCluster:
    def test_solve_with_cluster_backend(self, worker_pair, capsys):
        addresses = ",".join(handle.address for handle in worker_pair)
        code = main(
            [
                "solve", "--dataset", "Unf", "-k", "3",
                "--users", "20", "--events", "10", "--intervals", "3",
                "--algorithms", "ALG",
                "--cluster", addresses,
            ]
        )
        assert code == 0
        assert "ALG" in capsys.readouterr().out

    def test_cluster_with_in_process_backend_is_a_contradiction(self, capsys):
        code = main(
            [
                "solve", "--dataset", "Unf", "-k", "2",
                "--users", "10", "--events", "5", "--intervals", "2",
                "--algorithms", "TOP",
                "--backend", "batch", "--cluster", "127.0.0.1:7077",
            ]
        )
        assert code == 2
        assert "--cluster" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command", [("worker", "serve"), ("serve",)], ids=["worker", "service"]
    )
    def test_serve_subcommand_end_to_end(self, command):
        """`repro worker serve` / `repro serve` announce, answer a ping, and shut down."""
        src_dir = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", *command],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            line = process.stdout.readline().strip()
            assert "listening on" in line
            address = line.rsplit(" ", 1)[-1]
            if command[0] == "worker":
                instance = make_random_instance(
                    seed=228, num_users=12, num_events=8, num_intervals=3
                )
                batch = ScoringEngine(instance, execution=ExecutionConfig(backend="batch"))
                cluster = ScoringEngine(
                    instance,
                    execution=ExecutionConfig(backend="cluster", workers_addr=(address,)),
                )
                try:
                    assert np.array_equal(
                        cluster.score_matrix(count=False), batch.score_matrix(count=False)
                    )
                finally:
                    cluster.close()
            host, port = parse_worker_address(address)
            connection = Client((host, port), authkey=authkey_bytes(None))
            try:
                connection.send((OP_PING,))
                status, payload = connection.recv()
                assert status == STATUS_OK
                assert payload["version"] == PROTOCOL_VERSION
                connection.send((OP_SHUTDOWN,))
                status, _ = connection.recv()
                assert status == STATUS_OK
            finally:
                connection.close()
            assert process.wait(timeout=10) == 0
        finally:
            if process.poll() is None:  # pragma: no cover - cleanup on failure
                process.kill()
                process.wait()
