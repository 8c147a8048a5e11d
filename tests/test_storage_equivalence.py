"""Storage equivalence: dense, sparse and mmap must be bit-identical.

The storage layer re-represents the interest matrices without changing a
single value, and every execution backend runs the same
``score_block_kernel`` over the same event-axis chunks — so scores,
utilities, schedules and counters must be **bit-identical** across
storages, across backends, and across the cluster wire.  These tests pin
that down:

* engine-level ``score_matrix`` / ``interval_scores`` equality under every
  storage × plan layout (including against a mutated schedule state);
* scheduler-level equality (schedule, utility, counters) with the dense,
  direct reference under every layout and backend, with the storage and plan
  recorded on the result — on adversarial corners too: a single user,
  all-zero µ, exact score ties, a capacity-1 interval filled by a lock and
  §2.1 event values (the valued corner also runs under every backend,
  ``cluster-2`` included);
* cluster runs against the suite's live localhost workers, per layout — the
  mmap layouts ship only the backing-file path (protocol v3's ``"file"``
  payload);
* the no-filesystem-visibility fallback: a worker that cannot map the
  shipped path answers ``ERROR_FILE_UNAVAILABLE`` and the client re-ships
  the instance bytes under the same fingerprint, bit-identically;
* the protocol v3 primitives themselves: chunked fingerprints (chunk size
  must not change the digest), file fingerprints, and
  ``build_instance_record`` over every payload kind.

The ``layout`` fixture (``tests/conftest.py``) enumerates the storage × plan
layouts; every blocked layout runs on duplicate-heavy users and asserts the
plan really evaluated class blocks.
"""

from __future__ import annotations

import hashlib
import pickle
import threading

import numpy as np
import pytest

from repro.algorithms.registry import run_scheduler
from repro.core.distributed import protocol
from repro.core.distributed.protocol import (
    ColumnTask,
    PROTOCOL_VERSION,
    file_fingerprint,
    instance_fingerprint,
)
from repro.core.distributed.worker import (
    FileUnavailableError,
    WorkerServer,
    build_instance_record,
    score_column,
)
from repro.core.errors import SolverError
from repro.core.execution import ExecutionConfig
from repro.core.instance_io import spill_instance
from repro.core.scoring import ScoringEngine, build_event_rows, build_static_arrays
from repro.core.storage import DenseEventRows, MmapStore, StoreEventRows, as_sparse
from tests.conftest import LAYOUTS, execution_variants, make_random_instance

SCHEDULERS = ["ALG", "INC", "HOR", "TOP"]

#: Every layout but the dense, direct reference itself.
OTHER_LAYOUTS = pytest.mark.parametrize("layout", LAYOUTS[1:], indirect=True)

#: Adversarial corners of the scheduler-equivalence test: the instance config
#: and the locked ``(event, interval)`` pairs.
CORNERS = {
    "random": (dict(seed=310, num_users=50, num_events=16, num_intervals=5), ()),
    "single-user": (dict(seed=311, num_users=1, num_events=10, num_intervals=4), ()),
    "zero-interest": (
        dict(seed=312, num_users=24, num_events=10, num_intervals=4, interest_scale=0.0),
        (),
    ),
    # Two user patterns and two interest levels: at most four distinct event
    # columns among twelve events, so scores tie exactly.
    "exact-ties": (
        dict(
            seed=313,
            num_users=8,
            num_events=12,
            num_intervals=4,
            users_per_pattern=4,
            interest_levels=2,
        ),
        (),
    ),
    # Interval t0 holds one event, and a lock fills it before the run.
    "full-interval": (
        dict(
            seed=314,
            num_users=24,
            num_events=10,
            num_intervals=4,
            capacities=[1, None, None, None],
        ),
        ((2, 0),),
    ),
    # §2.1 event values: the kernel's general (valued) path, which the
    # paper's unit-value instances elsewhere in the suite never take.
    "event-values": (
        dict(
            seed=315,
            num_users=24,
            num_events=12,
            num_intervals=4,
            event_values=list(np.linspace(0.5, 2.0, 12)),
        ),
        (),
    ),
}

#: Every layout × corner; a single user leaves the blocked plan nothing to
#: compress (its degenerate fallback has its own test in test_block_plans).
CORNER_CASES = [
    pytest.param(layout, corner, id=f"{layout}-{corner}")
    for layout in LAYOUTS
    for corner in CORNERS
    if not (corner == "single-user" and layout.endswith("-blocked"))
]


# --------------------------------------------------------------------------- #
# Engine-level bit-identity
# --------------------------------------------------------------------------- #
class TestEngineEquivalence:
    @OTHER_LAYOUTS
    @pytest.mark.parametrize("chunk_size", [1, 5, None])
    def test_score_matrix_bit_identical(self, layout, chunk_size):
        instance = layout.instance(
            seed=300, num_users=40, num_events=18, num_intervals=5
        )
        reference = ScoringEngine(
            instance.with_storage("dense"),
            execution=ExecutionConfig(chunk_size=chunk_size),
        )
        engine = ScoringEngine(instance, execution=layout.execution(chunk_size=chunk_size))
        assert np.array_equal(
            engine.score_matrix(count=False), reference.score_matrix(count=False)
        )
        # ... and against a non-empty schedule state.
        for each in (reference, engine):
            each.apply(3, 1)
            each.apply(9, 2)
        assert np.array_equal(
            engine.score_matrix(count=False), reference.score_matrix(count=False)
        )

    @OTHER_LAYOUTS
    def test_interval_scores_and_subsets_bit_identical(self, layout):
        instance = layout.instance(
            seed=301, num_users=30, num_events=14, num_intervals=4
        )
        reference = ScoringEngine(
            instance.with_storage("dense"), execution=ExecutionConfig(chunk_size=3)
        )
        engine = ScoringEngine(instance, execution=layout.execution(chunk_size=3))
        subset = [11, 2, 7, 2, 0]
        for interval_index in range(4):
            assert np.array_equal(
                engine.interval_scores(interval_index, count=False),
                reference.interval_scores(interval_index, count=False),
            )
            assert np.array_equal(
                engine.interval_scores(interval_index, subset, count=False),
                reference.interval_scores(interval_index, subset, count=False),
            )

    @OTHER_LAYOUTS
    def test_counters_are_storage_invariant(self, layout):
        instance = layout.instance(
            seed=302, num_users=20, num_events=10, num_intervals=3
        )
        snapshots = []
        for each, execution in (
            (instance.with_storage("dense"), ExecutionConfig(chunk_size=4)),
            (instance, layout.execution(chunk_size=4)),
        ):
            engine = ScoringEngine(each, execution=execution)
            engine.score_matrix(initial=True)
            engine.interval_scores(1, [0, 3, 5], initial=False)
            snapshots.append(engine.counter.snapshot())
        assert snapshots[1] == snapshots[0]


# --------------------------------------------------------------------------- #
# Scheduler-level equality across storage x plan x backend
# --------------------------------------------------------------------------- #
class TestSchedulerEquivalence:
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    @pytest.mark.parametrize("layout, corner", CORNER_CASES, indirect=["layout"])
    def test_batch_schedulers_storage_invariant(self, layout, corner, scheduler):
        config, locked = CORNERS[corner]
        instance = layout.instance(**config)
        reference = run_scheduler(
            scheduler, instance.with_storage("dense"), 6, locked=locked
        )
        result = run_scheduler(
            scheduler, instance, 6, execution=layout.execution(), locked=locked
        )
        assert result.schedule.as_dict() == reference.schedule.as_dict()
        assert result.utility == reference.utility
        assert result.counters == reference.counters
        assert set(locked) <= set(result.schedule.as_dict().items())
        assert result.storage == layout.storage
        assert result.summary()["storage"] == layout.storage
        assert result.plan == layout.plan

    def test_exact_ties_corner_ties(self):
        """The exact-ties corner must really produce tied initial scores."""
        config, _ = CORNERS["exact-ties"]
        instance = make_random_instance(**config)
        grid = ScoringEngine(instance).score_matrix(count=False)
        assert np.unique(grid[:, 0]).size < instance.num_events

    def test_full_interval_corner_is_full(self):
        """The full-interval corner's lock must leave no room in t0."""
        config, locked = CORNERS["full-interval"]
        result = run_scheduler("ALG", make_random_instance(**config), 6, locked=locked)
        schedule = result.schedule.as_dict()
        assert [event for event, interval in schedule.items() if interval == 0] == [2]

    @pytest.mark.parametrize("variant", execution_variants())
    @pytest.mark.parametrize("layout", LAYOUTS, indirect=True)
    def test_event_values_corner_under_every_backend(self, layout, variant, execution_for):
        """The valued kernel path under every layout × backend, fan-out included."""
        config, locked = CORNERS["event-values"]
        instance = layout.instance(**config)
        execution = execution_for(variant, plan=layout.plan)
        for scheduler in ("ALG", "HOR-I"):
            reference = run_scheduler(scheduler, instance.with_storage("dense"), 6)
            result = run_scheduler(scheduler, instance, 6, execution=execution)
            assert result.schedule.as_dict() == reference.schedule.as_dict()
            assert result.utility == reference.utility
            assert result.net_utility == reference.net_utility
            assert result.counters == reference.counters


# --------------------------------------------------------------------------- #
# Cluster runs on the live localhost workers, plus the file fallback
# --------------------------------------------------------------------------- #
class TestClusterEquivalence:
    @pytest.mark.parametrize("layout", LAYOUTS, indirect=True)
    def test_cluster_bit_identical_per_storage(self, layout, local_cluster):
        instance = layout.instance(
            seed=320, num_users=30, num_events=15, num_intervals=4
        )
        reference = run_scheduler("ALG", instance.with_storage("dense"), 5)
        result = run_scheduler(
            "ALG",
            instance,
            5,
            execution=layout.execution(
                backend="cluster", chunk_size=4, workers_addr=local_cluster
            ),
        )
        assert result.schedule.as_dict() == reference.schedule.as_dict()
        assert result.utility == reference.utility
        assert result.storage == layout.storage

    def _threaded_worker(self):
        """A worker served in *this* process, so monkeypatches reach it."""
        server = WorkerServer()
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        return server, thread

    def _run_on(self, server, instance):
        engine = ScoringEngine(
            instance,
            execution=ExecutionConfig(
                backend="cluster", chunk_size=4, workers_addr=(server.address,)
            ),
        )
        try:
            return engine.score_matrix(count=False)
        finally:
            engine.close()

    def test_file_ship_maps_the_backing_file(self, tmp_path, monkeypatch):
        """A worker with filesystem visibility rebuilds from the path alone."""
        import repro.core.instance_io as instance_io

        instance = make_random_instance(
            seed=321, num_users=25, num_events=12, num_intervals=3
        ).with_storage("mmap", directory=tmp_path / "ship")
        reference = ScoringEngine(
            instance, execution=ExecutionConfig(backend="batch", chunk_size=4)
        ).score_matrix(count=False)

        calls = []
        real_load_npz = instance_io.load_npz

        def tracking_load_npz(path, *, mmap=False):
            calls.append((str(path), mmap))
            return real_load_npz(path, mmap=mmap)

        monkeypatch.setattr(instance_io, "load_npz", tracking_load_npz)
        server, _ = self._threaded_worker()
        try:
            scores = self._run_on(server, instance)
        finally:
            server.stop()
        assert np.array_equal(scores, reference)
        assert calls == [(instance.backing_file, True)]

    def test_no_visibility_worker_falls_back_to_byte_ship(self, tmp_path, monkeypatch):
        """A worker that cannot map the path gets the bytes instead — and the
        columns are bit-identical either way."""
        import repro.core.instance_io as instance_io

        instance = make_random_instance(
            seed=322, num_users=25, num_events=12, num_intervals=3
        ).with_storage("mmap", directory=tmp_path / "noship")
        reference = ScoringEngine(
            instance, execution=ExecutionConfig(backend="batch", chunk_size=4)
        ).score_matrix(count=False)

        attempts = []

        def unavailable_load_npz(path, *, mmap=False):
            attempts.append(str(path))
            raise OSError("no such filesystem on this worker")

        monkeypatch.setattr(instance_io, "load_npz", unavailable_load_npz)
        server, _ = self._threaded_worker()
        try:
            scores = self._run_on(server, instance)
            assert len(server.cache) == 1  # the byte ship became resident
        finally:
            server.stop()
        assert attempts == [instance.backing_file]  # the path was tried first
        assert np.array_equal(scores, reference)


# --------------------------------------------------------------------------- #
# Protocol v3 primitives
# --------------------------------------------------------------------------- #
class TestProtocolV3:
    def test_protocol_version(self):
        assert PROTOCOL_VERSION == 3

    def test_instance_fingerprint_is_chunking_invariant(self, monkeypatch):
        rng = np.random.default_rng(40)
        arrays = {
            "mu_rows": rng.random((7, 31)),
            "comp": rng.random((31, 3)),
        }
        reference = instance_fingerprint(arrays)
        # The digest must not depend on the chunk size (only peak memory does).
        for chunk_bytes in (1, 64, 10**9):
            monkeypatch.setattr(protocol, "FINGERPRINT_CHUNK_BYTES", chunk_bytes)
            assert instance_fingerprint(arrays) == reference
        # ... and matches a single-pass sha1 over name/shape/dtype/bytes.
        digest = hashlib.sha1()
        for name in sorted(arrays):
            array = np.ascontiguousarray(arrays[name])
            digest.update(name.encode("utf-8"))
            digest.update(str(array.shape).encode("utf-8"))
            digest.update(array.dtype.str.encode("utf-8"))
            digest.update(array.tobytes())
        assert reference == digest.hexdigest()

    def test_instance_fingerprint_is_content_sensitive(self):
        arrays = {"mu_rows": np.arange(12.0).reshape(3, 4)}
        tweaked = {"mu_rows": np.arange(12.0).reshape(3, 4)}
        tweaked["mu_rows"][2, 3] += 1e-9
        assert instance_fingerprint(arrays) != instance_fingerprint(tweaked)

    def test_file_fingerprint(self, tmp_path, monkeypatch):
        path = tmp_path / "payload.bin"
        path.write_bytes(b"x" * 1000)
        fingerprint = file_fingerprint(str(path))
        assert fingerprint == "file:" + hashlib.sha1(b"x" * 1000).hexdigest()
        monkeypatch.setattr(protocol, "FINGERPRINT_CHUNK_BYTES", 7)
        assert file_fingerprint(str(path)) == fingerprint
        path.write_bytes(b"x" * 999 + b"y")
        assert file_fingerprint(str(path)) != fingerprint

    def _record_arrays(self, instance):
        comp, sigma, values, _ = build_static_arrays(instance)
        rows = build_event_rows(instance.interest.store, values)
        return comp, sigma, values, rows

    def test_build_instance_record_arrays_kind(self, tmp_path):
        instance = make_random_instance(seed=330, num_users=15, num_events=8).with_storage(
            "dense"
        )
        comp, sigma, values, rows = self._record_arrays(instance)
        assert isinstance(rows, DenseEventRows)
        mu_rows, value_mu_rows = rows.arrays
        record = build_instance_record(
            {
                "kind": "arrays",
                "arrays": {
                    "mu_rows": mu_rows,
                    "value_mu_rows": value_mu_rows,
                    "comp": comp,
                    "sigma": sigma,
                },
            }
        )
        assert isinstance(record["rows"], DenseEventRows)
        got_mu, got_value = record["rows"].block(0, rows.num_rows)
        assert np.array_equal(got_mu, mu_rows)
        assert np.array_equal(got_value, value_mu_rows)

    def test_arrays_kind_keeps_unit_values_across_the_wire(self):
        """Unit values ship µ once, and the worker's record reads them back as unit."""
        instance = make_random_instance(seed=332, num_users=15, num_events=8)
        comp, sigma, values, rows = self._record_arrays(instance.with_storage("dense"))
        mu_rows, value_mu_rows = rows.arrays
        assert value_mu_rows is mu_rows
        payload = {
            "kind": "arrays",
            "arrays": {
                "mu_rows": mu_rows,
                "value_mu_rows": value_mu_rows,
                "comp": comp,
                "sigma": sigma,
            },
        }
        wire = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        assert len(wire) < mu_rows.nbytes + comp.nbytes + sigma.nbytes + 1024
        record = build_instance_record(pickle.loads(wire))
        assert record["rows"].unit_values
        assert np.array_equal(record["rows"].arrays[0], mu_rows)

    def test_build_instance_record_csr_kind_matches_dense(self, tmp_path):
        instance = make_random_instance(seed=331, num_users=15, num_events=8).with_storage(
            "sparse"
        )
        comp, sigma, values, rows = self._record_arrays(instance)
        assert isinstance(rows, StoreEventRows)
        indptr, indices, data = as_sparse(instance.interest.store).csr_arrays
        record = build_instance_record(
            {
                "kind": "csr",
                "arrays": {
                    "csr_shape": np.asarray(instance.interest.shape, dtype=np.int64),
                    "csr_indptr": indptr,
                    "csr_indices": indices,
                    "csr_data": data,
                    "values": values,
                    "comp": comp,
                    "sigma": sigma,
                },
            }
        )
        for start, stop in ((0, 8), (2, 5)):
            expect_mu, expect_value = rows.block(start, stop)
            got_mu, got_value = record["rows"].block(start, stop)
            assert np.array_equal(got_mu, expect_mu)
            assert np.array_equal(got_value, expect_value)

    def test_build_instance_record_file_kind_scores_bit_identically(self, tmp_path):
        instance = make_random_instance(
            seed=332, num_users=20, num_events=10, num_intervals=3
        )
        spilled = spill_instance(instance, tmp_path / "record")
        record = build_instance_record({"kind": "file", "path": spilled.backing_file})
        assert isinstance(record["rows"]._store, MmapStore)
        comp, sigma, values, rows = self._record_arrays(spilled)
        assert np.array_equal(record["comp"], comp)
        assert np.array_equal(record["sigma"], sigma)
        task = ColumnTask(
            interval_index=1,
            token=0,
            selector=None,
            scheduled=np.zeros(spilled.num_users),
            scheduled_value=np.zeros(spilled.num_users),
            utility=0.0,
            step=3,
        )
        column = score_column(record, task, record["rows"])
        reference = score_column(
            {"rows": rows, "comp": comp, "sigma": sigma}, task, rows
        )
        assert np.array_equal(column, reference)

    def test_build_instance_record_file_kind_unmappable_path(self, tmp_path):
        with pytest.raises(FileUnavailableError, match="cannot map"):
            build_instance_record(
                {"kind": "file", "path": str(tmp_path / "missing.npz")}
            )

    @pytest.mark.parametrize(
        "payload",
        ["not-a-dict", {"no": "kind"}, {"kind": "carrier-pigeon"}],
        ids=["non-dict", "kindless", "unknown-kind"],
    )
    def test_build_instance_record_rejects_malformed_payloads(self, payload):
        with pytest.raises(SolverError):
            build_instance_record(payload)
