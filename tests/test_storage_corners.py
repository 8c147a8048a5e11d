"""Corner cases of the pluggable interest-matrix storages.

The equivalence suites sweep realistic instances; these tests pin the edges
where sparse/mmap bookkeeping can silently diverge from dense: matrices with
no entries at all, events whose whole column is zero, duplicate COO triples,
and the spill → close → reopen cycle of the file-backed store.
"""

import numpy as np
import pytest

from repro.core.instance import SESInstance
from repro.core.patterns import mine_structure
from repro.core.scoring import ScoringEngine, build_event_rows
from repro.core.storage import MmapStore, SparseStore
from tests.conftest import make_random_instance


class TestEmptyAndAllZero:
    def test_zero_user_matrix(self):
        store = SparseStore.from_dense(np.zeros((0, 4)))
        assert store.shape == (0, 4)
        assert store.nnz == 0
        assert store.to_dense().shape == (0, 4)
        assert store.item_rows(0, 4).shape == (4, 0)
        assert store.mean() == 0.0
        assert store.density() == 0.0

    def test_zero_event_matrix(self):
        store = SparseStore.from_dense(np.zeros((5, 0)))
        assert store.shape == (5, 0)
        assert store.nnz == 0
        assert store.to_dense().shape == (5, 0)

    def test_all_zero_matrix(self):
        store = SparseStore.from_dense(np.zeros((6, 4)))
        assert store.nnz == 0
        assert np.array_equal(store.column(2), np.zeros(6))
        assert store.value(3, 1) == 0.0
        np.testing.assert_array_equal(store.to_dense(), np.zeros((6, 4)))

    def test_all_zero_instance_schedules(self):
        # Zero interest everywhere: every score is 0 and the engine must stay
        # finite (no 0/0 leaks).
        instance = make_random_instance(seed=5, interest_scale=0.0)
        engine = ScoringEngine(instance)
        assert np.all(np.isfinite(engine.interval_scores(0)))

    def test_all_zero_instance_is_one_pattern_class(self):
        # With zero interest, constant activity and no competing events every
        # user row is the same (µ, σ, comp) pattern: one equivalence class.
        instance = SESInstance.from_arrays(
            interest=np.zeros((20, 5)),
            activity=np.full((20, 3), 0.5),
            name="all-zero",
        )
        engine = ScoringEngine(instance)
        structure = mine_structure(
            build_event_rows(instance.interest.store, engine._values),
            engine._sigma,
            engine._comp,
            engine.chunk_size,
        )
        assert structure.num_classes == 1
        assert structure.counts.tolist() == [20]


class TestAllZeroEventRows:
    def make_instance(self, storage):
        rng = np.random.default_rng(11)
        interest = rng.random((30, 6))
        interest[:, 2] = 0.0  # one dead event mid-table
        interest[:, 5] = 0.0  # and one at the boundary
        instance = SESInstance.from_arrays(
            interest=interest,
            activity=rng.random((30, 3)),
            name="dead-events",
        )
        return instance.with_storage(storage) if storage != "dense" else instance

    def test_sparse_matches_dense_with_dead_events(self, tmp_path):
        dense = self.make_instance("dense")
        sparse = self.make_instance("sparse")
        mmapped = dense.with_storage("mmap", directory=str(tmp_path))
        reference = ScoringEngine(dense).score_matrix()
        np.testing.assert_array_equal(ScoringEngine(sparse).score_matrix(), reference)
        np.testing.assert_array_equal(ScoringEngine(mmapped).score_matrix(), reference)

    def test_dead_event_rows_are_zero(self):
        store = self.make_instance("sparse").interest.store
        rows = store.item_rows(0, 6)
        assert np.array_equal(rows[2], np.zeros(30))
        assert np.array_equal(rows[5], np.zeros(30))
        assert np.array_equal(store.item_rows_at(np.array([5, 2]))[0], np.zeros(30))


class TestFromCooDuplicates:
    def test_last_write_wins(self):
        # The same (user, item) cell written three times: deduplicated=False
        # must keep the *last* triple, like sequential dict writes.
        user = np.array([0, 1, 0, 0, 2])
        item = np.array([1, 0, 1, 1, 2])
        data = np.array([0.2, 0.5, 0.7, 0.9, 0.4])
        store = SparseStore.from_coo(4, 3, user, item, data, deduplicated=False)
        assert store.value(0, 1) == pytest.approx(0.9)
        assert store.value(1, 0) == pytest.approx(0.5)
        assert store.value(2, 2) == pytest.approx(0.4)
        assert store.nnz == 3

    def test_matches_sequential_dense_writes(self):
        rng = np.random.default_rng(23)
        num_users, num_items, num_writes = 12, 7, 120
        user = rng.integers(0, num_users, num_writes)
        item = rng.integers(0, num_items, num_writes)
        data = rng.uniform(0.1, 1.0, num_writes)
        expected = np.zeros((num_users, num_items))
        for u, i, value in zip(user, item, data):
            expected[u, i] = value
        store = SparseStore.from_coo(
            num_users, num_items, user, item, data, deduplicated=False
        )
        np.testing.assert_allclose(store.to_dense(), expected)


class TestMmapReopen:
    def test_reopen_after_spill_round_trip(self, tmp_path):
        rng = np.random.default_rng(31)
        dense = rng.random((25, 8))
        dense[dense < 0.5] = 0.0  # make it genuinely sparse
        spilled = MmapStore.spill(
            SparseStore.from_dense(dense), str(tmp_path / "interest")
        )
        assert spilled.path == str(tmp_path / "interest.npz")  # .npz appended
        reopened = MmapStore.open(spilled.path)
        assert reopened.shape == spilled.shape
        assert reopened.nnz == spilled.nnz
        np.testing.assert_array_equal(reopened.to_dense(), dense)
        for indptr_a, indptr_b in zip(spilled.csr_arrays, reopened.csr_arrays):
            np.testing.assert_array_equal(np.asarray(indptr_a), np.asarray(indptr_b))

    def test_reopened_instance_scores_identically(self, tmp_path):
        from repro.core.instance_io import load_npz

        instance = make_random_instance(seed=7)
        reference = ScoringEngine(instance).score_matrix()
        mmapped = instance.with_storage("mmap", directory=str(tmp_path))
        backing = mmapped.backing_file
        assert backing is not None
        # Rebuild purely from the backing file, as a separate process (or a
        # later session) would.
        reopened = load_npz(backing, mmap=True)
        assert reopened.storage == "mmap"
        np.testing.assert_array_equal(ScoringEngine(reopened).score_matrix(), reference)
