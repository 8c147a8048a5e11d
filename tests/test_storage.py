"""Unit tests for the interest-store layer.

Everything in :mod:`repro.core.storage` promises one invariant: a store is
*only* a layout — every accessor returns exactly the values of the logical
dense matrix.  These tests pin that invariant down store by store
(dense / sparse / mmap), plus the pieces around it: the dense capacity
guard, the fixed store table (names, order, lookup errors), the
``EventRowSource`` blocks the scoring kernels consume, the vectorised
``InterestMatrix.from_entries`` (duplicate and bounds semantics), and the
NPZ round-trips of :mod:`repro.core.instance_io` including the
memory-mapped load path.
"""

from __future__ import annotations

import json
import zipfile

import numpy as np
import pytest

from repro.core.errors import (
    DatasetError,
    InstanceValidationError,
    SolverError,
    StorageCapacityError,
)
from repro.core.instance_io import MATRIX_PREFIXES, load_npz, save_npz, spill_instance
from repro.core.interest import InterestMatrix
from repro.core.storage import (
    DEFAULT_DENSE_CAPACITY,
    DENSE_CAPACITY_ENV,
    DenseEventRows,
    DenseStore,
    MmapStore,
    SparseStore,
    StoreEventRows,
    as_sparse,
    available_stores,
    convert_store,
    csr_members,
    dense_capacity_limit,
    ensure_dense_capacity,
    get_store,
    map_npz_member,
    store_catalog,
    unit_values,
)
from repro.core.scoring import build_event_rows
from tests.conftest import make_random_instance


def reference_matrix(seed: int = 7, shape=(13, 9), density: float = 0.4) -> np.ndarray:
    """A reproducible dense matrix with plenty of exact zeros."""
    rng = np.random.default_rng(seed)
    values = rng.random(shape)
    values[rng.random(shape) > density] = 0.0
    return values


def all_stores(values: np.ndarray, tmp_path):
    """The same logical matrix under every built-in storage."""
    return {
        "dense": DenseStore(np.array(values)),
        "sparse": SparseStore.from_dense(values),
        "mmap": MmapStore.spill(
            SparseStore.from_dense(values), str(tmp_path / "store.npz")
        ),
    }


# --------------------------------------------------------------------------- #
# Dense capacity guard
# --------------------------------------------------------------------------- #
class TestCapacityGuard:
    def test_default_limit(self, monkeypatch):
        monkeypatch.delenv(DENSE_CAPACITY_ENV, raising=False)
        assert dense_capacity_limit() == DEFAULT_DENSE_CAPACITY
        ensure_dense_capacity((20_000, 20_000))  # exactly the default limit

    def test_env_lowers_the_limit(self, monkeypatch):
        monkeypatch.setenv(DENSE_CAPACITY_ENV, "10")
        assert dense_capacity_limit() == 10
        ensure_dense_capacity((2, 5))
        with pytest.raises(StorageCapacityError) as excinfo:
            ensure_dense_capacity((3, 5))
        message = str(excinfo.value)
        assert "3 x 5" in message
        assert "'sparse' or 'mmap'" in message
        assert DENSE_CAPACITY_ENV in message

    @pytest.mark.parametrize("raw", ["banana", "1.5", "", "0", "-4"])
    def test_invalid_env_is_a_loud_error(self, monkeypatch, raw):
        monkeypatch.setenv(DENSE_CAPACITY_ENV, raw)
        with pytest.raises(InstanceValidationError):
            dense_capacity_limit()

    def test_dense_store_construction_is_guarded(self, monkeypatch):
        monkeypatch.setenv(DENSE_CAPACITY_ENV, "10")
        with pytest.raises(StorageCapacityError):
            DenseStore.zeros(4, 4)
        with pytest.raises(StorageCapacityError):
            DenseStore(np.zeros((4, 4)))

    def test_sparse_to_dense_is_guarded(self, monkeypatch):
        store = SparseStore.from_dense(reference_matrix(shape=(6, 4)))
        monkeypatch.setenv(DENSE_CAPACITY_ENV, "10")
        with pytest.raises(StorageCapacityError):
            store.to_dense()
        # Streaming accessors stay available above the dense limit.
        assert store.column(0).shape == (6,)


# --------------------------------------------------------------------------- #
# Accessor equality: every storage is only a layout
# --------------------------------------------------------------------------- #
class TestAccessorEquality:
    @pytest.fixture()
    def stores(self, tmp_path):
        values = reference_matrix()
        return values, all_stores(values, tmp_path)

    def test_shape_and_counts(self, stores):
        values, by_name = stores
        for store in by_name.values():
            assert store.shape == values.shape
            assert store.num_users == values.shape[0]
            assert store.num_items == values.shape[1]
            assert store.size == values.size
            assert store.nnz == int(np.count_nonzero(values))

    def test_full_matrix(self, stores):
        values, by_name = stores
        for store in by_name.values():
            assert np.array_equal(store.to_dense(), values)

    def test_columns_rows_and_values(self, stores):
        values, by_name = stores
        gather = [4, 0, 7, 4]
        for store in by_name.values():
            for item in range(values.shape[1]):
                assert np.array_equal(store.column(item), values[:, item])
            assert np.array_equal(store.columns(gather), values[:, gather])
            for user in range(values.shape[0]):
                assert np.array_equal(store.row(user), values[user])
            assert store.value(3, 2) == values[3, 2]

    def test_item_row_blocks(self, stores):
        values, by_name = stores
        transposed = values.T
        for store in by_name.values():
            assert np.array_equal(store.item_rows(2, 6), transposed[2:6])
            assert np.array_equal(store.item_rows(0, 0), transposed[0:0])
            picked = np.array([8, 1, 1, 5])
            assert np.array_equal(store.item_rows_at(picked), transposed[picked])

    def test_statistics(self, stores):
        values, by_name = stores
        for store in by_name.values():
            assert store.mean() == pytest.approx(values.mean())
            assert store.density() == pytest.approx(
                np.count_nonzero(values > 0.0) / values.size
            )
            assert store.density(threshold=0.5) == pytest.approx(
                np.count_nonzero(values > 0.5) / values.size
            )
            # A negative threshold counts the implicit zeros too.
            assert store.density(threshold=-1.0) == pytest.approx(1.0)

    def test_empty_matrix(self, tmp_path):
        values = np.zeros((5, 3))
        for store in all_stores(values, tmp_path).values():
            assert store.nnz == 0
            assert store.mean() == 0.0
            assert store.density() == 0.0
            assert np.array_equal(store.to_dense(), values)

    def test_file_backing_flags(self, stores, tmp_path):
        _, by_name = stores
        assert by_name["dense"].path is None
        assert by_name["sparse"].path is None
        assert by_name["mmap"].path == str(tmp_path / "store.npz")
        assert by_name["mmap"].prefix == "interest"


# --------------------------------------------------------------------------- #
# Sparse construction and validation
# --------------------------------------------------------------------------- #
class TestSparseStore:
    def test_from_coo_matches_from_dense(self):
        values = reference_matrix(seed=11)
        users, items = np.nonzero(values)
        built = SparseStore.from_coo(
            *values.shape, users, items, values[users, items]
        )
        assert np.array_equal(built.to_dense(), values)
        indptr, indices, data = built.csr_arrays
        ref_indptr, ref_indices, ref_data = SparseStore.from_dense(values).csr_arrays
        assert np.array_equal(indptr, ref_indptr)
        assert np.array_equal(indices, ref_indices)
        assert np.array_equal(data, ref_data)

    def test_from_coo_last_write_wins(self):
        built = SparseStore.from_coo(
            3,
            2,
            np.array([0, 1, 0, 0]),
            np.array([1, 0, 1, 0]),
            np.array([0.2, 0.5, 0.9, 0.4]),
            deduplicated=False,
        )
        expected = np.array([[0.4, 0.9], [0.5, 0.0], [0.0, 0.0]])
        assert np.array_equal(built.to_dense(), expected)
        assert built.nnz == 3

    @pytest.mark.parametrize(
        "indptr, indices, data, fragment",
        [
            ([0, 1], [0], [0.5], "length num_items + 1"),
            ([1, 1, 1], [], [], "must start at 0"),
            ([0, 1, 1], [0, 1], [0.5], "equal-length"),
            ([0, 1, 3], [0, 1], [0.5, 0.5], "ends at 3 but 2"),
            ([0, 2, 1], [0], [0.5], "non-decreasing"),
            ([0, 1, 2], [0, 9], [0.5, 0.5], "user indices must lie"),
            ([0, 1, 2], [0, 1], [0.5, 1.5], "values must lie in [0, 1]"),
        ],
    )
    def test_invalid_csr_rejected(self, indptr, indices, data, fragment):
        with pytest.raises(InstanceValidationError, match=None) as excinfo:
            SparseStore(
                (3, 2),
                np.asarray(indptr, dtype=np.int64),
                np.asarray(indices, dtype=np.int64),
                np.asarray(data, dtype=np.float64),
            )
        assert fragment in str(excinfo.value)

    def test_as_sparse_passthrough_and_conversion(self):
        values = reference_matrix(seed=3)
        sparse = SparseStore.from_dense(values)
        assert as_sparse(sparse) is sparse
        converted = as_sparse(DenseStore(values))
        assert isinstance(converted, SparseStore)
        assert np.array_equal(converted.to_dense(), values)

    def test_csr_members_naming(self):
        store = SparseStore.from_dense(reference_matrix(seed=4))
        members = csr_members(store, prefix="competing_interest")
        assert sorted(members) == [
            "competing_interest_data",
            "competing_interest_indices",
            "competing_interest_indptr",
            "competing_interest_shape",
        ]
        assert tuple(members["competing_interest_shape"]) == store.shape


# --------------------------------------------------------------------------- #
# Memory-mapped stores
# --------------------------------------------------------------------------- #
class TestMmapStore:
    def test_spill_open_roundtrip(self, tmp_path):
        values = reference_matrix(seed=5)
        path = str(tmp_path / "interest.npz")
        spilled = MmapStore.spill(SparseStore.from_dense(values), path)
        assert np.array_equal(spilled.to_dense(), values)
        reopened = MmapStore.open(path)
        assert np.array_equal(reopened.to_dense(), values)
        assert isinstance(reopened.csr_arrays[2], np.memmap)

    def test_spill_appends_npz_suffix(self, tmp_path):
        values = reference_matrix(seed=6)
        store = MmapStore.spill(SparseStore.from_dense(values), str(tmp_path / "bare"))
        assert store.path.endswith("bare.npz")
        assert np.array_equal(store.to_dense(), values)

    def test_custom_prefix(self, tmp_path):
        values = reference_matrix(seed=8)
        path = str(tmp_path / "pair.npz")
        np.savez(path, **csr_members(SparseStore.from_dense(values), prefix="left"))
        store = MmapStore.open(path, prefix="left")
        assert store.prefix == "left"
        assert np.array_equal(store.to_dense(), values)

    def test_empty_matrix_spills(self, tmp_path):
        store = MmapStore.spill(
            SparseStore.from_dense(np.zeros((4, 3))), str(tmp_path / "empty.npz")
        )
        assert store.nnz == 0
        assert np.array_equal(store.to_dense(), np.zeros((4, 3)))

    def test_from_dense_requires_a_path(self):
        with pytest.raises(InstanceValidationError, match="file-backed"):
            MmapStore.from_dense(reference_matrix())

    def test_map_npz_member_missing_member(self, tmp_path):
        path = str(tmp_path / "one.npz")
        np.savez(path, present=np.arange(4.0))
        with pytest.raises(InstanceValidationError, match="no member 'absent.npy'"):
            map_npz_member(path, "absent")

    def test_map_npz_member_rejects_compressed(self, tmp_path):
        path = str(tmp_path / "zipped.npz")
        np.savez_compressed(path, packed=np.arange(64.0))
        with pytest.raises(InstanceValidationError, match="compressed"):
            map_npz_member(path, "packed")

    def test_map_npz_member_values(self, tmp_path):
        path = str(tmp_path / "plain.npz")
        payload = np.arange(12.0).reshape(3, 4)
        np.savez(path, payload=payload, empty=np.zeros((0,)))
        mapped = map_npz_member(path, "payload")
        assert isinstance(mapped, np.memmap)
        assert np.array_equal(mapped, payload)
        empty = map_npz_member(path, "empty")
        assert empty.shape == (0,)


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
class TestStoreRegistry:
    def test_builtins_in_registration_order(self):
        assert available_stores() == ["dense", "sparse", "mmap"]
        assert get_store("dense") is DenseStore
        assert get_store("sparse") is SparseStore
        assert get_store("mmap") is MmapStore

    def test_catalog_has_descriptions(self):
        catalog = store_catalog()
        assert list(catalog) == available_stores()
        assert all(description for description in catalog.values())

    def test_unknown_store_is_a_friendly_error(self):
        with pytest.raises(
            SolverError, match="unknown storage 'bogus'; available: dense, sparse, mmap"
        ):
            get_store("bogus")


# --------------------------------------------------------------------------- #
# Conversions
# --------------------------------------------------------------------------- #
class TestConvertStore:
    def test_identity_conversions_are_no_ops(self, tmp_path):
        values = reference_matrix(seed=12)
        by_name = all_stores(values, tmp_path)
        assert convert_store(by_name["dense"], "dense") is by_name["dense"]
        assert convert_store(by_name["sparse"], "sparse") is by_name["sparse"]
        assert convert_store(by_name["mmap"], "mmap") is by_name["mmap"]

    def test_every_pairwise_conversion_preserves_values(self, tmp_path):
        values = reference_matrix(seed=13)
        by_name = all_stores(values, tmp_path)
        for source_name, source in by_name.items():
            for target_name in ("dense", "sparse", "mmap"):
                path = str(tmp_path / f"{source_name}-to-{target_name}.npz")
                converted = convert_store(source, target_name, path=path)
                assert isinstance(converted, get_store(target_name))
                assert np.array_equal(converted.to_dense(), values)

    def test_mmap_to_sparse_detaches_from_the_file(self, tmp_path):
        values = reference_matrix(seed=14)
        mmapped = all_stores(values, tmp_path)["mmap"]
        detached = convert_store(mmapped, "sparse")
        assert type(detached) is SparseStore
        assert not any(isinstance(arr, np.memmap) for arr in detached.csr_arrays)
        assert np.array_equal(detached.to_dense(), values)

    def test_mmap_conversion_requires_a_path(self):
        with pytest.raises(InstanceValidationError, match="needs a path"):
            convert_store(DenseStore(reference_matrix()), "mmap")


# --------------------------------------------------------------------------- #
# Event-row sources (what the kernels actually iterate)
# --------------------------------------------------------------------------- #
class TestEventRowSources:
    def reference_rows(self, values, event_values):
        mu_rows = np.ascontiguousarray(values.T)
        return mu_rows, event_values[:, np.newaxis] * mu_rows

    def test_store_blocks_match_dense_blocks_bit_for_bit(self, tmp_path):
        values = reference_matrix(seed=15, shape=(17, 11))
        event_values = np.linspace(0.25, 2.0, values.shape[1])
        mu_rows, value_mu_rows = self.reference_rows(values, event_values)
        dense_rows = DenseEventRows(mu_rows, value_mu_rows)
        assert dense_rows.is_dense and dense_rows.num_rows == values.shape[1]
        for store in all_stores(values, tmp_path).values():
            rows = StoreEventRows(store, event_values)
            assert not rows.is_dense
            assert rows.num_rows == values.shape[1]
            for start, stop in ((0, 11), (3, 7), (10, 11), (4, 4)):
                expect_mu, expect_value = dense_rows.block(start, stop)
                got_mu, got_value = rows.block(start, stop)
                assert np.array_equal(got_mu, expect_mu)
                assert np.array_equal(got_value, expect_value)

    def test_select_restricts_and_reorders(self, tmp_path):
        values = reference_matrix(seed=16, shape=(10, 8))
        event_values = np.linspace(0.5, 1.5, values.shape[1])
        mu_rows, value_mu_rows = self.reference_rows(values, event_values)
        picked = np.array([6, 2, 2, 0])
        dense_selected = DenseEventRows(mu_rows, value_mu_rows).select(picked)
        for store in all_stores(values, tmp_path).values():
            selected = StoreEventRows(store, event_values).select(picked)
            assert selected.num_rows == picked.shape[0]
            expect_mu, expect_value = dense_selected.block(0, picked.shape[0])
            got_mu, got_value = selected.block(0, picked.shape[0])
            assert np.array_equal(got_mu, expect_mu)
            assert np.array_equal(got_value, expect_value)
            # select() composes: indices apply relative to the selection.
            nested = selected.select(np.array([3, 1]))
            nested_mu, _ = nested.block(0, 2)
            assert np.array_equal(nested_mu, mu_rows[[0, 2]])

    @pytest.mark.parametrize("valued", [False, True], ids=["unit-values", "event-values"])
    def test_negative_zero_is_folded_where_mu_enters(self, valued, tmp_path):
        """Every bulk row source serves µ with ``-0.0`` read as ``0.0``.

        The kernel's empty-interval path drops the reference's ``0.0 + µ``,
        which is exact only on such µ.  The sparse store is built from
        coordinates, so its CSR holds explicit ``-0.0`` entries.
        """
        values = reference_matrix(seed=17, shape=(9, 6))
        values[:, 2] = -0.0
        values[::2, 4] = -0.0
        event_values = np.linspace(0.5, 2.0, 6) if valued else np.ones(6)
        users, items = np.nonzero(np.ones_like(values))
        sparse = SparseStore.from_coo(9, 6, users, items, values[users, items])
        assert np.signbit(sparse.csr_arrays[2]).any()
        sources = [
            build_event_rows(DenseStore(values), event_values),
            build_event_rows(sparse, event_values),
            build_event_rows(
                MmapStore.spill(sparse, str(tmp_path / "negzero.npz")), event_values
            ),
        ]
        for rows in sources:
            assert rows.unit_values is not valued
            for source in (rows, rows.select(np.array([4, 2, 0]))):
                mu_rows, value_mu_rows = source.block(0, source.num_rows)
                assert not np.signbit(mu_rows).any()
                assert (value_mu_rows is mu_rows) is not valued
            mu_rows, _ = rows.block(0, 6)
            assert np.array_equal(mu_rows, values.T)

    def test_unit_values_are_decided_on_the_full_vector(self, tmp_path):
        """A selection of unit-valued rows of a valued instance keeps its product."""
        values = reference_matrix(seed=18, shape=(7, 5))
        event_values = np.array([1.0, 1.0, 2.0, 1.0, 1.0])
        assert unit_values(np.ones(5)) and unit_values(np.ones(0))
        assert not unit_values(event_values)
        for rows in (
            build_event_rows(DenseStore(values), event_values),
            StoreEventRows(SparseStore.from_dense(values), event_values),
        ):
            selected = rows.select(np.array([0, 1, 3]))
            assert not selected.unit_values
            mu_rows, value_mu_rows = selected.block(0, 3)
            assert value_mu_rows is not mu_rows
            assert np.array_equal(value_mu_rows, mu_rows)


# --------------------------------------------------------------------------- #
# InterestMatrix construction semantics (satellite: vectorised from_entries)
# --------------------------------------------------------------------------- #
class TestFromEntries:
    @pytest.mark.parametrize("storage", ["dense", "sparse"])
    def test_duplicate_entries_last_write_wins(self, storage):
        matrix = InterestMatrix.from_entries(
            3,
            2,
            [(0, 1, 0.2), (1, 0, 0.5), (0, 1, 0.9), (2, 1, 0.1), (0, 1, 0.3)],
            storage=storage,
        )
        assert matrix.storage == storage
        expected = np.array([[0.0, 0.3], [0.5, 0.0], [0.0, 0.1]])
        assert np.array_equal(matrix.values, expected)

    @pytest.mark.parametrize("storage", ["dense", "sparse"])
    def test_matches_loop_reference(self, storage):
        rng = np.random.default_rng(17)
        triples = [
            (int(rng.integers(0, 30)), int(rng.integers(0, 12)), float(rng.random()))
            for _ in range(400)
        ]
        expected = np.zeros((30, 12))
        for user, item, value in triples:
            expected[user, item] = value
        matrix = InterestMatrix.from_entries(30, 12, triples, storage=storage)
        assert np.array_equal(matrix.values, expected)

    def test_mmap_storage_spills_via_path(self, tmp_path):
        path = str(tmp_path / "entries.npz")
        matrix = InterestMatrix.from_entries(
            4, 3, [(0, 0, 0.5), (3, 2, 0.25)], storage="mmap", path=path
        )
        assert matrix.storage == "mmap"
        assert matrix.store.path == path
        assert matrix.value(3, 2) == 0.25

    def test_empty_entries_build_zeros(self):
        for storage in ("dense", "sparse"):
            matrix = InterestMatrix.from_entries(5, 4, [], storage=storage)
            assert matrix.storage == storage
            assert matrix.shape == (5, 4)
            assert matrix.store.nnz == 0

    @pytest.mark.parametrize(
        "triple, message",
        [
            ((5, 0, 0.5), "user index 5 outside [0, 5)"),
            ((-1, 0, 0.5), "user index -1 outside [0, 5)"),
            ((0, 4, 0.5), "item index 4 outside [0, 4)"),
        ],
    )
    def test_out_of_range_indices_name_the_offender(self, triple, message):
        with pytest.raises(InstanceValidationError) as excinfo:
            InterestMatrix.from_entries(5, 4, [(1, 1, 0.5), triple])
        assert message in str(excinfo.value)

    def test_to_dict_roundtrip_preserves_sparse_storage(self):
        values = reference_matrix(seed=18, shape=(6, 5))
        matrix = InterestMatrix.from_store(SparseStore.from_dense(values))
        payload = matrix.to_dict()
        assert payload["storage"] == "sparse"
        assert "values" not in payload
        rebuilt = InterestMatrix.from_serialized(json.loads(json.dumps(payload)))
        assert rebuilt.storage == "sparse"
        assert np.array_equal(rebuilt.values, values)

    def test_with_storage_roundtrip(self, tmp_path):
        values = reference_matrix(seed=19, shape=(7, 6))
        dense = InterestMatrix(values)
        sparse = dense.with_storage("sparse")
        mmapped = sparse.with_storage("mmap", path=str(tmp_path / "ws.npz"))
        back = mmapped.with_storage("dense")
        for matrix, storage in ((sparse, "sparse"), (mmapped, "mmap"), (back, "dense")):
            assert matrix.storage == storage
            assert np.array_equal(matrix.values, values)


# --------------------------------------------------------------------------- #
# NPZ persistence (satellite: save_npz no-listify fix + mmap loads)
# --------------------------------------------------------------------------- #
class TestInstanceNpz:
    @pytest.mark.parametrize("compressed", [True, False])
    def test_dense_roundtrip(self, tmp_path, compressed):
        instance = make_random_instance(seed=20).with_storage("dense")
        path = tmp_path / "dense.npz"
        save_npz(instance, path, compressed=compressed)
        loaded = load_npz(path)
        assert loaded.storage == "dense"
        assert np.array_equal(loaded.interest.values, instance.interest.values)
        assert np.array_equal(loaded.activity, instance.activity)
        assert loaded.name == instance.name

    def test_sparse_roundtrip_writes_csr_members(self, tmp_path):
        instance = make_random_instance(seed=21).with_storage("sparse")
        path = tmp_path / "sparse.npz"
        save_npz(instance, path, compressed=False)
        with zipfile.ZipFile(path) as archive:
            names = set(archive.namelist())
        for prefix in MATRIX_PREFIXES:
            assert f"{prefix}_indptr.npy" in names
            assert f"{prefix}.npy" not in names
        loaded = load_npz(path)
        assert loaded.storage == "sparse"
        assert np.array_equal(loaded.interest.values, instance.interest.values)

    def test_entities_member_has_no_matrix_payload(self, tmp_path):
        """The no-listify fix: matrices never round-trip through JSON lists."""
        instance = make_random_instance(seed=22)
        assert "interest" not in instance.to_dict(include_matrices=False)
        path = tmp_path / "entities.npz"
        save_npz(instance, path)
        with np.load(path, allow_pickle=False) as bundle:
            entities = json.loads(bytes(bundle["entities"].tobytes()).decode("utf-8"))
        assert "interest" not in entities
        assert "competing_interest" not in entities
        assert "activity" not in entities
        assert [user["id"] for user in entities["users"]]

    def test_mmap_load_streams_and_records_backing_file(self, tmp_path):
        instance = make_random_instance(seed=23).with_storage("sparse")
        path = tmp_path / "mapped.npz"
        save_npz(instance, path, compressed=False)
        loaded = load_npz(path, mmap=True)
        assert loaded.storage == "mmap"
        assert loaded.backing_file == str(path)
        assert isinstance(loaded.interest.store, MmapStore)
        assert np.array_equal(loaded.interest.values, instance.interest.values)
        assert np.array_equal(
            loaded.competing_interest.values, instance.competing_interest.values
        )

    def test_mmap_load_rejects_compressed_files(self, tmp_path):
        instance = make_random_instance(seed=24).with_storage("sparse")
        path = tmp_path / "packed.npz"
        save_npz(instance, path, compressed=True)
        with pytest.raises(DatasetError, match="compressed members"):
            load_npz(path, mmap=True)

    def test_mmap_load_rejects_dense_members(self, tmp_path):
        instance = make_random_instance(seed=25).with_storage("dense")
        path = tmp_path / "legacy.npz"
        save_npz(instance, path, compressed=False)
        with pytest.raises(DatasetError, match="stored dense"):
            load_npz(path, mmap=True)

    def test_missing_file_is_a_dataset_error(self, tmp_path):
        with pytest.raises(DatasetError, match="not found"):
            load_npz(tmp_path / "ghost.npz")

    def test_spill_instance(self, tmp_path):
        instance = make_random_instance(seed=26)
        spilled = spill_instance(instance, tmp_path / "spill")
        assert spilled.storage == "mmap"
        assert spilled.backing_file == str(tmp_path / "spill" / f"{instance.name}.npz")
        assert np.array_equal(spilled.interest.values, instance.interest.values)

    def test_instance_with_storage_mmap_requires_directory(self, tmp_path):
        instance = make_random_instance(seed=27)
        with pytest.raises(InstanceValidationError, match="directory"):
            instance.with_storage("mmap")
        converted = instance.with_storage("mmap", directory=tmp_path / "ws")
        assert converted.storage == "mmap"
        assert converted.backing_file is not None
        # Leaving the mmap storage drops the backing file association.
        back = converted.with_storage("sparse")
        assert back.storage == "sparse"
        assert back.backing_file is None
