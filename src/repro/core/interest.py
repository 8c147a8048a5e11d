"""Interest (affinity) matrices µ used by the attendance model.

The paper models interest as a function ``µ : U × (E ∪ C) → [0, 1]``.  The
library stores it as two :class:`InterestMatrix` objects — one for candidate
events and one for competing events — each wrapping a pluggable
:class:`~repro.core.storage.InterestStore`: the in-memory 2-D array of the
``"dense"`` storage (the default), the event-major CSR of the ``"sparse"``
storage, or the file-backed ``"mmap"`` storage that streams from an
uncompressed NPZ.  The wrapper adds validation, convenient per-row /
per-column access and sparse construction helpers used by the dataset
substrates; the representation itself never changes a value, so scoring
results are bit-identical across storages.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Tuple

import numpy as np

from repro.core.errors import InstanceValidationError
from repro.core.storage import (
    DEFAULT_STORAGE,
    DenseStore,
    InterestStore,
    SparseStore,
    convert_store,
    last_write_wins,
    require_unit_interval,
)


def _parse_triples(
    entries: Iterable[Tuple[int, int, float]], shape: Tuple[int, int]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """User, item and value arrays of ``(user_index, item_index, value)`` triples.

    Indices outside ``shape`` raise :class:`InstanceValidationError` naming
    the first offending triple.
    """
    triples = list(entries)
    count = len(triples)
    users = np.fromiter((t[0] for t in triples), dtype=np.int64, count=count)
    items = np.fromiter((t[1] for t in triples), dtype=np.int64, count=count)
    values = np.fromiter((t[2] for t in triples), dtype=np.float64, count=count)
    num_users, num_items = shape
    bad_users = (users < 0) | (users >= num_users)
    bad_items = (items < 0) | (items >= num_items)
    if bad_users.any() or bad_items.any():
        first = int(np.argmax(bad_users | bad_items))
        if bad_users[first]:
            raise InstanceValidationError(f"user index {users[first]} outside [0, {num_users})")
        raise InstanceValidationError(f"item index {items[first]} outside [0, {num_items})")
    return users, items, values


class InterestMatrix:
    """A validated ``|U| × |H|`` matrix of interest values in ``[0, 1]``.

    Parameters
    ----------
    values:
        Array-like of shape ``(num_users, num_items)`` with entries in
        ``[0, 1]``.  The array is copied and stored as ``float64`` under the
        default ``"dense"`` storage.
    copy:
        When ``False`` and the input is already a float64 C-contiguous array,
        it is used without copying (dataset generators use this to avoid
        duplicating large matrices).

    Use :meth:`from_store` (or :meth:`with_storage`) to wrap a sparse or
    memory-mapped representation instead of a dense array.
    """

    __slots__ = ("_store",)

    def __init__(self, values: np.ndarray, *, copy: bool = True) -> None:
        array = np.array(values, dtype=np.float64, copy=copy)
        if array.ndim != 2:
            raise InstanceValidationError(
                f"interest matrix must be 2-dimensional, got shape {array.shape}"
            )
        require_unit_interval(array, "interest values")
        self._store = DenseStore(array)

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_store(cls, store: InterestStore) -> "InterestMatrix":
        """Wrap an existing :class:`InterestStore` without copying it."""
        matrix = cls.__new__(cls)
        matrix._store = store
        return matrix

    @classmethod
    def zeros(
        cls,
        num_users: int,
        num_items: int,
        *,
        storage: str = DEFAULT_STORAGE,
        path: Optional[str] = None,
    ) -> "InterestMatrix":
        """Create an all-zero interest matrix under the named storage."""
        if storage == DenseStore.name:
            return cls.from_store(DenseStore.zeros(num_users, num_items))
        empty = SparseStore(
            (num_users, num_items),
            np.zeros(num_items + 1, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.float64),
            validate=False,
        )
        return cls.from_store(convert_store(empty, storage, path=path))

    @classmethod
    def from_entries(
        cls,
        num_users: int,
        num_items: int,
        entries: Iterable[Tuple[int, int, float]],
        *,
        storage: str = DEFAULT_STORAGE,
        path: Optional[str] = None,
    ) -> "InterestMatrix":
        """Build a matrix from sparse ``(user_index, item_index, value)`` triples.

        Later entries for the same cell overwrite earlier ones.  The fill is
        vectorised: indices are validated in bulk (reporting the first
        offending triple) and duplicates are resolved with one
        :func:`~repro.core.storage.last_write_wins` pass, so a million
        triples cost a few NumPy calls, not a Python loop.
        """
        users, items, values = _parse_triples(entries, (num_users, num_items))
        if not values.size:
            return cls.zeros(num_users, num_items, storage=storage, path=path)
        users, items, values = last_write_wins(users, items, values, num_users=num_users)
        if storage == DenseStore.name:
            dense = DenseStore.zeros(num_users, num_items).values
            dense[users, items] = values
            return cls(dense, copy=False)
        sparse = SparseStore.from_coo(num_users, num_items, users, items, values)
        return cls.from_store(convert_store(sparse, storage, path=path))

    @classmethod
    def from_dict(
        cls,
        num_users: int,
        num_items: int,
        mapping: Mapping[Tuple[int, int], float],
    ) -> "InterestMatrix":
        """Build a matrix from a ``{(user_index, item_index): value}`` mapping."""
        return cls.from_entries(
            num_users, num_items, ((u, i, v) for (u, i), v in mapping.items())
        )

    # ------------------------------------------------------------------ #
    # Functional updates (used by the online service's mutations)
    # ------------------------------------------------------------------ #
    def with_entries(
        self, entries: Iterable[Tuple[int, int, float]]
    ) -> "InterestMatrix":
        """A new matrix with ``(user_index, item_index, value)`` cells overwritten.

        The bulk counterpart of :meth:`from_entries` for *updates*: later
        triples win for the same cell and a value of ``0.0`` clears a stored
        entry.  The update is applied at the store level, so sparse and mmap
        matrices never round-trip through a dense array (which would raise a
        :class:`~repro.core.errors.StorageCapacityError` at scale) — a mutated
        mmap matrix comes back as an in-memory sparse one.
        """
        users, items, values = _parse_triples(entries, self.shape)
        if not values.size:
            return self
        require_unit_interval(values, "interest values")
        return type(self).from_store(self._store.with_updates(users, items, values))

    def with_appended_items(self, columns: np.ndarray) -> "InterestMatrix":
        """A new matrix with the ``(|U|, m)`` block's columns appended as items (add-event mutations)."""
        columns = np.asarray(columns, dtype=np.float64)
        if columns.ndim != 2 or columns.shape[0] != self.num_users:
            raise InstanceValidationError(
                f"appended block has shape {columns.shape}, expected "
                f"({self.num_users}, m) (one row per user)"
            )
        require_unit_interval(columns, "interest values")
        return type(self).from_store(self._store.with_appended_items(columns))

    def without_item(self, item_index: int) -> "InterestMatrix":
        """A new matrix with one item column removed (remove-event mutation)."""
        if not 0 <= item_index < self.num_items:
            raise InstanceValidationError(
                f"item index {item_index} outside [0, {self.num_items})"
            )
        return type(self).from_store(self._store.without_item(item_index))

    # ------------------------------------------------------------------ #
    # Storage
    # ------------------------------------------------------------------ #
    @property
    def store(self) -> InterestStore:
        """The underlying :class:`InterestStore`."""
        return self._store

    @property
    def storage(self) -> str:
        """Registry name of the underlying storage (``"dense"``, ``"sparse"``, …)."""
        return self._store.name

    def with_storage(self, storage: str, *, path: Optional[str] = None) -> "InterestMatrix":
        """This matrix re-represented under the named storage (values unchanged).

        Converting to the ``"mmap"`` storage needs a ``path`` to spill the
        CSR arrays to; converting to the ``"dense"`` storage is
        capacity-guarded.
        """
        return type(self).from_store(convert_store(self._store, storage, path=path))

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def values(self) -> np.ndarray:
        """The matrix as a ``(num_users, num_items)`` float64 array.

        For the ``"dense"`` storage this is the underlying array itself:
        read/write until an instance holding this matrix has its interest
        structure mined (see :class:`~repro.core.instance.SESInstance`),
        read-only from then on, so in-place edits belong before the first
        solve.  Sparse and mmap stores
        materialise a dense copy, which is capacity-guarded — use
        :attr:`store` for streaming access to large instances.
        """
        return self._store.to_dense()

    @property
    def num_users(self) -> int:
        """Number of rows (users)."""
        return self._store.num_users

    @property
    def num_items(self) -> int:
        """Number of columns (events)."""
        return self._store.num_items

    @property
    def shape(self) -> Tuple[int, int]:
        """``(num_users, num_items)``."""
        return self._store.shape

    def column(self, item_index: int) -> np.ndarray:
        """Interest of every user for one item (a view for the dense storage)."""
        return self._store.column(item_index)

    def row(self, user_index: int) -> np.ndarray:
        """Interest of one user over every item (a view for the dense storage)."""
        return self._store.row(user_index)

    def value(self, user_index: int, item_index: int) -> float:
        """Interest µ of a single user for a single item."""
        return self._store.value(user_index, item_index)

    def mean(self) -> float:
        """Mean interest value (0.0 for an empty matrix)."""
        return self._store.mean()

    def density(self, *, threshold: float = 0.0) -> float:
        """Fraction of entries strictly greater than ``threshold``."""
        return self._store.density(threshold=threshold)

    def to_dict(self) -> Dict[str, object]:
        """Serialise to a JSON-friendly dict.

        The ``"dense"`` storage keeps the historical row-major nested-list
        layout; sparse and mmap stores serialise their CSR arrays (and record
        ``storage: "sparse"``) without densifying.
        """
        if isinstance(self._store, SparseStore):
            indptr, indices, data = self._store.csr_arrays
            return {
                "shape": list(self.shape),
                "storage": SparseStore.name,
                "indptr": np.asarray(indptr).tolist(),
                "indices": np.asarray(indices).tolist(),
                "data": np.asarray(data).tolist(),
            }
        return {"shape": list(self.shape), "values": self.values.tolist()}

    @classmethod
    def from_serialized(cls, payload: Mapping[str, object]) -> "InterestMatrix":
        """Inverse of :meth:`to_dict` (accepts arrays as well as lists)."""
        if "indptr" in payload:
            shape = tuple(payload["shape"])  # type: ignore[arg-type]
            store = SparseStore(
                (int(shape[0]), int(shape[1])),
                np.asarray(payload["indptr"], dtype=np.int64),
                np.asarray(payload["indices"], dtype=np.int64),
                np.asarray(payload["data"], dtype=np.float64),
            )
            return cls.from_store(store)
        values = np.asarray(payload["values"], dtype=np.float64)
        expected_shape = tuple(payload.get("shape", values.shape))  # type: ignore[arg-type]
        if values.size == 0:
            values = values.reshape(expected_shape)
        if tuple(values.shape) != tuple(expected_shape):
            raise InstanceValidationError(
                f"serialised interest matrix shape {values.shape} does not match "
                f"declared shape {expected_shape}"
            )
        return cls(values, copy=False)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InterestMatrix):
            return NotImplemented
        return self.shape == other.shape and bool(
            np.allclose(self.values, other.values)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"InterestMatrix(num_users={self.num_users}, num_items={self.num_items}, "
            f"mean={self.mean():.3f})"
        )
