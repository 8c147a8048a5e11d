"""Storage strategies for interest matrices: dense, CSR-sparse and memory-mapped.

The paper's EBSN setting produces interest matrices that are overwhelmingly
zero at realistic scale — a 10⁶-user × 10³-event instance is 8 GB as a dense
``float64`` matrix but a few hundred MB as compressed sparse rows.  This
module turns the representation into a strategy:

* :class:`DenseStore` — the in-memory 2-D array the library always used
  (the ``"dense"`` storage, still the default);
* :class:`SparseStore` — an event-major CSR built with plain NumPy arrays
  (``indptr`` / ``indices`` / ``data``, no SciPy): the ``"sparse"`` storage;
* :class:`MmapStore` — the same CSR whose arrays are ``np.memmap`` views
  into an uncompressed ``.npz`` on disk, streaming blocks without ever
  materialising the matrix: the ``"mmap"`` storage.

The three stores form a fixed name table (:func:`get_store`,
:func:`available_stores`); adding one is an edit to that table.  The
scoring kernels consume stores through :class:`EventRowSource`, which
yields event-major row blocks; sparse and mmap stores densify one block at
a time (bounded by the engine's chunk size), feed the *same* kernel as the
dense path and therefore produce bit-identical scores, utilities,
schedules and counters.

``CSR`` here is always event-major: row ``e`` of the CSR holds the non-zero
``µ(u, e)`` entries of event ``e`` over users, because the scoring kernels
iterate event rows and the competing-load precomputation gathers event
columns.  Within a row, user indices are strictly ascending.
"""

from __future__ import annotations

import os
import zipfile
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Type

import numpy as np

from repro.core.errors import (
    InstanceValidationError,
    SolverError,
    StorageCapacityError,
)

#: Name of the storage used when none is requested.
DEFAULT_STORAGE = "dense"

#: Environment variable overriding :func:`dense_capacity_limit` (elements).
DENSE_CAPACITY_ENV = "REPRO_DENSE_CAPACITY"

#: Default ceiling on dense materialisation, in elements (~3.2 GB float64).
DEFAULT_DENSE_CAPACITY = 400_000_000


def dense_capacity_limit() -> int:
    """Maximum number of elements a dense interest matrix may materialise.

    Reads ``REPRO_DENSE_CAPACITY`` on every call (so tests and benchmarks can
    lower it per-process) and falls back to :data:`DEFAULT_DENSE_CAPACITY`.
    """
    raw = os.environ.get(DENSE_CAPACITY_ENV)
    if raw is None:
        return DEFAULT_DENSE_CAPACITY
    try:
        limit = int(raw)
    except ValueError:
        raise InstanceValidationError(
            f"{DENSE_CAPACITY_ENV} must be an integer element count, got {raw!r}"
        ) from None
    if limit <= 0:
        raise InstanceValidationError(
            f"{DENSE_CAPACITY_ENV} must be positive, got {limit}"
        )
    return limit


def ensure_dense_capacity(shape: Tuple[int, int]) -> None:
    """Raise :class:`StorageCapacityError` if a dense ``shape`` is too large.

    Called *before* allocating, so an oversized request fails with a clear
    error instead of an allocator failure (or a machine brought to its knees).
    """
    num_users, num_items = int(shape[0]), int(shape[1])
    elements = num_users * num_items
    limit = dense_capacity_limit()
    if elements > limit:
        gib = elements * 8 / 2**30
        raise StorageCapacityError(
            f"dense interest matrix of shape {num_users} x {num_items} needs "
            f"{elements} elements ({gib:.1f} GiB as float64), above the dense "
            f"capacity limit of {limit} elements; use the 'sparse' or 'mmap' "
            f"storage for instances of this size, or raise {DENSE_CAPACITY_ENV}"
        )


def last_write_wins(
    user_indices: np.ndarray,
    item_indices: np.ndarray,
    values: np.ndarray,
    *,
    num_users: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Resolve duplicate ``(user, item)`` cells keeping the final occurrence.

    The one duplicate rule of every triple consumer (each store's
    ``with_updates``, :meth:`SparseStore.from_coo` and
    ``InterestMatrix.from_entries``), so duplicates resolve identically
    across representations.  The surviving triples come in cell order, not
    input order; every consumer ignores order.
    """
    flat = item_indices * np.int64(num_users) + user_indices
    _, keep_reversed = np.unique(flat[::-1], return_index=True)
    keep = flat.shape[0] - 1 - keep_reversed
    return user_indices[keep], item_indices[keep], values[keep]


# --------------------------------------------------------------------------- #
# Store hierarchy
# --------------------------------------------------------------------------- #
class InterestStore:
    """Abstract representation of a ``|U| × |H|`` interest matrix.

    Concrete stores expose the matrix through dense *views* — single columns,
    column gathers and event-major row blocks — so the scoring layer never
    needs to know how the values are laid out.  Every accessor returns plain
    ``float64`` arrays holding exactly the values of the logical matrix, which
    is what keeps every storage bit-identical under the scoring kernels.
    """

    #: Registry name of the storage (e.g. ``"dense"``); set by subclasses.
    name: str = ""

    # -- shape ---------------------------------------------------------- #
    @property
    def shape(self) -> Tuple[int, int]:
        """``(num_users, num_items)``."""
        raise NotImplementedError

    @property
    def num_users(self) -> int:
        return int(self.shape[0])

    @property
    def num_items(self) -> int:
        return int(self.shape[1])

    @property
    def size(self) -> int:
        """Number of logical elements (``num_users * num_items``)."""
        return self.num_users * self.num_items

    @property
    def nnz(self) -> int:
        """Number of explicitly stored entries."""
        raise NotImplementedError

    @property
    def path(self) -> Optional[str]:
        """Backing file of a file-backed store, ``None`` otherwise."""
        return None

    # -- construction --------------------------------------------------- #
    @classmethod
    def from_dense(cls, values: np.ndarray, *, path: Optional[str] = None) -> "InterestStore":
        """Build this store from a validated dense ``float64`` matrix."""
        raise NotImplementedError

    # -- functional updates (used by the online service's mutations) ----- #
    def with_updates(
        self,
        user_indices: np.ndarray,
        item_indices: np.ndarray,
        values: np.ndarray,
    ) -> "InterestStore":
        """A new store with the ``(user, item)`` cells overwritten by ``values``.

        Later triples win over earlier ones for the same cell.  The update
        never round-trips through a dense matrix: the dense store copies its
        array (capacity-guarded as always), the sparse store rebuilds its CSR
        from coordinate arrays, and the mmap store returns an *in-memory*
        sparse store (a mutated matrix no longer matches its backing file).
        """
        raise NotImplementedError

    def with_appended_items(self, columns: np.ndarray) -> "InterestStore":
        """A new store with the ``(|U|, m)`` block's columns appended as items, in order.

        One rewrite of the store however many columns the block holds (a
        run of add-event mutations appends in one call).
        """
        raise NotImplementedError

    def without_item(self, item_index: int) -> "InterestStore":
        """A new store with one item column removed (for remove-event mutations)."""
        raise NotImplementedError

    # -- dense views ---------------------------------------------------- #
    def column(self, item_index: int) -> np.ndarray:
        """Dense ``(num_users,)`` column of one item."""
        raise NotImplementedError

    def columns(self, item_indices: Sequence[int]) -> np.ndarray:
        """Dense ``(num_users, k)`` gather of ``k`` item columns."""
        raise NotImplementedError

    def item_rows(self, start: int, stop: int) -> np.ndarray:
        """Dense event-major block ``µ.T[start:stop]`` of shape ``(stop-start, num_users)``.

        A new C-contiguous array (never a view of the store), so callers may
        write to it.
        """
        raise NotImplementedError

    def item_rows_at(self, item_indices: np.ndarray) -> np.ndarray:
        """Dense event-major gather ``µ.T[item_indices]`` (a new array, like :meth:`item_rows`)."""
        raise NotImplementedError

    def row(self, user_index: int) -> np.ndarray:
        """Dense ``(num_items,)`` row of one user."""
        raise NotImplementedError

    def user_rows(self, user_indices: Sequence[int]) -> np.ndarray:
        """Dense user-major gather ``µ[user_indices]``, ``(k, num_items)`` (a new array)."""
        raise NotImplementedError

    def value(self, user_index: int, item_index: int) -> float:
        """A single ``µ(u, i)`` entry."""
        raise NotImplementedError

    def to_dense(self) -> np.ndarray:
        """Materialise the full ``(num_users, num_items)`` array (capacity-guarded)."""
        raise NotImplementedError

    # -- statistics ----------------------------------------------------- #
    def mean(self) -> float:
        """Mean over all logical entries (0.0 for an empty matrix)."""
        raise NotImplementedError

    def density(self, *, threshold: float = 0.0) -> float:
        """Fraction of logical entries strictly greater than ``threshold``."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        users, items = self.shape
        return f"{type(self).__name__}(num_users={users}, num_items={items}, nnz={self.nnz})"


class DenseStore(InterestStore):
    """The in-memory 2-D array representation (the ``"dense"`` storage)."""

    name = "dense"

    __slots__ = ("_values",)

    def __init__(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64)
        ensure_dense_capacity(values.shape)
        self._values = values

    @classmethod
    def from_dense(cls, values: np.ndarray, *, path: Optional[str] = None) -> "DenseStore":
        return cls(values)

    @classmethod
    def zeros(cls, num_users: int, num_items: int) -> "DenseStore":
        ensure_dense_capacity((num_users, num_items))
        return cls(np.zeros((num_users, num_items), dtype=np.float64))

    @property
    def values(self) -> np.ndarray:
        """The underlying ``(num_users, num_items)`` array (a view, not a copy)."""
        return self._values

    @property
    def shape(self) -> Tuple[int, int]:
        return self._values.shape  # type: ignore[return-value]

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self._values))

    def column(self, item_index: int) -> np.ndarray:
        return self._values[:, item_index]

    def columns(self, item_indices: Sequence[int]) -> np.ndarray:
        return self._values[:, np.asarray(item_indices, dtype=np.int64)]

    def item_rows(self, start: int, stop: int) -> np.ndarray:
        return np.array(self._values.T[start:stop], order="C")

    def item_rows_at(self, item_indices: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(self._values.T[np.asarray(item_indices, dtype=np.int64)])

    def row(self, user_index: int) -> np.ndarray:
        return self._values[user_index, :]

    def user_rows(self, user_indices: Sequence[int]) -> np.ndarray:
        return self._values[np.asarray(user_indices, dtype=np.int64)]

    def value(self, user_index: int, item_index: int) -> float:
        return float(self._values[user_index, item_index])

    def with_updates(
        self,
        user_indices: np.ndarray,
        item_indices: np.ndarray,
        values: np.ndarray,
    ) -> "DenseStore":
        user_indices = np.asarray(user_indices, dtype=np.int64)
        item_indices = np.asarray(item_indices, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        user_indices, item_indices, values = last_write_wins(
            user_indices, item_indices, values, num_users=self.num_users
        )
        out = np.array(self._values, copy=True)
        out[user_indices, item_indices] = values
        return DenseStore(out)

    def with_appended_items(self, columns: np.ndarray) -> "DenseStore":
        columns = np.asarray(columns, dtype=np.float64)
        return DenseStore(np.concatenate([self._values, columns], axis=1))

    def without_item(self, item_index: int) -> "DenseStore":
        return DenseStore(np.delete(self._values, item_index, axis=1))

    def to_dense(self) -> np.ndarray:
        return self._values

    def mean(self) -> float:
        if self._values.size == 0:
            return 0.0
        return float(self._values.mean())

    def density(self, *, threshold: float = 0.0) -> float:
        if self._values.size == 0:
            return 0.0
        return float(np.count_nonzero(self._values > threshold) / self._values.size)


def require_unit_interval(values: np.ndarray, what: str) -> None:
    """Raise unless every entry of ``values`` is a number in ``[0, 1]``.

    NaN fails the check: ``np.min``/``np.max`` propagate it and every
    comparison with it is false.  ``what`` names the values in the message.
    """
    if values.size == 0:
        return
    low, high = float(np.min(values)), float(np.max(values))
    if not 0.0 <= low <= high <= 1.0:
        raise InstanceValidationError(
            f"{what} must lie in [0, 1]; found values in [{low:.4f}, {high:.4f}]"
        )


def _validate_csr(
    shape: Tuple[int, int],
    indptr: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    *,
    deep: bool,
) -> None:
    """Structural (and optionally value-level) checks on event-major CSR arrays."""
    num_users, num_items = shape
    if indptr.ndim != 1 or indptr.shape[0] != num_items + 1:
        raise InstanceValidationError(
            f"CSR indptr must have length num_items + 1 = {num_items + 1}, "
            f"got shape {indptr.shape}"
        )
    if int(indptr[0]) != 0:
        raise InstanceValidationError("CSR indptr must start at 0")
    if indices.shape != data.shape or indices.ndim != 1:
        raise InstanceValidationError(
            f"CSR indices/data must be equal-length 1-D arrays, got shapes "
            f"{indices.shape} and {data.shape}"
        )
    if int(indptr[-1]) != indices.shape[0]:
        raise InstanceValidationError(
            f"CSR indptr ends at {int(indptr[-1])} but {indices.shape[0]} "
            "entries are stored"
        )
    if not deep:
        return
    if np.any(np.diff(indptr) < 0):
        raise InstanceValidationError("CSR indptr must be non-decreasing")
    if indices.size:
        if int(indices.min()) < 0 or int(indices.max()) >= num_users:
            raise InstanceValidationError(
                f"CSR user indices must lie in [0, {num_users})"
            )
        require_unit_interval(data, "interest values")


class SparseStore(InterestStore):
    """Event-major CSR over plain NumPy arrays (the ``"sparse"`` storage).

    Row ``e`` of the CSR is event ``e``'s user vector: ``indices`` holds the
    user indices with non-zero interest (ascending within a row) and ``data``
    the matching ``µ`` values.  Built from the same ``(user, item, value)``
    triples that feed ``InterestMatrix.from_entries`` — no SciPy involved.
    """

    name = "sparse"

    __slots__ = ("_shape", "_indptr", "_indices", "_data")

    def __init__(
        self,
        shape: Tuple[int, int],
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        *,
        validate: bool = True,
    ) -> None:
        self._shape = (int(shape[0]), int(shape[1]))
        self._indptr = indptr
        self._indices = indices
        self._data = data
        if validate:
            _validate_csr(self._shape, indptr, indices, data, deep=True)

    # -- construction --------------------------------------------------- #
    @classmethod
    def from_dense(cls, values: np.ndarray, *, path: Optional[str] = None) -> "SparseStore":
        values = np.asarray(values, dtype=np.float64)
        transposed = values.T
        item_idx, user_idx = np.nonzero(transposed)
        data = np.ascontiguousarray(transposed[item_idx, user_idx], dtype=np.float64)
        counts = np.bincount(item_idx, minlength=values.shape[1])
        indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        return cls(
            values.shape, indptr, user_idx.astype(np.int64), data, validate=False
        )

    @classmethod
    def from_coo(
        cls,
        num_users: int,
        num_items: int,
        user_indices: np.ndarray,
        item_indices: np.ndarray,
        data: np.ndarray,
        *,
        deduplicated: bool = True,
    ) -> "SparseStore":
        """Build from parallel coordinate arrays (one triple per entry).

        ``deduplicated=True`` asserts the caller already removed duplicate
        ``(user, item)`` cells; the arrays are sorted into event-major order
        here.  This is the vectorised back end of ``from_entries``.
        """
        user_indices = np.asarray(user_indices, dtype=np.int64)
        item_indices = np.asarray(item_indices, dtype=np.int64)
        data = np.asarray(data, dtype=np.float64)
        if not deduplicated:
            user_indices, item_indices, data = last_write_wins(
                user_indices, item_indices, data, num_users=num_users
            )
        order = np.lexsort((user_indices, item_indices))
        user_indices = user_indices[order]
        item_indices = item_indices[order]
        data = np.ascontiguousarray(data[order])
        counts = np.bincount(item_indices, minlength=num_items)
        indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        return cls((num_users, num_items), indptr, user_indices, data)

    # -- CSR array access (used by serialisation and shipping) ----------- #
    @property
    def csr_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(indptr, indices, data)`` — the raw CSR arrays."""
        return self._indptr, self._indices, self._data

    # -- store API ------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, int]:
        return self._shape

    @property
    def nnz(self) -> int:
        return int(self._indptr[-1])

    def column(self, item_index: int) -> np.ndarray:
        lo, hi = int(self._indptr[item_index]), int(self._indptr[item_index + 1])
        out = np.zeros(self._shape[0], dtype=np.float64)
        out[self._indices[lo:hi]] = self._data[lo:hi]
        return out

    def columns(self, item_indices: Sequence[int]) -> np.ndarray:
        item_indices = np.asarray(item_indices, dtype=np.int64)
        out = np.zeros((self._shape[0], item_indices.shape[0]), dtype=np.float64)
        for position, item_index in enumerate(item_indices):
            lo, hi = int(self._indptr[item_index]), int(self._indptr[item_index + 1])
            out[self._indices[lo:hi], position] = self._data[lo:hi]
        return out

    def item_rows(self, start: int, stop: int) -> np.ndarray:
        lo, hi = int(self._indptr[start]), int(self._indptr[stop])
        out = np.zeros((stop - start, self._shape[0]), dtype=np.float64)
        lengths = np.diff(self._indptr[start : stop + 1])
        block_rows = np.repeat(np.arange(stop - start), lengths)
        out[block_rows, self._indices[lo:hi]] = self._data[lo:hi]
        return out

    def item_rows_at(self, item_indices: np.ndarray) -> np.ndarray:
        item_indices = np.asarray(item_indices, dtype=np.int64)
        out = np.zeros((item_indices.shape[0], self._shape[0]), dtype=np.float64)
        for position, item_index in enumerate(item_indices):
            lo, hi = int(self._indptr[item_index]), int(self._indptr[item_index + 1])
            out[position, self._indices[lo:hi]] = self._data[lo:hi]
        return out

    def row(self, user_index: int) -> np.ndarray:
        return self.user_rows([user_index])[0]

    def user_rows(self, user_indices: Sequence[int]) -> np.ndarray:
        # One pass over the stored entries: keep those of the wanted users
        # and find each kept entry's item from its CSR position.
        wanted, inverse = np.unique(np.asarray(user_indices, dtype=np.int64), return_inverse=True)
        position = np.full(self._shape[0], -1, dtype=np.int64)
        position[wanted] = np.arange(wanted.shape[0])
        rows = position[np.asarray(self._indices)]
        kept = np.flatnonzero(rows >= 0)
        items = np.searchsorted(np.asarray(self._indptr), kept, side="right") - 1
        out = np.zeros((wanted.shape[0], self._shape[1]), dtype=np.float64)
        out[rows[kept], items] = np.asarray(self._data)[kept]
        return out[inverse]

    def value(self, user_index: int, item_index: int) -> float:
        lo, hi = int(self._indptr[item_index]), int(self._indptr[item_index + 1])
        segment = self._indices[lo:hi]
        position = int(np.searchsorted(segment, user_index))
        if position < segment.shape[0] and int(segment[position]) == user_index:
            return float(self._data[lo + position])
        return 0.0

    def _coo_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The stored entries as in-memory ``(users, items, data)`` triples."""
        indptr = np.asarray(self._indptr, dtype=np.int64)
        users = np.array(self._indices, dtype=np.int64)
        data = np.array(self._data, dtype=np.float64)
        items = np.repeat(
            np.arange(self._shape[1], dtype=np.int64), np.diff(indptr)
        )
        return users, items, data

    def with_updates(
        self,
        user_indices: np.ndarray,
        item_indices: np.ndarray,
        values: np.ndarray,
    ) -> "SparseStore":
        base_users, base_items, base_data = self._coo_arrays()
        # Updates go AFTER the existing entries so last-write-wins lets them
        # overwrite; an explicit zero update then deletes the stored entry.
        users = np.concatenate([base_users, np.asarray(user_indices, dtype=np.int64)])
        items = np.concatenate([base_items, np.asarray(item_indices, dtype=np.int64)])
        data = np.concatenate([base_data, np.asarray(values, dtype=np.float64)])
        users, items, data = last_write_wins(
            users, items, data, num_users=self._shape[0]
        )
        nonzero = data != 0.0
        return SparseStore.from_coo(
            self._shape[0],
            self._shape[1],
            users[nonzero],
            items[nonzero],
            data[nonzero],
        )

    def with_appended_items(self, columns: np.ndarray) -> "SparseStore":
        # One row per new item: nonzero() walks it item-major, users ascending.
        rows = np.asarray(columns, dtype=np.float64).T
        items, users = np.nonzero(rows)
        indptr = np.asarray(self._indptr, dtype=np.int64)
        counts = np.bincount(items, minlength=rows.shape[0])
        new_indptr = np.concatenate([indptr, indptr[-1] + np.cumsum(counts)])
        new_indices = np.concatenate(
            [np.array(self._indices, dtype=np.int64), users.astype(np.int64)]
        )
        new_data = np.concatenate(
            [np.array(self._data, dtype=np.float64), rows[items, users]]
        )
        return SparseStore(
            (self._shape[0], self._shape[1] + rows.shape[0]),
            new_indptr.astype(np.int64),
            new_indices,
            new_data,
        )

    def without_item(self, item_index: int) -> "SparseStore":
        indptr = np.asarray(self._indptr, dtype=np.int64)
        indices = np.array(self._indices, dtype=np.int64)
        data = np.array(self._data, dtype=np.float64)
        lo, hi = int(indptr[item_index]), int(indptr[item_index + 1])
        new_indptr = np.concatenate(
            [indptr[: item_index + 1], indptr[item_index + 2 :] - (hi - lo)]
        ).astype(np.int64)
        return SparseStore(
            (self._shape[0], self._shape[1] - 1),
            new_indptr,
            np.concatenate([indices[:lo], indices[hi:]]),
            np.concatenate([data[:lo], data[hi:]]),
            validate=False,
        )

    def to_dense(self) -> np.ndarray:
        ensure_dense_capacity(self._shape)
        out = np.zeros(self._shape, dtype=np.float64)
        lengths = np.diff(self._indptr)
        item_of_entry = np.repeat(np.arange(self._shape[1]), lengths)
        out[np.asarray(self._indices), item_of_entry] = np.asarray(self._data)
        return out

    def mean(self) -> float:
        if self.size == 0:
            return 0.0
        return float(np.asarray(self._data, dtype=np.float64).sum() / self.size)

    def density(self, *, threshold: float = 0.0) -> float:
        if self.size == 0:
            return 0.0
        stored = int(np.count_nonzero(np.asarray(self._data) > threshold))
        if threshold < 0.0:
            stored += self.size - self._data.shape[0]
        return float(stored / self.size)


# --------------------------------------------------------------------------- #
# Memory-mapped NPZ members
# --------------------------------------------------------------------------- #
def map_npz_member(path: str, member: str, *, mode: str = "r") -> np.ndarray:
    """Memory-map one array member of an *uncompressed* ``.npz`` file.

    ``np.savez`` stores each array as a ``ZIP_STORED`` (uncompressed) member
    holding plain ``.npy`` bytes, so the array data lives contiguously in the
    file and can be mapped in place: the data offset is the member's local
    header offset plus the local header size plus the ``.npy`` header.  A
    compressed member cannot be mapped and raises a clear error.
    """
    member_name = member if member.endswith(".npy") else member + ".npy"
    with zipfile.ZipFile(path) as archive:
        try:
            info = archive.getinfo(member_name)
        except KeyError:
            raise InstanceValidationError(
                f"{path}: no member {member_name!r} in archive"
            ) from None
        if info.compress_type != zipfile.ZIP_STORED:
            raise InstanceValidationError(
                f"{path}: member {member_name!r} is compressed and cannot be "
                "memory-mapped; re-save with compressed=False"
            )
    with open(path, "rb") as handle:
        handle.seek(info.header_offset)
        local_header = handle.read(30)
        if local_header[:4] != b"PK\x03\x04":
            raise InstanceValidationError(
                f"{path}: corrupt local header for member {member_name!r}"
            )
        name_length = int.from_bytes(local_header[26:28], "little")
        extra_length = int.from_bytes(local_header[28:30], "little")
        handle.seek(info.header_offset + 30 + name_length + extra_length)
        version = np.lib.format.read_magic(handle)
        if version == (1, 0):
            shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(handle)
        elif version == (2, 0):
            shape, fortran_order, dtype = np.lib.format.read_array_header_2_0(handle)
        else:  # pragma: no cover - npy format 3.0 stores non-latin names only
            raise InstanceValidationError(
                f"{path}: unsupported .npy format version {version} "
                f"for member {member_name!r}"
            )
        data_offset = handle.tell()
    order = "F" if fortran_order else "C"
    if int(np.prod(shape)) == 0:
        # mmap cannot map zero bytes; an empty array needs no backing anyway.
        return np.zeros(shape, dtype=dtype, order=order)
    return np.memmap(path, dtype=dtype, mode=mode, offset=data_offset, shape=shape, order=order)


class MmapStore(SparseStore):
    """File-backed event-major CSR streaming from an uncompressed NPZ.

    The three CSR arrays are ``np.memmap`` views into the backing file, so
    opening a store reads only the ZIP directory and the array headers; data
    pages are faulted in on demand as the scoring kernels walk event blocks.
    The matrix is never materialised (the ``"mmap"`` storage).
    """

    name = "mmap"

    __slots__ = ("_path", "_prefix")

    def __init__(
        self,
        shape: Tuple[int, int],
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        *,
        path: str,
        prefix: str = "interest",
        validate: bool = True,
    ) -> None:
        # Deep validation would stream every page of the backing file at open
        # time; structural checks on the (small) indptr are enough here
        # because spill() validates values before writing.
        super().__init__(shape, indptr, indices, data, validate=False)
        if validate:
            _validate_csr(self._shape, indptr, indices, data, deep=False)
        self._path = os.fspath(path)
        self._prefix = str(prefix)

    @property
    def path(self) -> Optional[str]:
        return self._path

    @property
    def prefix(self) -> str:
        """Member-name prefix of the CSR arrays inside the backing NPZ."""
        return self._prefix

    @classmethod
    def open(cls, path: str, *, prefix: str = "interest") -> "MmapStore":
        """Map the CSR members ``{prefix}_indptr/indices/data`` of ``path``."""
        shape_member = map_npz_member(path, f"{prefix}_shape")
        shape = (int(shape_member[0]), int(shape_member[1]))
        return cls(
            shape,
            map_npz_member(path, f"{prefix}_indptr"),
            map_npz_member(path, f"{prefix}_indices"),
            map_npz_member(path, f"{prefix}_data"),
            path=path,
            prefix=prefix,
        )

    @classmethod
    def spill(cls, store: InterestStore, path: str, *, prefix: str = "interest") -> "MmapStore":
        """Write ``store`` as an uncompressed CSR NPZ at ``path`` and map it."""
        members = csr_members(store, prefix=prefix)
        # np.savez appends ".npz" to extension-less paths; normalise first so
        # the path we re-open is the path actually written.
        target = os.fspath(path)
        if not target.endswith(".npz"):
            target += ".npz"
        np.savez(target, **members)
        return cls.open(target, prefix=prefix)

    @classmethod
    def from_dense(cls, values: np.ndarray, *, path: Optional[str] = None) -> "MmapStore":
        if path is None:
            raise InstanceValidationError(
                "the 'mmap' storage is file-backed: pass a path (or directory) "
                "to spill the matrix to"
            )
        return cls.spill(SparseStore.from_dense(values), path)


def as_sparse(store: InterestStore) -> SparseStore:
    """View/convert any store as an (in-memory-API) event-major CSR."""
    if isinstance(store, SparseStore):
        return store
    return SparseStore.from_dense(store.to_dense())


def csr_members(store: InterestStore, *, prefix: str = "interest") -> Dict[str, np.ndarray]:
    """The four NPZ members serialising ``store`` as event-major CSR."""
    sparse = as_sparse(store)
    indptr, indices, data = sparse.csr_arrays
    return {
        f"{prefix}_shape": np.asarray(sparse.shape, dtype=np.int64),
        f"{prefix}_indptr": np.asarray(indptr, dtype=np.int64),
        f"{prefix}_indices": np.asarray(indices, dtype=np.int64),
        f"{prefix}_data": np.asarray(data, dtype=np.float64),
    }


# --------------------------------------------------------------------------- #
# Store table
# --------------------------------------------------------------------------- #
_STORE_REGISTRY: Dict[str, Type[InterestStore]] = {
    DenseStore.name: DenseStore,
    SparseStore.name: SparseStore,
    MmapStore.name: MmapStore,
}


def available_stores() -> List[str]:
    """Storage names, in table order."""
    return list(_STORE_REGISTRY)


def get_store(name: str) -> Type[InterestStore]:
    """Look up a storage class by name, with a friendly error."""
    try:
        return _STORE_REGISTRY[name]
    except KeyError:
        known = ", ".join(available_stores())
        raise SolverError(f"unknown storage {name!r}; available: {known}") from None


def convert_store(
    store: InterestStore, storage: str, *, path: Optional[str] = None
) -> InterestStore:
    """Re-represent ``store`` under the named storage.

    Dense → sparse goes through CSR extraction without an extra dense copy;
    sparse/mmap → dense is capacity-guarded; anything → mmap requires a
    ``path`` to spill to.  Conversions never change a single value, only the
    layout, so the scoring results stay bit-identical.
    """
    target = get_store(storage)
    if type(store) is target and not (target is MmapStore and path is not None):
        return store
    if target is DenseStore:
        return DenseStore(store.to_dense())
    if target is SparseStore:
        return as_sparse(store) if not isinstance(store, MmapStore) else SparseStore(
            store.shape,
            *(np.array(arr) for arr in store.csr_arrays),
            validate=False,
        )
    # MmapStore is the last entry of the store table.
    if path is None:
        raise InstanceValidationError(
            "converting to the 'mmap' storage needs a path to spill the "
            "matrix to"
        )
    return MmapStore.spill(store, path)


# --------------------------------------------------------------------------- #
# Event-major row sources consumed by the scoring kernels
# --------------------------------------------------------------------------- #
def unit_values(event_values: np.ndarray) -> bool:
    """Whether every event value is exactly ``1.0`` (the paper's model, no §2.1 values).

    Then ``value·µ`` is ``µ`` bit for bit (``1.0·x == x`` for every float),
    so the row sources serve the µ block itself as the value·µ block and
    the engine keeps one scheduled-sum array for ``A[t]`` and ``V[t]``.
    Always decided on the *full* value vector: a selection of unit-valued
    rows of a valued instance still gets its own value·µ block.
    """
    return bool(np.all(np.asarray(event_values) == 1.0))


class EventRowSource:
    """Chunked provider of event-major ``(µ.T, value·µ.T)`` row blocks.

    The scoring kernels iterate events in blocks; a row source yields, for
    rows ``[start, stop)``, the pair ``(mu_rows, value_mu_rows)`` where
    ``value_mu_rows[r] = value(event_r) * mu_rows[r]``.  When every event
    value of the instance is exactly 1.0 (:attr:`unit_values`) the product
    would be ``mu_rows`` bit for bit, and ``value_mu_rows`` *is*
    ``mu_rows`` — the same object, which the kernel callers read as the
    unit-value fact without inspecting an element.  µ enters a row source
    with ``-0.0`` folded into ``0.0`` (``µ + 0.0``, exact for every other
    value), so a kernel may drop the ``0.0 + µ`` of an empty interval
    without changing a sign.  The dense engine precomputes the matrices once
    and serves views; sparse and mmap stores densify one block at a time, so
    peak memory is bounded by the chunk size regardless of the instance size.
    """

    @property
    def num_rows(self) -> int:
        raise NotImplementedError

    @property
    def unit_values(self) -> bool:
        """Whether :meth:`block` serves ``mu_rows`` itself as value·µ (every event value is 1.0)."""
        raise NotImplementedError

    def block(self, start: int, stop: int) -> Tuple[np.ndarray, np.ndarray]:
        """Event-major blocks ``(mu_rows, value_mu_rows)`` for rows ``[start, stop)``."""
        raise NotImplementedError

    def select(self, indices: np.ndarray) -> "EventRowSource":
        """A row source restricted (and reordered) to ``indices``."""
        raise NotImplementedError


class DenseEventRows(EventRowSource):
    """Zero-copy views over precomputed dense ``mu_rows`` / ``value_mu_rows``.

    Under unit event values ``value_mu_rows`` is ``mu_rows`` itself: the
    source holds one ``(|E|, |U|)`` matrix, and :meth:`select` copies once.
    """

    __slots__ = ("_mu_rows", "_value_mu_rows")

    def __init__(self, mu_rows: np.ndarray, value_mu_rows: np.ndarray) -> None:
        self._mu_rows = mu_rows
        self._value_mu_rows = value_mu_rows

    @property
    def num_rows(self) -> int:
        return int(self._mu_rows.shape[0])

    @property
    def unit_values(self) -> bool:
        return self._value_mu_rows is self._mu_rows

    def block(self, start: int, stop: int) -> Tuple[np.ndarray, np.ndarray]:
        mu_rows = self._mu_rows[start:stop]
        if self.unit_values:
            return mu_rows, mu_rows
        return mu_rows, self._value_mu_rows[start:stop]

    def select(self, indices: np.ndarray) -> "DenseEventRows":
        mu_rows = self._mu_rows[indices]
        if self.unit_values:
            return DenseEventRows(mu_rows, mu_rows)
        return DenseEventRows(mu_rows, self._value_mu_rows[indices])


class StoreEventRows(EventRowSource):
    """Blocks densified on demand from a sparse or memory-mapped store.

    Each densified block has ``-0.0`` folded into ``0.0`` in place, and
    ``value_mu_rows`` is computed per block as ``values[:, None] * mu_rows``
    (the block itself under unit values) — elementwise-identical to the
    dense engine's precompute-then-slice, so scores stay bit-identical.
    """

    __slots__ = ("_store", "_event_values", "_indices", "_unit_values")

    def __init__(
        self,
        store: InterestStore,
        event_values: np.ndarray,
        indices: Optional[np.ndarray] = None,
    ) -> None:
        self._store = store
        self._event_values = np.asarray(event_values, dtype=np.float64)
        self._indices = None if indices is None else np.asarray(indices, dtype=np.int64)
        self._unit_values = unit_values(self._event_values)

    @property
    def num_rows(self) -> int:
        if self._indices is None:
            return self._store.num_items
        return int(self._indices.shape[0])

    @property
    def unit_values(self) -> bool:
        return self._unit_values

    def block(self, start: int, stop: int) -> Tuple[np.ndarray, np.ndarray]:
        if self._indices is None:
            mu_rows = self._store.item_rows(start, stop)
            values = self._event_values[start:stop]
        else:
            selected = self._indices[start:stop]
            mu_rows = self._store.item_rows_at(selected)
            values = self._event_values[selected]
        np.add(mu_rows, 0.0, out=mu_rows)
        if self._unit_values:
            return mu_rows, mu_rows
        return mu_rows, values[:, np.newaxis] * mu_rows

    def select(self, indices: np.ndarray) -> "StoreEventRows":
        indices = np.asarray(indices, dtype=np.int64)
        if self._indices is not None:
            indices = self._indices[indices]
        return StoreEventRows(self._store, self._event_values, indices)


__all__ = [
    "DEFAULT_STORAGE",
    "DENSE_CAPACITY_ENV",
    "DEFAULT_DENSE_CAPACITY",
    "dense_capacity_limit",
    "ensure_dense_capacity",
    "require_unit_interval",
    "last_write_wins",
    "InterestStore",
    "DenseStore",
    "SparseStore",
    "MmapStore",
    "as_sparse",
    "csr_members",
    "map_npz_member",
    "available_stores",
    "get_store",
    "convert_store",
    "unit_values",
    "EventRowSource",
    "DenseEventRows",
    "StoreEventRows",
]
