"""NPZ persistence and memory-mapping for SES instances.

This module owns the binary ``.npz`` schema for
:class:`~repro.core.instance.SESInstance`:

* ``entities`` — the entity lists / organiser / metadata as a JSON string
  (stored as a ``uint8`` array member);
* ``activity`` — the ``|U| × |T|`` activity matrix;
* each interest matrix either as one dense 2-D member (``interest``,
  ``competing_interest``) or as event-major CSR members
  (``<prefix>_shape`` / ``<prefix>_indptr`` / ``<prefix>_indices`` /
  ``<prefix>_data``), depending on the matrix's storage at save time.

``save_npz(..., compressed=False)`` writes the members ``ZIP_STORED``
(uncompressed), which is what makes ``load_npz(..., mmap=True)`` possible:
CSR members are then ``np.memmap`` views straight into the file and the
matrices stream from disk without ever materialising (the ``"mmap"``
storage).

It lives in the core layer (not ``datasets``) so
:meth:`~repro.core.instance.SESInstance.with_storage` can spill an instance
to the ``"mmap"`` storage without importing upward;
:mod:`repro.datasets.loaders` re-exports the public API for callers that
think in dataset terms.
"""

from __future__ import annotations

import json
import os
import zipfile
from pathlib import Path
from typing import Dict, Union

import numpy as np

from repro.core.errors import DatasetError
from repro.core.instance import SESInstance
from repro.core.interest import InterestMatrix
from repro.core.storage import MmapStore, SparseStore, csr_members

PathLike = Union[str, Path]

#: Member-name prefixes of the two interest matrices.
MATRIX_PREFIXES = ("interest", "competing_interest")


def save_npz(instance: SESInstance, path: PathLike, *, compressed: bool = True) -> Path:
    """Write an instance as an NPZ bundle and return the path written.

    Arrays flow straight from the stores into the archive — nothing is
    round-tripped through Python lists.  Matrices held by a
    :class:`SparseStore` (or its memory-mapped subclass) are written as CSR
    members; dense matrices keep the historical single-member layout, so
    files written by earlier versions load unchanged.  Pass
    ``compressed=False`` to store members uncompressed, which is required for
    ``load_npz(..., mmap=True)``.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    members: Dict[str, np.ndarray] = {}
    for prefix, matrix in (
        ("interest", instance.interest),
        ("competing_interest", instance.competing_interest),
    ):
        store = matrix.store
        if isinstance(store, SparseStore):
            members.update(csr_members(store, prefix=prefix))
        else:
            members[prefix] = np.ascontiguousarray(store.to_dense(), dtype=np.float64)
    members["activity"] = np.ascontiguousarray(instance.activity, dtype=np.float64)
    entities = instance.to_dict(include_matrices=False)
    members["entities"] = np.frombuffer(
        json.dumps(entities, sort_keys=True).encode("utf-8"), dtype=np.uint8
    )
    writer = np.savez_compressed if compressed else np.savez
    writer(target, **members)
    return target


def load_npz(path: PathLike, *, mmap: bool = False) -> SESInstance:
    """Load an instance written by :func:`save_npz`.

    With ``mmap=False`` every array is read into memory and the matrices come
    back under the storage they were saved with (dense members → ``"dense"``,
    CSR members → ``"sparse"``).  With ``mmap=True`` the CSR members are
    memory-mapped in place — the file must be uncompressed and the matrices
    must be stored as CSR — and the returned instance records the file in
    ``backing_file`` so the execution layers can map or ship it.
    """
    source = Path(path)
    if not source.exists():
        raise DatasetError(f"instance file not found: {source}")
    if mmap:
        return _load_npz_mmap(source)
    with np.load(source, allow_pickle=False) as bundle:
        payload = _entities_payload(bundle["entities"])
        payload["activity"] = np.asarray(bundle["activity"], dtype=np.float64)
        for prefix in MATRIX_PREFIXES:
            if prefix in bundle:
                values = np.asarray(bundle[prefix], dtype=np.float64)
                payload[prefix] = {"shape": list(values.shape), "values": values}
            else:
                payload[prefix] = {
                    "shape": np.asarray(bundle[f"{prefix}_shape"]).tolist(),
                    "indptr": np.asarray(bundle[f"{prefix}_indptr"]),
                    "indices": np.asarray(bundle[f"{prefix}_indices"]),
                    "data": np.asarray(bundle[f"{prefix}_data"]),
                }
    return SESInstance.from_dict(payload)


def spill_instance(instance: SESInstance, directory: PathLike) -> SESInstance:
    """Write ``instance`` as an uncompressed CSR NPZ and memory-map it back.

    This is the ``"mmap"`` conversion behind ``SESInstance.with_storage``:
    both matrices are re-represented as event-major CSR, spilled to
    ``<directory>/<name>.npz`` with ``compressed=False`` and re-opened with
    ``mmap=True``, so the returned instance streams from disk and knows its
    ``backing_file``.
    """
    folder = Path(directory)
    folder.mkdir(parents=True, exist_ok=True)
    filename = f"{instance.name}.npz".replace(os.sep, "_")
    sparse_instance = instance
    if not (
        isinstance(instance.interest.store, SparseStore)
        and isinstance(instance.competing_interest.store, SparseStore)
    ):
        sparse_instance = instance.with_storage("sparse")
    target = save_npz(sparse_instance, folder / filename, compressed=False)
    return load_npz(target, mmap=True)


# --------------------------------------------------------------------------- #
# Internals
# --------------------------------------------------------------------------- #
def _entities_payload(entities_member: np.ndarray) -> Dict[str, object]:
    """Decode the ``entities`` JSON member into a ``from_dict`` payload."""
    return dict(json.loads(bytes(entities_member.tobytes()).decode("utf-8")))


def _load_npz_mmap(source: Path) -> SESInstance:
    with zipfile.ZipFile(source) as archive:
        compression = {info.filename: info.compress_type for info in archive.infolist()}
    if any(kind != zipfile.ZIP_STORED for kind in compression.values()):
        raise DatasetError(
            f"{source} holds compressed members and cannot be memory-mapped; "
            "re-save it with save_npz(..., compressed=False)"
        )
    matrices: Dict[str, InterestMatrix] = {}
    for prefix in MATRIX_PREFIXES:
        if f"{prefix}_indptr.npy" in compression:
            matrices[prefix] = InterestMatrix.from_store(
                MmapStore.open(str(source), prefix=prefix)
            )
        else:
            raise DatasetError(
                f"{source}: matrix {prefix!r} is stored dense; memory-mapped "
                "loads stream CSR members only — re-save the instance under "
                "the 'sparse' or 'mmap' storage (e.g. via "
                "instance.with_storage('sparse')) with compressed=False"
            )
    with np.load(source, allow_pickle=False) as bundle:
        payload = _entities_payload(bundle["entities"])
        payload["activity"] = np.asarray(bundle["activity"], dtype=np.float64)
    payload["interest"] = matrices["interest"]
    payload["competing_interest"] = matrices["competing_interest"]
    instance = SESInstance.from_dict(payload)
    instance.backing_file = str(source)
    return instance


__all__ = ["MATRIX_PREFIXES", "save_npz", "load_npz", "spill_instance"]
