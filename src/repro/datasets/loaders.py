"""Persistence for SES instances.

Two formats are supported:

* **JSON** (``.json``) — fully self-contained, human-inspectable, suitable for
  small instances and golden-file tests.
* **NPZ bundle** (``.npz``) — the numeric matrices stored as NumPy array
  members with the entity lists embedded as a JSON string; the right choice
  for benchmark-scale instances.  Compressed by default; pass
  ``compressed=False`` to write uncompressed members, which is what makes
  ``load_npz(..., mmap=True)`` able to memory-map the matrices in place
  instead of reading them into RAM (the ``"mmap"`` storage).

The NPZ schema itself lives in :mod:`repro.core.instance_io` (so the core
layer can spill instances to the ``"mmap"`` storage without importing the
dataset layer); this module re-exports it next to the JSON format behind
one suffix-dispatching ``save_instance`` / ``load_instance`` pair.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from repro.core.errors import DatasetError
from repro.core.instance import SESInstance
from repro.core.instance_io import load_npz, save_npz

PathLike = Union[str, Path]

__all__ = ["save_instance", "load_instance", "save_npz", "load_npz"]


def save_instance(
    instance: SESInstance, path: PathLike, *, compressed: bool = True
) -> Path:
    """Save an instance; the format is chosen from the file extension.

    ``compressed`` applies to the ``.npz`` format only (JSON is always plain
    text).  Returns the resolved path written to.
    """
    target = Path(path)
    if target.suffix == ".json":
        _save_json(instance, target)
    elif target.suffix == ".npz":
        save_npz(instance, target, compressed=compressed)
    else:
        raise DatasetError(
            f"unsupported instance format {target.suffix!r}; use '.json' or '.npz'"
        )
    return target


def load_instance(path: PathLike, *, mmap: bool = False) -> SESInstance:
    """Load an instance previously written by :func:`save_instance`.

    ``mmap=True`` memory-maps the matrices of an uncompressed CSR ``.npz``
    instead of materialising them (and is rejected for JSON files, which have
    nothing to map).
    """
    source = Path(path)
    if not source.exists():
        raise DatasetError(f"instance file not found: {source}")
    if source.suffix == ".json":
        if mmap:
            raise DatasetError(
                f"{source}: JSON instances cannot be memory-mapped; save the "
                "instance as an uncompressed '.npz' first"
            )
        return _load_json(source)
    if source.suffix == ".npz":
        return load_npz(source, mmap=mmap)
    raise DatasetError(f"unsupported instance format {source.suffix!r}; use '.json' or '.npz'")


# --------------------------------------------------------------------------- #
# JSON
# --------------------------------------------------------------------------- #
def _save_json(instance: SESInstance, target: Path) -> None:
    target.parent.mkdir(parents=True, exist_ok=True)
    payload = instance.to_dict()
    with target.open("w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)


def _load_json(source: Path) -> SESInstance:
    with source.open("r", encoding="utf-8") as handle:
        payload = json.load(handle)
    return SESInstance.from_dict(payload)
