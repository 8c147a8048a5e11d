"""Exact user equivalence classes of an instance's interest structure.

Users whose µ rows, σ rows and competing-interest rows are all identical are
indistinguishable to every scoring kernel under *every* schedule: identical µ
rows imply identical per-interval scheduled sums forever, so the per-user
attendance terms of equivalent users coincide element for element.  Mining
the classes once per instance therefore yields a decomposition that never
needs refreshing as the schedule grows — and the scoring engine keeps it on
the instance (:func:`repro.core.scoring.instance_structure`), so every
engine and scheduler run on one instance shares a single mine.

This module is the storage-agnostic, uncached mining primitive: chunked
partition refinement by one byte-wise row sort per event-major row block
(never materialising more than one block, so million-user instances stay
inside the engine's chunk-size memory envelope).  Two consumers share the
memoised result:

* the scoring engine's structural per-interval Φ bound
  (:meth:`~repro.core.scoring.ScoringEngine.interval_score_bound`) — one
  genuine term per pattern instead of one per user;
* the ``blocked`` scoring plan of :mod:`repro.core.blocked`.

:mod:`repro.analysis.blocks` re-exports this module's public names as part
of the block-decomposition subsystem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.core.storage import EventRowSource


@dataclass(frozen=True)
class InterestStructure:
    """Exact user equivalence classes of one instance's interest structure.

    Users belong to the same class iff their µ rows, σ rows and
    competing-interest rows are all identical — a property preserved under
    every schedule, so the decomposition is mined once per instance.

    Attributes
    ----------
    labels:
        ``labels[u]`` is the class index of user ``u``.  Classes are
        canonically numbered by first occurrence: class 0 contains user 0.
    representatives:
        ``representatives[c]`` is the smallest user index of class ``c``
        (ascending, one per class).
    counts:
        ``counts[c]`` is the class size (multiplicity of the pattern).
    """

    labels: np.ndarray
    representatives: np.ndarray
    counts: np.ndarray

    @property
    def num_users(self) -> int:
        """Users covered by the decomposition."""
        return int(self.labels.size)

    @property
    def num_classes(self) -> int:
        """Distinct interest patterns."""
        return int(self.representatives.size)

    @property
    def duplication_ratio(self) -> float:
        """``|U| / P`` — the expansion factor a blocked kernel exploits."""
        if self.num_classes == 0:
            return 1.0
        return self.num_users / self.num_classes

    def stats(self) -> Dict[str, object]:
        """Flat structure counters (benchmark / plan reporting)."""
        return {
            "num_users": self.num_users,
            "num_classes": self.num_classes,
            "duplication_ratio": self.duplication_ratio,
            "largest_class": int(self.counts.max()) if self.num_classes else 0,
        }


def _refine_labels(labels: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Refine a user partition by a block of per-user value rows.

    ``block`` has one row per attribute (an event's µ column, an interval's σ
    or competing-interest column) and one column per user; two users stay in
    the same class iff they already were *and* agree on every row of the
    block.  Each user becomes one fixed-width byte record — its current label
    followed by its block column — and one byte-wise row sort
    (:func:`numpy.argsort` over the records viewed as ``np.void``) brings
    equal records together; each run of equal records is one refined class.
    The label is part of the record, so refinement only ever splits classes,
    never merges them.  Work and memory per call are proportional to the
    block (the records plus one sorted copy), never to the full attribute
    set.  Byte equality is float equality here because ``+ 0.0`` folds
    ``-0.0`` into ``0.0`` and the instance validators reject NaN.
    """
    if labels.size == 0 or block.shape[0] == 0:
        return labels
    records = np.empty((labels.size, 1 + block.shape[0]), dtype=np.float64)
    records[:, 0] = labels
    np.add(block.T, 0.0, out=records[:, 1:])
    keys = records.view(np.dtype((np.void, records.itemsize * records.shape[1]))).ravel()
    order = np.argsort(keys)
    sorted_keys = keys[order]
    boundary = np.empty(order.size, dtype=bool)
    boundary[0] = True
    boundary[1:] = sorted_keys[1:] != sorted_keys[:-1]
    refined = np.empty_like(labels)
    refined[order] = np.cumsum(boundary) - 1
    return refined


def _canonicalise(labels: np.ndarray) -> InterestStructure:
    """Renumber classes by first occurrence and derive the class tables."""
    num_users = labels.size
    if num_users == 0:
        empty = np.empty(0, dtype=np.intp)
        return InterestStructure(labels=empty, representatives=empty.copy(), counts=empty.copy())
    num_classes = int(labels.max()) + 1
    first_seen = np.full(num_classes, num_users, dtype=np.intp)
    np.minimum.at(first_seen, labels, np.arange(num_users, dtype=np.intp))
    order = np.argsort(first_seen, kind="stable")
    rank = np.empty(num_classes, dtype=np.intp)
    rank[order] = np.arange(num_classes, dtype=np.intp)
    canonical = rank[labels]
    return InterestStructure(
        labels=canonical,
        representatives=first_seen[order],
        counts=np.bincount(canonical, minlength=num_classes).astype(np.intp),
    )


def mine_structure(
    event_rows: EventRowSource,
    sigma: np.ndarray,
    comp: np.ndarray,
    chunk_size: int,
) -> InterestStructure:
    """Mine the equivalence classes from prebuilt kernel inputs.

    ``event_rows`` streams the µ matrix event-major (one block of at most
    ``chunk_size`` events at a time, so the memory envelope matches the bulk
    kernels); ``sigma`` and ``comp`` are the ``(|U|, |T|)`` static arrays of
    :func:`~repro.core.scoring.build_static_arrays`.  The result is
    deterministic and storage-independent: every registered storage densifies
    to the same float values, and first-occurrence canonical numbering does
    not depend on chunk boundaries.
    """
    num_users = sigma.shape[0]
    labels = np.zeros(num_users, dtype=np.intp)
    num_events = event_rows.num_rows
    step = max(1, chunk_size)
    for start in range(0, num_events, step):
        stop = min(start + step, num_events)
        mu_rows, _ = event_rows.block(start, stop)
        labels = _refine_labels(labels, mu_rows)
    # σ and comp are (|U|, |T|) with small |T|: one refinement block each.
    labels = _refine_labels(labels, np.ascontiguousarray(sigma.T))
    labels = _refine_labels(labels, np.ascontiguousarray(comp.T))
    return _canonicalise(labels)


__all__ = ["InterestStructure", "mine_structure"]
