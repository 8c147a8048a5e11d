"""Exact user equivalence classes of an instance's interest structure.

Users whose µ rows, σ rows and competing-interest rows are all identical are
indistinguishable to every scoring kernel under *every* schedule: identical µ
rows imply identical per-interval scheduled sums forever, so the per-user
attendance terms of equivalent users coincide element for element.  Mining
the classes once per instance therefore yields a decomposition that never
needs refreshing as the schedule grows — and the scoring engine keeps it on
the instance (:func:`repro.core.scoring.instance_structure`), so every
engine and scheduler run on one instance shares a single mine.  Only a change
of µ moves the classes: :func:`update_structure` carries a structure through
a journal of µ rewrites (changed cells, appended event columns) exactly, so
a service session mines its instance once and again only after an event is
removed, never on every resolve.

This module is the storage-agnostic, uncached mining primitive: chunked
partition refinement by one byte-wise row sort per event-major row block
(never materialising more than one block, so million-user instances stay
inside the engine's chunk-size memory envelope).  Two consumers share the
memoised result:

* the scoring engine's structural per-interval Φ bound
  (:meth:`~repro.core.scoring.ScoringEngine.interval_score_bound`) — one
  genuine term per pattern instead of one per user;
* the ``blocked`` scoring plan of :mod:`repro.core.blocked`.

:mod:`repro.analysis.blocks` re-exports :class:`InterestStructure` and
:func:`mine_structure` as part of the block-decomposition subsystem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.core.storage import EventRowSource, InterestStore


@dataclass(frozen=True)
class InterestStructure:
    """Exact user equivalence classes of one instance's interest structure.

    Users belong to the same class iff their µ rows, σ rows and
    competing-interest rows are all identical — a property preserved under
    every schedule, so the decomposition is mined once per instance (and
    carried through µ rewrites by :func:`update_structure`).

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
    """Renumber classes by first occurrence and derive the class tables.

    ``labels`` may leave gaps (label values no user carries, as
    :func:`update_structure` does when it empties a class); they are
    compacted away, so the classes are always numbered ``0 .. P - 1``.
    """
    num_users = labels.size
    if num_users == 0:
        empty = np.empty(0, dtype=np.intp)
        return InterestStructure(labels=empty, representatives=empty.copy(), counts=empty.copy())
    num_labels = int(labels.max()) + 1
    first_seen = np.full(num_labels, num_users, dtype=np.intp)
    np.minimum.at(first_seen, labels, np.arange(num_users, dtype=np.intp))
    # Unused labels keep first_seen == |U| and sort last; they get no rank.
    num_classes = int(np.count_nonzero(first_seen < num_users))
    order = np.argsort(first_seen, kind="stable")[:num_classes]
    rank = np.empty(num_labels, dtype=np.intp)
    rank[order] = np.arange(num_classes, dtype=np.intp)
    canonical = rank[labels]
    return InterestStructure(
        labels=canonical,
        representatives=first_seen[order],
        counts=np.bincount(canonical, minlength=num_classes).astype(np.intp),
    )


def user_groups(sigma: np.ndarray, comp: np.ndarray) -> np.ndarray:
    """Group users by their σ and competing-interest rows alone (µ ignored).

    ``sigma`` and ``comp`` are the ``(|U|, |T|)`` static arrays of
    :func:`~repro.core.scoring.build_static_arrays`.  Every class of
    :func:`mine_structure` lies inside one group, so the groups bound where
    :func:`update_structure` looks for a re-placed user's class.  The labels
    are uncanonicalised (only equality between them means anything).
    """
    labels = np.zeros(sigma.shape[0], dtype=np.intp)
    labels = _refine_labels(labels, np.ascontiguousarray(sigma.T))
    return _refine_labels(labels, np.ascontiguousarray(comp.T))


def update_structure(
    structure: InterestStructure,
    journal: Sequence[Tuple[str, object]],
    store: InterestStore,
    groups: np.ndarray,
) -> InterestStructure:
    """The structure after a journal of µ rewrites, updated instead of re-mined.

    ``structure`` is the exact structure of the matrix the journal started
    from; ``store`` is the matrix after it, and ``groups`` the
    :func:`user_groups` of the (unchanged) σ and competing rows.  The
    journal holds ``("entries", [(user, item, value), ...])`` and
    ``("append", column)`` ops; a ``("remove", item)`` op raises
    :class:`ValueError`, because dropping a column can merge classes and
    only a fresh :func:`mine_structure` finds the merges.  The result equals
    ``mine_structure`` on the new matrix:

    * appended columns refine the old labels with one
      :func:`_refine_labels` call, exactly as the miner's next event block
      would;
    * every user an ``entries`` op touched leaves its class and is put back
      by exact µ-row equality (the miner's byte equality with ``-0.0``
      folded into ``0.0``) against one member of each untouched class of
      its group and against the other touched users of its group, or else
      starts a class of its own.  Untouched users keep their rows, so
      their classes stay exact;
    * the labels are compacted and renumbered by first occurrence.

    Only the touched users' rows and their groups' class members are read,
    so on all-distinct users (every group one user) no row is read at all.
    An empty journal returns ``structure`` itself.
    """
    if any(kind == "remove" for kind, _ in journal):
        raise ValueError("a removed column can merge classes: mine the new matrix instead")
    labels = structure.labels
    num_appended = sum(kind == "append" for kind, _ in journal)
    if num_appended:
        num_items = store.num_items
        labels = _refine_labels(labels, store.item_rows(num_items - num_appended, num_items))
    touched = np.unique(
        np.array(
            [user for kind, triples in journal if kind == "entries" for user, _, _ in triples],
            dtype=np.intp,
        )
    )
    if touched.size:
        labels = _replace_users(labels, touched, store, groups)
    elif not num_appended:
        return structure
    return _canonicalise(labels)


def _replace_users(
    labels: np.ndarray, touched: np.ndarray, store: InterestStore, groups: np.ndarray
) -> np.ndarray:
    """``labels`` with each touched user moved to the class its new µ row belongs to.

    The untouched users' labels are exact; one member of each of their
    classes in a touched user's group is a candidate.  The candidates and
    the touched users are refined together, keyed by group and µ row: a
    touched user that lands with a candidate takes its label, and the other
    touched users get one fresh label per refined class.  Two candidates
    never share a refined class (their classes differ in group or µ row).
    """
    untouched = np.ones(labels.size, dtype=bool)
    untouched[touched] = False
    pool = np.flatnonzero(untouched & np.isin(groups, groups[touched]))
    _, first = np.unique(labels[pool], return_index=True)
    candidates = pool[first]
    subset = np.concatenate([candidates, touched])
    refined = groups[subset]
    if np.unique(refined).size < subset.size:
        refined = _refine_labels(refined, store.user_rows(subset).T)
    # Refined class -> its candidate's label, else a label no user has yet.
    target = np.arange(int(refined.max()) + 1, dtype=np.intp) + int(labels.max()) + 1
    target[refined[: candidates.size]] = labels[candidates]
    updated = np.array(labels, copy=True)
    updated[touched] = target[refined[candidates.size :]]
    return updated


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


__all__ = ["InterestStructure", "mine_structure", "update_structure", "user_groups"]
