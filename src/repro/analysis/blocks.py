"""Interest-pattern block decomposition of an instance (structure mining).

The user–event interest matrix of an EBSN instance is a bipartite graph, and
real instances (and our generators) are full of users with *identical*
interest rows — communities that share one candidate set and one interest
pattern.  Every scoring kernel in the library computes per-user attendance
terms, so duplicate rows mean duplicate arithmetic: if ``|U|`` users collapse
to ``P`` distinct patterns, a block evaluation only needs ``P`` genuine
columns and a cheap expansion.

This module is the block-decomposition subsystem.
:func:`mine_interest_structure` finds the exact user equivalence classes —
users whose µ rows, σ rows and competing-interest rows are all identical —
via the chunked lexsort partition refinement of :mod:`repro.core.patterns`
(re-exported here).  Equivalent users receive identical per-user terms from
every kernel under *every* schedule: identical µ rows imply identical
scheduled sums forever, so the classes never need re-mining as the schedule
grows.  :func:`mine_interest_structure` always mines afresh; the engine and
the plan below read the classes through
:func:`repro.core.scoring.instance_structure`, which mines each instance at
most once and keeps the result on the instance, so the schedulers of one
instance share a single mine.

The structure feeds two consumers: the engine's structural per-interval Φ
bound (:meth:`~repro.core.scoring.ScoringEngine.interval_score_bound`, one
genuine term per pattern), and the ``blocked`` scoring plan below
(:class:`BlockedPlan`, registered with
:func:`~repro.core.execution.register_plan` so it is selectable everywhere
as ``plan="blocked"``): one genuine kernel evaluation per distinct pattern,
expanded by multiplicity *before* the per-row reduction.  The expansion
reproduces the direct kernel's ``(block, |U|)`` contribution matrix element
for element, and the reduction runs over the same axis of an equally-shaped
C-contiguous array, so NumPy's pairwise summation adds the same values in
the same order — scores, schedules, utilities and counters stay
bit-identical to the ``direct`` reference across every backend × storage
combination.

The plan reads its kernel inputs in pattern space too.  At bind time each
engine's plan builds one ``(|E|, P)`` matrix of representative µ columns
(cached while ``|E| · P`` fits the chunk memory budget) and serves the
in-process bulk path's event rows from it (:class:`PatternEventRows`), so
after engine construction no score pass densifies a ``(block, |U|)`` store
block again; the engine's Φ bound shares the same matrix.  The matrix (up
to the full chunk budget in size) stays per engine; only the O(|U|)
structure is kept on the instance.  Past the budget the same row
source streams each store block and gathers the representative columns.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core import execution
from repro.core.errors import SolverError
from repro.core.execution import ScoringPlan, _guarded_divide, resolve_chunk_size
from repro.core.instance import SESInstance
from repro.core.patterns import InterestStructure, mine_structure
from repro.core.scoring import (
    ScoringEngine,
    build_event_rows,
    build_pattern_matrix,
    build_static_arrays,
    instance_structure,
)
from repro.core.storage import EventRowSource


# --------------------------------------------------------------------------- #
# Equivalence-class mining (instance-level façade over repro.core.patterns)
# --------------------------------------------------------------------------- #
def mine_interest_structure(
    instance: SESInstance, *, chunk_size: Optional[int] = None
) -> InterestStructure:
    """Mine the exact user equivalence classes of one instance, afresh.

    Streams the interest matrix event block by event block (each block at
    most ``chunk_size`` events — ``None`` derives the engine's default from
    the memory budget), then refines by the σ and competing-interest rows.
    Works unchanged over every registered storage: the event-row source
    densifies sparse and mmap stores one block at a time.  Never reads or
    fills the instance's memo (:func:`~repro.core.scoring.instance_structure`),
    so every call really mines with the ``chunk_size`` it is given.
    """
    comp, sigma, values, _ = build_static_arrays(instance)
    event_rows = build_event_rows(instance.interest.store, values)
    chunk = resolve_chunk_size(chunk_size, instance.num_users)
    return mine_structure(event_rows, sigma, comp, chunk)


# --------------------------------------------------------------------------- #
# The blocked scoring plan
# --------------------------------------------------------------------------- #
class PatternEventRows(EventRowSource):
    """Pattern-space event rows: ``(block, P)`` representative µ and value·µ blocks.

    Serves µ from the cached ``(|E|, P)`` pattern matrix when one exists;
    otherwise (``pattern_mu`` is ``None``, the matrix is over its memory
    budget) streams each block from the full-row source and gathers the
    representative columns.  value·µ is computed per block as
    ``values[:, None] * mu_rows`` — the elementwise product
    :class:`~repro.core.storage.StoreEventRows` and the dense precompute
    form, so every element equals the full rows' representative element.
    """

    __slots__ = ("_pattern_mu", "_rows", "_representatives", "_event_values")

    def __init__(
        self,
        pattern_mu: Optional[np.ndarray],
        rows: EventRowSource,
        representatives: np.ndarray,
        event_values: np.ndarray,
    ) -> None:
        self._pattern_mu = pattern_mu
        self._rows = rows
        self._representatives = representatives
        self._event_values = np.asarray(event_values, dtype=np.float64)

    @property
    def num_rows(self) -> int:
        return int(self._event_values.shape[0])

    def block(self, start: int, stop: int) -> Tuple[np.ndarray, np.ndarray]:
        if self._pattern_mu is not None:
            mu_rows = self._pattern_mu[start:stop]
        else:
            mu_rows = self._rows.block(start, stop)[0][:, self._representatives]
        return mu_rows, self._event_values[start:stop, np.newaxis] * mu_rows

    def select(self, indices: np.ndarray) -> "PatternEventRows":
        if self._pattern_mu is not None:
            # A (selection, P) copy: the full rows are never touched.
            return PatternEventRows(
                self._pattern_mu[indices],
                self._rows,
                self._representatives,
                self._event_values[indices],
            )
        return PatternEventRows(
            None,
            self._rows.select(indices),
            self._representatives,
            self._event_values[indices],
        )


class BlockedPlan(ScoringPlan):
    """Blocked plan: one kernel column per distinct interest pattern, expanded by multiplicity.

    :meth:`prepare` takes the instance's equivalence classes at engine bind
    time (:func:`~repro.core.scoring.instance_structure`: mined by the first
    engine on the instance, kept on it for the rest) and builds the engine's
    ``(|E|, P)`` pattern matrix of representative µ columns
    (:func:`~repro.core.scoring.build_pattern_matrix`; cached only while
    ``|E| · P`` fits the chunk memory budget).  The plan supplies the
    in-process bulk path's event rows (:class:`PatternEventRows`), so
    :meth:`batch_block` receives ``(block, P)`` pattern rows — served from
    the cached matrix, or streamed from the store and gathered per block
    past the budget — runs the reference arithmetic on them and expands the
    per-pattern contributions back to ``(block, |U|)`` before the per-row
    reduction.  Every element of the expanded matrix equals the direct
    kernel's element (equivalent users have identical static *and*
    scheduled per-user state), and the reduction runs over the same axis of
    an equally-shaped contiguous array, so the scores are bit-identical —
    the plan only changes how much genuine arithmetic and storage traffic
    the block costs.  On instances with no duplicate patterns the plan
    detects the degenerate decomposition, supplies no rows and falls back
    to the direct kernel.

    Thread-safe by construction: the mined arrays and the pattern matrix
    are read-only after :meth:`prepare`, so the ``parallel`` backend can
    call :meth:`batch_block` concurrently; only the stats counters take a
    lock.
    """

    name = "blocked"

    def __init__(self) -> None:
        super().__init__()
        self._structure: Optional[InterestStructure] = None
        self._pattern_mu: Optional[np.ndarray] = None
        self._rows: Optional[PatternEventRows] = None
        self._degenerate = False
        self._stats_lock = threading.Lock()
        self._blocks_evaluated = 0
        self._columns_saved = 0

    def prepare(self, engine: ScoringEngine) -> None:
        """Take the instance's equivalence classes and build the pattern-space row source."""
        event_rows = engine._event_rows
        if event_rows is None:
            event_rows = build_event_rows(engine._store, engine._values)
        structure = instance_structure(
            engine.instance, event_rows, engine._sigma, engine._comp, engine.chunk_size
        )
        self._structure = structure
        self._degenerate = structure.num_classes >= structure.num_users
        if self._degenerate:
            return
        self._pattern_mu = build_pattern_matrix(event_rows, structure, engine.chunk_size)
        self._rows = PatternEventRows(
            self._pattern_mu, event_rows, structure.representatives, engine._values
        )

    @property
    def structure(self) -> InterestStructure:
        """The mined decomposition (available after the plan is bound)."""
        if self._structure is None:
            raise SolverError("the blocked plan has not been bound to an engine yet")
        return self._structure

    def pattern_matrix(self) -> Optional[np.ndarray]:
        """Share the cached pattern matrix with the engine's structural Φ bound."""
        return self._pattern_mu

    def event_rows(self) -> Optional[PatternEventRows]:
        """Pattern-space rows for the in-process bulk path (``None`` when degenerate)."""
        return self._rows

    def batch_block(
        self, interval_index: int, mu_rows: np.ndarray, value_mu_rows: np.ndarray
    ) -> np.ndarray:
        engine = self.engine
        if self._degenerate:
            # No duplicate patterns: the expansion would be an identity
            # permutation, so run the reference kernel on the full rows.
            return execution.score_block_kernel(
                mu_rows,
                value_mu_rows,
                engine._comp[:, interval_index],
                engine._sigma[:, interval_index],
                engine._scheduled_interest[interval_index],
                engine._scheduled_value_interest[interval_index],
                engine._interval_utility[interval_index],
            )
        structure = self._structure
        reps = structure.representatives
        # Reference arithmetic on the (block, P) pattern rows — the same
        # per-element operation order as score_block_kernel, on columns
        # whose values equal every member user's column.
        denominator = engine._comp[reps, interval_index] + (
            engine._scheduled_interest[interval_index][reps] + mu_rows
        )
        numerator = engine._sigma[reps, interval_index] * (
            engine._scheduled_value_interest[interval_index][reps] + value_mu_rows
        )
        contributions = _guarded_divide(numerator, denominator)
        # Expand by multiplicity *before* the reduction: the (block, |U|)
        # matrix equals the direct kernel's element for element.  take()
        # rather than contributions[:, labels]: advanced indexing on axis 1
        # returns an F-contiguous view-shaped copy, and NumPy's pairwise
        # summation uses a different reduction tree over a strided axis —
        # the C-contiguous gather keeps the axis-1 sum adding the same
        # values in the same order as the direct kernel.
        expanded = contributions.take(structure.labels, axis=1)
        scores = expanded.sum(axis=1) - engine._interval_utility[interval_index]
        with self._stats_lock:
            self._blocks_evaluated += 1
            self._columns_saved += mu_rows.shape[0] * (
                structure.num_users - structure.num_classes
            )
        return scores

    def stats(self) -> Dict[str, object]:
        """Structure counters plus cumulative evaluation savings."""
        if self._structure is None:
            return {}
        collected = self._structure.stats()
        with self._stats_lock:
            collected["blocks_evaluated"] = self._blocks_evaluated
            collected["columns_saved"] = self._columns_saved
        return collected


execution.register_plan(BlockedPlan)
# Registered by the library itself: protect it from unregister_plan like the
# other built-ins.
execution._BUILTIN_PLAN_NAMES.add(BlockedPlan.name)


__all__ = [
    "BlockedPlan",
    "InterestStructure",
    "PatternEventRows",
    "mine_interest_structure",
    "mine_structure",
]
