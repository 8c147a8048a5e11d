"""The ``blocked`` scoring plan: one kernel column per distinct interest pattern.

Users whose µ rows, σ rows and competing-interest rows are all identical
(the equivalence classes of :mod:`repro.core.patterns`) receive identical
per-user terms from every kernel under *every* schedule, so a block
evaluation only needs one genuine column per pattern.  :class:`BlockedPlan`
computes those ``P`` columns and expands them by multiplicity *before* the
per-row reduction.  The expansion reproduces the direct kernel's
``(block, |U|)`` contribution matrix element for element, and the reduction
runs over the same axis of an equally-shaped C-contiguous array, so NumPy's
pairwise summation adds the same values in the same order — scores,
schedules, utilities and counters stay bit-identical to the ``direct``
reference across every storage and chunk size.

The plan reads its kernel inputs in pattern space too.  At bind time each
engine's plan builds one ``(|E|, P)`` matrix of representative µ columns
(cached while ``|E| · P`` fits the chunk memory budget) and serves the
bulk path's event rows from it (:class:`PatternEventRows`), so
after engine construction no score pass densifies a ``(block, |U|)`` store
block again; the engine's Φ bound shares the same matrix.  The matrix (up
to the full chunk budget in size) stays per engine; only the O(|U|)
structure is kept on the instance.  Past the budget the same row source
streams each store block and gathers the representative columns.

:mod:`repro.core.execution` imports this module at its bottom, once every
name :mod:`repro.core.scoring` takes from it is defined; ``scoring`` is
therefore reached as a module and read at bind time only.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

from repro.core import scoring
from repro.core.errors import SolverError
from repro.core.execution import ScoringPlan, _guarded_divide, direct_block_scores
from repro.core.patterns import InterestStructure
from repro.core.storage import EventRowSource

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.core.scoring import ScoringEngine


class PatternEventRows(EventRowSource):
    """Pattern-space event rows: ``(block, P)`` representative µ and value·µ blocks.

    Serves µ from the cached ``(|E|, P)`` pattern matrix when one exists;
    otherwise (``pattern_mu`` is ``None``, the matrix is over its memory
    budget) streams each block from the full-row source and gathers the
    representative columns.  value·µ is computed per block as
    ``values[:, None] * mu_rows`` — the elementwise product
    :class:`~repro.core.storage.StoreEventRows` and the dense precompute
    form, so every element equals the full rows' representative element —
    or, when the full-row source has unit values, the µ block itself.
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

    @property
    def unit_values(self) -> bool:
        return self._rows.unit_values

    def block(self, start: int, stop: int) -> Tuple[np.ndarray, np.ndarray]:
        if self._pattern_mu is not None:
            mu_rows = self._pattern_mu[start:stop]
        else:
            mu_rows = self._rows.block(start, stop)[0][:, self._representatives]
        if self._rows.unit_values:
            return mu_rows, mu_rows
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
    bulk path's event rows (:class:`PatternEventRows`), so
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
    are read-only after :meth:`prepare`, so concurrent :meth:`batch_block`
    calls on one engine share them safely; only the stats counters take a
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
            event_rows = scoring.build_event_rows(engine._store, engine._values)
        structure = scoring.instance_structure(
            engine.instance, event_rows, engine._sigma, engine._comp, engine.chunk_size
        )
        self._structure = structure
        self._degenerate = structure.num_classes >= structure.num_users
        if self._degenerate:
            return
        self._pattern_mu = scoring.build_pattern_matrix(event_rows, structure, engine.chunk_size)
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
        """Pattern-space rows for the bulk path (``None`` when degenerate)."""
        return self._rows

    def batch_block(
        self, interval_index: int, mu_rows: np.ndarray, value_mu_rows: np.ndarray
    ) -> np.ndarray:
        engine = self.engine
        if self._degenerate:
            # No duplicate patterns: the expansion would be an identity
            # permutation, so run the reference kernel on the full rows.
            return direct_block_scores(engine, interval_index, mu_rows, value_mu_rows)
        structure = self._structure
        reps = structure.representatives
        # Reference arithmetic on the (block, P) pattern rows — the same
        # per-element operation order as score_block_kernel, on columns
        # whose values equal every member user's column.  Under unit values
        # V + value·µ is S + µ bit for bit, so one sum feeds both sides.
        summed = engine._scheduled_interest[interval_index][reps] + mu_rows
        if value_mu_rows is mu_rows:
            numerator = engine._sigma[reps, interval_index] * summed
        else:
            numerator = engine._sigma[reps, interval_index] * (
                engine._scheduled_value_interest[interval_index][reps] + value_mu_rows
            )
        denominator = engine._comp[reps, interval_index] + summed
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


__all__ = ["BlockedPlan", "PatternEventRows"]
