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

The plan reads its kernel inputs in pattern space too.  The scoring engine
owns the instance's structure and its ``(|E|, P)`` matrix of representative
µ columns (cached while ``|E| · P`` fits the chunk memory budget), shares
the matrix with its Φ bound, and hands the plan a :class:`PatternEventRows`
source over it, so after engine construction no score pass densifies a
``(block, |U|)`` store block again.  Past the budget the same row source
streams each store block and gathers the representative columns.  The
engine builds a plan only when some class has two users or more; on
all-distinct users it scores on the direct path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.core.execution import _guarded_divide
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


class BlockedPlan:
    """Blocked plan: one kernel column per distinct interest pattern, expanded by multiplicity.

    Built by the scoring engine from the instance's equivalence classes
    (``structure``) and the pattern-space row source of the bulk path
    (``rows``).  :meth:`batch_block` receives ``(block, P)`` pattern rows
    from that source — served from the engine's cached pattern matrix, or
    streamed from the store and gathered per block past the budget — runs
    the reference arithmetic on them against the engine's state and expands
    the per-pattern contributions back to ``(block, |U|)`` before the
    per-row reduction.  Every element of the expanded matrix equals the
    direct kernel's element (equivalent users have identical static *and*
    scheduled per-user state), and the reduction runs over the same axis of
    an equally-shaped contiguous array, so the scores are bit-identical —
    the plan only changes how much genuine arithmetic and storage traffic
    the block costs.  The plan holds no mutable state, so concurrent
    :meth:`batch_block` calls on one engine share it safely.
    """

    def __init__(self, structure: InterestStructure, rows: PatternEventRows) -> None:
        self.structure = structure
        self.rows = rows

    def batch_block(
        self,
        engine: ScoringEngine,
        interval_index: int,
        mu_rows: np.ndarray,
        value_mu_rows: np.ndarray,
    ) -> np.ndarray:
        """Scores of one block of pattern rows at one interval (Eq. 4).

        ``value_mu_rows`` is ``mu_rows`` itself under unit event values.
        """
        structure = self.structure
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
        return expanded.sum(axis=1) - engine._interval_utility[interval_index]


__all__ = ["BlockedPlan", "PatternEventRows"]
