"""Ablation schedulers isolating INC's two schemes (paper §3.2).

INC combines two independent ideas on top of ALG:

1. the **incremental updating scheme** (§3.2.1) — only stale assignments whose
   stale score reaches the bound Φ are recomputed; and
2. the **interval-based assignment organisation** (§3.2.2) — assignments are
   grouped per interval with per-interval tops (``M_t``), so whole intervals
   can be skipped when searching for the next selection.

To quantify what each scheme contributes, this module provides:

* :class:`IncUpdatesOnlyScheduler` (``INC-U``) — incremental, bound-pruned
  updates but **no** interval organisation: every assignment is examined on
  every iteration, exactly like ALG's scan.  Its score-computation count shows
  the saving of scheme 1 alone; its assignments-examined count stays at ALG's
  level.
* :class:`AlgOrganizedScheduler` (``ALG-O``) — ALG's eager updating but with
  the interval organisation used for selection: after the updates, only the
  per-interval top assignments are examined to pick the next selection.  Its
  score-computation count stays at ALG's level; its assignments-examined
  count shows the saving of scheme 2 alone.

Both produce exactly the same schedules as ALG (they only reorganise *when*
scores are recomputed or *which* entries are looked at, never the values the
selection is based on).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.algorithms.base import (
    BaseScheduler,
    IntervalHeads,
    Validity,
    best_index,
    better_candidate,
    first_hit,
)
from repro.core.schedule import Schedule

Candidate = Tuple[float, int, int]


class IncUpdatesOnlyScheduler(BaseScheduler):
    """Incremental (bound-pruned) updates without the interval organisation."""

    name = "INC-U"

    def _run(self, k: int) -> Schedule:
        instance = self.instance
        engine = self.engine
        counter = self.counter
        schedule = self._start_schedule()

        # One flat table of every assignment, event-major (the scan order).
        score_grid = self._initial_score_grid()
        num_intervals = instance.num_intervals
        events, intervals = np.divmod(np.arange(score_grid.size), num_intervals)
        scores = np.array(score_grid, dtype=np.float64).ravel()
        updated = np.ones(scores.size, dtype=bool)
        validity = Validity(self.checker, num_intervals, schedule.scheduled_events())
        # INC's per-interval pruning margin (+inf with unequal event values).
        tolerance = np.array([engine.score_noise_tolerance(t) for t in range(num_intervals)])

        while len(schedule) < k:
            # Pass 1 (full scan, like ALG): the best *exact* valid score is the bound Φ.
            counter.count_examined(scores.size)
            alive = validity.mask[intervals, events]
            events, intervals, scores, updated = (
                events[alive], intervals[alive], scores[alive], updated[alive]
            )
            best = best_index(scores, events, updated)
            phi: Optional[Candidate] = (
                None if best < 0 else (float(scores[best]), int(events[best]), int(intervals[best]))
            )

            # Pass 2: refresh only the stale entries that could beat Φ (a
            # stale score is an upper bound: one below Φ, by more than the
            # noise margin, cannot beat it).
            stale = ~updated
            counter.count_examined(int(np.count_nonzero(stale)))
            if phi is not None:
                stale &= ~(scores < phi[0] - tolerance[intervals])
            refreshed = np.flatnonzero(stale)
            for interval_index in np.unique(intervals[refreshed]).tolist():
                rows = refreshed[intervals[refreshed] == interval_index]
                scores[rows] = engine.interval_scores(interval_index, events[rows])
            updated[refreshed] = True
            best = best_index(scores, events, stale)
            if best >= 0:
                phi = better_candidate(
                    phi, (float(scores[best]), int(events[best]), int(intervals[best]))
                )
            if phi is None:
                break

            score, event_index, interval_index = phi
            self._select_assignment(schedule, event_index, interval_index, score)
            validity.commit(event_index, interval_index)
            remaining = events != event_index
            updated[intervals == interval_index] = False
            events, intervals, scores, updated = (
                events[remaining], intervals[remaining], scores[remaining], updated[remaining]
            )
        return schedule


class AlgOrganizedScheduler(BaseScheduler):
    """ALG's eager updates combined with the interval-based selection organisation."""

    name = "ALG-O"

    def _run(self, k: int) -> Schedule:
        instance = self.instance
        engine = self.engine
        counter = self.counter
        schedule = self._start_schedule()
        num_intervals = instance.num_intervals

        heads = self._interval_heads(schedule)
        # Per-interval top valid entry (M_t); kept exact because updates are eager.
        top_score = np.zeros(num_intervals)
        top_event = np.full(num_intervals, -1, dtype=np.intp)
        for interval_index in range(num_intervals):
            self._interval_top(heads, interval_index, top_score, top_event)
        interval_range = np.arange(num_intervals)

        while len(schedule) < k:
            counter.count_examined(num_intervals)
            best = best_index(top_score, top_event, top_event >= 0)
            if best < 0:
                break
            event_index = int(top_event[best])
            self._select_assignment(schedule, event_index, best, float(top_score[best]))
            heads.validity.commit(event_index, best)

            # Eagerly recompute the selected interval (exactly what ALG does) …
            counter.count_examined(heads.size(best))
            events = np.sort(heads.events[best][heads.valid(best)])
            heads.fill(best, events, engine.interval_scores(best, events))
            self._interval_top(heads, best, top_score, top_event)

            # … and repair the tops that referenced the now-scheduled event.
            repair = (top_event == event_index) & (interval_range != best)
            for other_interval in np.flatnonzero(repair).tolist():
                self._interval_top(heads, other_interval, top_score, top_event)
        return schedule

    def _interval_top(
        self,
        heads: IntervalHeads,
        interval_index: int,
        top_score: np.ndarray,
        top_event: np.ndarray,
    ) -> None:
        position, examined = first_hit(heads.valid(interval_index))
        self.counter.count_examined(examined)
        if position < 0:
            top_event[interval_index] = -1
        else:
            top_score[interval_index] = heads.scores[interval_index][position]
            top_event[interval_index] = heads.events[interval_index][position]


#: Ablation line-up used by the ablation benchmark.
ABLATION_METHODS: Dict[str, type] = {
    IncUpdatesOnlyScheduler.name: IncUpdatesOnlyScheduler,
    AlgOrganizedScheduler.name: AlgOrganizedScheduler,
}
