"""ALG — the greedy algorithm of the original SES paper (§3.1).

ALG is the existing solution the reproduced paper improves upon.  It first
computes the assignment score of every (event, interval) pair, then repeats
``k`` times:

1. scan **all** remaining assignments and select the valid one with the
   largest score (ties broken by event index, then interval index);
2. remove every assignment of the selected event;
3. recompute ("update") the score of every remaining assignment of the
   selected interval, dropping those that became infeasible.

Step 1 examines the full assignment table on every iteration and step 3
recomputes an interval's scores from scratch — the two costs INC/HOR/HOR-I
are designed to avoid.  The counters record exactly those costs (every
remaining assignment is one examined entry per scan, every refreshed pair one
score computation): they are the paper's cost model.

The implementation runs that scan as array operations over the ``(|E|, |T|)``
score grid.  An ``alive`` mask holds the remaining assignments (including
ones that are infeasible but not yet dropped, which the scan still examines),
a ``feasible`` mask holds :meth:`~repro.core.constraints.ConstraintChecker.feasible_events`
per interval, and one ``argmax`` over the masked grid picks the selection: the
first maximum in row-major order is the library tie-break.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import BaseScheduler
from repro.core.schedule import Schedule


class AlgScheduler(BaseScheduler):
    """The prior-work greedy algorithm (referred to as ALG in the paper)."""

    name = "ALG"

    def _run(self, k: int) -> Schedule:
        engine = self.engine
        checker = self.checker
        counter = self.counter
        schedule = self._start_schedule()
        num_intervals = self.instance.num_intervals

        # Initial generation: the full |E|×|T| score matrix in one bulk call,
        # copied because the scan writes refreshed scores into it.
        grid = np.array(self._initial_score_grid(), dtype=np.float64)
        alive = np.ones(grid.shape, dtype=bool)
        alive[list(schedule.scheduled_events())] = False
        feasible = np.column_stack([checker.feasible_events(t) for t in range(num_intervals)])
        remaining = int(alive.sum())

        iterations = 0
        while len(schedule) < k:
            iterations += 1
            # Examine every remaining assignment to find the top valid one.
            counter.count_examined(remaining)
            valid = alive & feasible
            if not valid.any():
                break
            best = int(np.argmax(np.where(valid, grid, -np.inf)))
            event_index, interval_index = divmod(best, num_intervals)
            self._select_assignment(
                schedule, event_index, interval_index, float(grid[event_index, interval_index])
            )

            # Drop every assignment that refers to the selected event.
            remaining -= int(alive[event_index].sum())
            alive[event_index] = False

            # Update: recompute the scores of the selected interval from scratch
            # (one batched evaluation of every surviving event of the interval).
            stale_events = np.flatnonzero(alive[:, interval_index])
            counter.count_examined(len(stale_events))
            feasible[:, interval_index] = checker.feasible_events(interval_index)
            keep = feasible[stale_events, interval_index]
            alive[stale_events[~keep], interval_index] = False
            remaining -= len(stale_events) - int(keep.sum())
            refresh_events = stale_events[keep]
            if len(refresh_events):
                grid[refresh_events, interval_index] = engine.interval_scores(
                    interval_index, refresh_events
                )

        self.note("iterations", iterations)
        return schedule
