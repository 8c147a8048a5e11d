"""TOP — the "top-k scores, no updates" baseline (§4.1).

TOP computes every assignment score once (against the empty schedule), sorts
them, and greedily takes the k best valid assignments without ever updating a
score.  It therefore performs the minimum possible number of score
computations but ignores the cannibalisation between events placed in the
same interval, which is why its utility is far below the greedy methods in
the paper's plots (it tends to pile "popular" events onto a few intervals).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import BaseScheduler, Validity
from repro.core.schedule import Schedule

#: Sorted assignments tested for validity per array pass of the selection
#: scan; doubled after every pass without a valid one.
SCAN_WINDOW = 256


class TopScheduler(BaseScheduler):
    """The TOP baseline: schedule the k assignments with the largest initial scores."""

    name = "TOP"

    def _run(self, k: int) -> Schedule:
        checker = self.checker
        counter = self.counter
        schedule = self._start_schedule()

        # Every assignment in (−score, event, interval) order: a stable sort of
        # the event-major flattened grid.
        score_grid = self._initial_score_grid()
        order = np.argsort(-np.asarray(score_grid).ravel(), kind="stable")
        events, intervals = np.divmod(order, self.instance.num_intervals)
        validity = Validity(checker, self.instance.num_intervals, schedule.scheduled_events())

        position = 0
        span = SCAN_WINDOW
        while len(schedule) < k and position < order.size:
            window = slice(position, position + span)
            hits = np.flatnonzero(validity.mask[intervals[window], events[window]])
            if not hits.size:
                counter.count_examined(int(order[window].size))
                position += span
                span *= 2
                continue
            position += int(hits[0])
            counter.count_examined(int(hits[0]) + 1)
            event_index, interval_index = int(events[position]), int(intervals[position])
            schedule.add(event_index, interval_index)
            checker.commit(event_index, interval_index)
            validity.commit(event_index, interval_index)
            counter.count_selection()
            position += 1
        return schedule
