"""HOR — the Horizontal Assignment algorithm (paper §3.3).

HOR trades a (usually negligible) loss of solution quality for a drastic
reduction in score updates.  It works in *rounds*: at the beginning of a
round it computes the score of every currently valid assignment, and during
the round it selects at most **one** assignment per interval — the interval's
top assignment, processed in globally decreasing score order (the *horizontal
selection policy*).  Because an interval receives at most one new event per
round, the scores computed at the beginning of the round remain exact for
every interval that has not yet been selected into, so no updates are needed
until the next round.

When ``k ≤ |T|`` a single round suffices and HOR performs only the initial
``|E|·|T|`` score computations (Proposition 4).  The paper's Fig. 5–9 show
HOR matching ALG's utility in more than 70 % of runs, with an average
difference of 0.008 % otherwise.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import BaseScheduler, IntervalHeads, best_index, first_hit
from repro.core.schedule import Schedule


class HorScheduler(BaseScheduler):
    """Horizontal Assignment algorithm (HOR)."""

    name = "HOR"

    def _run(self, k: int) -> Schedule:
        instance = self.instance
        counter = self.counter
        schedule = self._start_schedule()

        num_intervals = instance.num_intervals
        rounds = 0

        while len(schedule) < k:
            rounds += 1
            initial_round = rounds == 1

            # Recompute the scores of every valid assignment for this round
            # (one batched evaluation per interval over its feasible events).
            heads = self._interval_heads(schedule, initial=initial_round, only_valid=True)
            unscheduled = heads.validity.unscheduled

            # M: per-interval cursor into the sorted list (the interval's current top).
            cursors = np.zeros(num_intervals, dtype=np.intp)
            top_score = np.zeros(num_intervals)
            top_event = np.full(num_intervals, -1, dtype=np.intp)
            for interval_index in range(num_intervals):
                if heads.size(interval_index):
                    top_score[interval_index] = heads.scores[interval_index][0]
                    top_event[interval_index] = heads.events[interval_index][0]
            # Intervals that already received an event this round are closed.
            closed = np.zeros(num_intervals, dtype=bool)

            selected_this_round = 0
            while len(schedule) < k:
                # Only an open interval whose top event was just scheduled
                # elsewhere moves its cursor; every other top is unchanged.
                taken = ~closed & (top_event >= 0) & ~unscheduled[top_event]
                for interval_index in np.flatnonzero(taken).tolist():
                    self._advance_cursor(heads, cursors, interval_index, top_score, top_event)
                has_top = ~closed & (top_event >= 0)
                counter.count_examined(int(np.count_nonzero(has_top)))
                best = best_index(top_score, top_event, has_top)
                if best < 0:
                    break
                event_index = int(top_event[best])
                self._select_assignment(schedule, event_index, best, float(top_score[best]))
                heads.validity.commit(event_index, best)
                closed[best] = True
                selected_this_round += 1

            if selected_this_round == 0:
                break  # No valid assignment remains: a further round would not help.

        self.note("rounds", rounds)
        return schedule

    def _advance_cursor(
        self,
        heads: IntervalHeads,
        cursors: np.ndarray,
        interval_index: int,
        top_score: np.ndarray,
        top_event: np.ndarray,
    ) -> None:
        """Move the interval's cursor past entries whose event got scheduled.

        Entries were generated as feasible at the start of the round and the
        interval has not received a new event since (otherwise it would be
        closed), so only the "event already scheduled" condition can
        invalidate them mid-round.  Each skipped entry counts as examined.
        """
        start = int(cursors[interval_index])
        events = heads.events[interval_index][start:]
        offset, _ = first_hit(heads.validity.unscheduled[events])
        skipped = events.size if offset < 0 else offset
        self.counter.count_examined(skipped)
        cursors[interval_index] = start + skipped
        if offset < 0:
            top_event[interval_index] = -1
        else:
            top_score[interval_index] = heads.scores[interval_index][start + offset]
            top_event[interval_index] = events[offset]
