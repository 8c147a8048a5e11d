"""INC — the Incremental Updating algorithm (paper §3.2).

INC produces exactly the same schedule as ALG (Proposition 3) while
performing only a fraction of ALG's score recomputations and examining far
fewer assignments.  It rests on two ideas:

* **Incremental updating** (§3.2.1).  After a selection, the assignments of
  the selected interval keep their old scores and are only flagged as *not
  updated*.  A stale score can only over-estimate the true score
  (Proposition 1: adding events to an interval never increases the marginal
  gain of another event), so before the next selection only the stale
  assignments whose stale score is at least Φ — the best exact, valid score
  currently known — need to be recomputed.  Proposition 1 holds when every
  event value is equal; otherwise every stale entry is refreshed (see
  :meth:`~repro.core.scoring.ScoringEngine.score_noise_tolerance`).

* **Interval-based assignment organisation** (§3.2.2).  Assignments are kept
  in per-interval lists sorted by (possibly stale) score, and each interval
  carries ``M_t``, its best *updated and valid* assignment.  The bound Φ is
  the best ``M_t``; intervals whose top score is below Φ are skipped without
  touching their assignments, which is what shrinks the search space
  (Fig. 10b).

The tie-break (score, then event index, then interval index) is shared with
ALG so the two algorithms select identical assignments even under ties.

The per-interval lists are array-backed
(:class:`~repro.algorithms.base.IntervalHeads`): each interval holds its
scores, events and updated flags in ``(−score, event)`` order, validity is
one lookup in a shared mask, and ``M_t`` is the first updated, valid entry
found with one ``argmax``.  The refresh walk
(:meth:`~repro.algorithms.base.BaseScheduler._refresh_walk`) fetches the
stale rows above the running Φ through the engine's bulk
:meth:`~repro.core.scoring.ScoringEngine.refresh_scores` API in Φ-cut
blocks and finds the walk's stop with a running maximum; it counts one
update computation per consumed score and derives the examined entries from
the stop position, so schedules, utilities and counters stay identical to
the one-entry-at-a-time walk under every backend.

On top of the paper's stale-score bound, the engine offers a *structural*
per-interval upper bound
(:meth:`~repro.core.scoring.ScoringEngine.interval_score_bound`): a sound
cap on any fresh marginal score in the interval, derived from the interest
structure rather than from previously computed scores.  It is evaluated in
class space — one gemv of the ``(|E|, P)`` pattern matrix against a
per-class slope, plus a clip of the few classes whose gain cap an event can
reach — so an evaluation costs O(|E|·P) and no per-user pass.  When an interval
passes the stale-head check but its structural bound is still safely below
Φ, no entry in it can become the argmax and the whole refresh walk is
skipped.  The bound is engine-side and identical across scoring backends,
storage tiers and scoring plans, so schedules, utilities, scores and
counter totals remain bit-identical across those axes — the bound only
lowers the number of score recomputations performed.  With unequal event
values the score tolerance is infinite, no skip can fire, and the bound is
never evaluated (nor the interest structure mined for it).  Construct the
scheduler with ``use_interval_bounds=False`` to disable the structural
check (the benchmark baseline).
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.algorithms.base import (
    BaseScheduler,
    IntervalHeads,
    best_index,
    better_candidate,
    first_hit,
)
from repro.core.schedule import Schedule

Candidate = Tuple[float, int, int]


class IncScheduler(BaseScheduler):
    """Incremental Updating algorithm (INC); same output as ALG, fewer computations."""

    name = "INC"

    def __init__(self, *args, use_interval_bounds: bool = True, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: Apply the engine's structural per-interval score bound as a
        #: second-chance interval skip.  Sound, so the schedule is unchanged;
        #: disabling it only serves as the benchmark baseline.
        self._use_interval_bounds = bool(use_interval_bounds)

    def _run(self, k: int) -> Schedule:
        instance = self.instance
        engine = self.engine
        counter = self.counter
        schedule = self._start_schedule()

        num_intervals = instance.num_intervals

        # ------------------------------------------------------------------
        # Initialisation: generate all assignments (one bulk score matrix),
        # grouped and sorted per interval.
        # ------------------------------------------------------------------
        heads = self._interval_heads(schedule)

        # has_stale[i] — interval i contains at least one not-updated assignment.
        has_stale = np.zeros(num_intervals, dtype=bool)
        # top_score/top_event[i] — best *updated and valid* candidate of
        # interval i (M_t in the paper); top_event -1 means none.
        top_score = np.zeros(num_intervals)
        top_event = np.full(num_intervals, -1, dtype=np.intp)
        for interval_index in range(num_intervals):
            self._find_top_updated_valid(heads, interval_index, top_score, top_event)
        interval_range = np.arange(num_intervals)

        iterations = 0
        while len(schedule) < k:
            iterations += 1

            # Bound Φ: the best exact, valid candidate currently known.
            counter.count_examined(num_intervals)
            best = best_index(top_score, top_event, top_event >= 0)
            phi: Optional[Candidate] = (
                None if best < 0 else (float(top_score[best]), int(top_event[best]), best)
            )

            # Incremental updates: only stale assignments that could beat Φ.
            for interval_index in np.flatnonzero(has_stale).tolist():
                if not heads.size(interval_index):
                    has_stale[interval_index] = False
                    continue
                counter.count_examined()  # peek at the interval head (M_t check)
                tolerance = engine.score_noise_tolerance(interval_index)
                if phi is not None and heads.scores[interval_index][0] < phi[0] - tolerance:
                    # Every stale score in this interval is below Φ by more
                    # than the floating-point noise of a score, hence so is
                    # every true score (Proposition 1): skip the interval.
                    continue
                if (
                    phi is not None
                    and self._use_interval_bounds
                    and tolerance < math.inf
                    and engine.interval_score_bound(interval_index) < phi[0] - 4.0 * tolerance
                ):
                    # Second chance: the structural bound caps every fresh
                    # score in this interval, so even after recomputation no
                    # entry here can beat Φ.  The 4× noise margin guarantees
                    # no tie candidate (within one score's rounding of Φ) can
                    # hide behind the skip, keeping the tie-break — and hence
                    # the schedule — identical.  An infinite tolerance
                    # (unequal event values) puts the cut at −inf, so the
                    # bound is not even evaluated there.
                    counter.bump("phi_bound_interval_skips")
                    continue
                walked = self._refresh_walk(
                    heads, interval_index, None if phi is None else phi[0], stale_stops=False
                )
                if walked is not None:
                    candidate: Candidate = (walked[0], walked[1], interval_index)
                    top: Optional[Candidate] = None
                    if top_event[interval_index] >= 0:
                        top = (top_score[interval_index], top_event[interval_index], interval_index)
                    top = better_candidate(top, candidate)
                    top_score[interval_index], top_event[interval_index] = top[0], top[1]
                    phi = better_candidate(phi, candidate)
                has_stale[interval_index] = not heads.updated[interval_index].all()

            if phi is None:
                break  # No valid assignment remains anywhere.

            score, event_index, interval_index = phi
            self._select_assignment(schedule, event_index, interval_index, score)
            heads.validity.commit(event_index, interval_index)

            # The selected interval's scores all become stale.
            heads.drop_event(interval_index, event_index)
            has_stale[interval_index] = heads.size(interval_index) > 0
            top_event[interval_index] = -1

            # Other intervals: the selected event's assignments become invalid.
            # Only the interval tops that referenced it must be recomputed now;
            # the list entries themselves are dropped lazily.
            for other_interval in interval_range[top_event == event_index].tolist():
                self._find_top_updated_valid(heads, other_interval, top_score, top_event)

        self.note("iterations", iterations)
        return schedule

    # ------------------------------------------------------------------ #
    # Internal helpers
    # ------------------------------------------------------------------ #
    def _find_top_updated_valid(
        self,
        heads: IntervalHeads,
        interval_index: int,
        top_score: np.ndarray,
        top_event: np.ndarray,
    ) -> None:
        """First updated & valid entry of a score-sorted list (``getTopAssgn``).

        One mask over the list; the walk's examined count is the hit's
        position plus one (the whole list when nothing qualifies).
        """
        position, examined = first_hit(
            heads.updated[interval_index] & heads.valid(interval_index)
        )
        self.counter.count_examined(examined)
        if position < 0:
            top_event[interval_index] = -1
        else:
            top_score[interval_index] = heads.scores[interval_index][position]
            top_event[interval_index] = heads.events[interval_index][position]
