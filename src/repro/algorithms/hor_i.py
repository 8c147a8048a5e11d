"""HOR-I — Horizontal Assignment with Incremental Updating (paper §3.4).

HOR-I follows HOR's horizontal selection policy (one event per interval per
round) but replaces HOR's full per-round score recomputation with the
incremental, bound-pruned updating scheme of INC:

* the per-interval assignment lists built in the first round are kept across
  rounds (entries are dropped lazily once their event is scheduled or they
  become infeasible);
* when an interval received an event in a previous round its scores are
  stale; at the start of the next round the interval is refreshed by walking
  its score-sorted list and recomputing only the entries whose stale score is
  at least the interval's running bound Φ (stale scores are upper bounds, so
  everything below Φ cannot be the interval's top — Proposition 1, which
  holds when every event value is equal; otherwise every entry is refreshed);
* during the round, when an interval's top must be replaced (its event was
  just scheduled for another interval), the replacement is found lazily: the
  head of the list is recomputed only if it is stale, repeatedly, until an
  exact valid head emerges.

HOR-I always returns exactly the same schedule as HOR (Proposition 6) — the
bound pruning never hides an assignment that HOR would have chosen — while
performing at most as many score computations.  When ``k ≤ |T|`` only one
round is needed and HOR-I degenerates to HOR.

Both incremental paths run on array-backed lists
(:class:`~repro.algorithms.base.IntervalHeads`).  The round-start refresh is
the walk INC uses (:meth:`~repro.algorithms.base.BaseScheduler._refresh_walk`,
stopping only at stale entries).  It starts without a bound, so it fetches
the first valid entry alone and then blocks of stale rows cut at the running
Φ, growing from :data:`~repro.algorithms.base.FIRST_REFRESH_BLOCK` rows.
The lazy head resolution of :meth:`HorIScheduler._interval_top` skips
invalid heads with one ``argmax`` and fetches runs of stale heads the same
way, cut at the best score resolved so far.  Both count one update
computation per score consumed, so schedules, utilities and counters stay
identical to the one-entry-at-a-time walk under every layout.  Within a
round an open interval's top changes only when its event is scheduled
elsewhere, so the selection sweep resolves only those tops again.

Pruning uses the stale scores only, as in the paper.  The engine's
structural per-interval Φ bound
(:meth:`~repro.core.scoring.ScoringEngine.interval_score_bound`), which INC
consults, is not used here: on every instance measured it never saved a
score computation in HOR-I's selection sweep, while evaluating it (and
mining the structure behind it) took over a third of HOR-I's time on an
unstructured instance.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.algorithms.base import (
    FIRST_REFRESH_BLOCK,
    REFRESH_BLOCK_SIZE,
    BaseScheduler,
    IntervalHeads,
    best_index,
)
from repro.core.schedule import Schedule


class HorIScheduler(BaseScheduler):
    """Horizontal Assignment with Incremental Updating (HOR-I)."""

    name = "HOR-I"

    def _run(self, k: int) -> Schedule:
        instance = self.instance
        counter = self.counter
        schedule = self._start_schedule()

        num_intervals = instance.num_intervals
        heads: Optional[IntervalHeads] = None
        # has_stale[i]: interval i contains entries whose score predates its last change.
        has_stale = np.zeros(num_intervals, dtype=bool)
        top_score = np.zeros(num_intervals)
        top_event = np.full(num_intervals, -1, dtype=np.intp)

        rounds = 0
        while len(schedule) < k:
            rounds += 1

            if heads is None:
                # First round: generate and score every valid assignment (like
                # HOR) — one batched evaluation per interval.
                heads = self._interval_heads(schedule, only_valid=True)
            else:
                # Later rounds: refresh only the intervals whose scores went stale,
                # and within them only the entries that can still be the top.
                for interval_index in np.flatnonzero(has_stale).tolist():
                    self._refresh_walk(heads, interval_index, None, stale_stops=True)
                    has_stale[interval_index] = not heads.updated[interval_index].all()
            unscheduled = heads.validity.unscheduled

            # ---------------- selection phase (horizontal policy) ----------------
            closed = np.zeros(num_intervals, dtype=bool)
            # Every interval's top is resolved at the start of a round; later
            # only those whose top event was just scheduled elsewhere change.
            resolve = np.ones(num_intervals, dtype=bool)
            selected_this_round = 0
            while len(schedule) < k:
                open_intervals = ~closed
                for interval_index in np.flatnonzero(open_intervals & resolve).tolist():
                    self._interval_top(heads, interval_index, top_score, top_event)
                # A top resolved earlier this round is still the list head, exact
                # and valid, with no stale entry in its noise window: looking it
                # up again examines one entry.
                has_top = open_intervals & (top_event >= 0)
                counter.count_examined(int(np.count_nonzero(has_top & ~resolve)))
                counter.count_examined(int(np.count_nonzero(has_top)))
                best = best_index(top_score, top_event, has_top)
                if best < 0:
                    break
                event_index = int(top_event[best])
                self._select_assignment(schedule, event_index, best, float(top_score[best]))
                heads.validity.commit(event_index, best)
                closed[best] = True
                selected_this_round += 1
                # The interval's remaining scores now predate its new state.
                heads.drop_event(best, event_index)
                has_stale[best] = heads.size(best) > 0
                resolve = (top_event >= 0) & ~unscheduled[top_event]

            if selected_this_round == 0:
                break

        self.note("rounds", rounds)
        return schedule

    # ------------------------------------------------------------------ #
    # Internal helpers
    # ------------------------------------------------------------------ #
    def _interval_top(
        self,
        heads: IntervalHeads,
        interval_index: int,
        top_score: np.ndarray,
        top_event: np.ndarray,
    ) -> None:
        """Exact, valid top assignment of one interval, resolving stale heads lazily.

        Invalid heads (event already scheduled, or no longer feasible) are
        dropped; a stale head is recomputed and competes at its exact score
        against the deeper entries.  Because stale scores are upper bounds,
        once the head is exact and valid it is guaranteed to be the
        interval's true top — up to the floating-point noise of a score: a
        deeper stale entry whose stale score is within the engine's noise
        bound of the head could still beat it once resolved, so such entries
        are resolved (and compete) before the head is trusted.

        The head is the better of the list's cursor position and the leader,
        the best entry resolved during this call.  Runs of list heads that are
        invalid or stale and that no resolved entry beats are processed as
        one array window: the stale ones are fetched in one Φ-cut block (only
        rows whose stale score reaches the leader's score minus the noise
        bound can be consumed).  The head alone is fetched while
        nothing has been resolved.  The step at a window's end — an exact
        head, a tie with a resolved entry, a noise blocker — is taken one
        entry at a time.  Every consumed score is counted as one update
        computation and every looked-at entry as examined, as in the
        one-entry-at-a-time walk.  Writes the result into
        ``top_score``/``top_event`` (-1: no valid entry left) and merges the
        resolved entries back into the list.
        """
        scores = heads.scores[interval_index]
        events = heads.events[interval_index]
        updated = heads.updated[interval_index]
        size = scores.size
        counter = self.counter
        if not size:
            top_event[interval_index] = -1
            return
        valid = heads.valid(interval_index)
        # Every list head before the first valid entry is dropped unresolved.
        cursor = int(valid.argmax())
        if not valid[cursor]:
            counter.count_examined(size)
            top_event[interval_index] = -1
            heads.drop_front(interval_index, size)
            return
        if updated[cursor] and self._noise_blocker(
            heads, interval_index, valid, cursor + 1, scores[cursor]
        ) < 0:
            # The first valid entry is exact and nothing can beat it.
            counter.count_examined(cursor + 1)
            top_score[interval_index] = scores[cursor]
            top_event[interval_index] = events[cursor]
            heads.drop_front(interval_index, cursor)
            return

        tolerance = self.engine.score_noise_tolerance(interval_index)
        exact = scores.copy()
        fetched = updated.copy()
        resolved = np.zeros(size, dtype=bool)
        # Entries still in the list: blockers resolved out of order leave it.
        listed = np.ones(size, dtype=bool)
        keys = -scores
        leader = -1  # position of the best entry resolved so far
        limit = FIRST_REFRESH_BLOCK
        examined = cursor
        result = -1

        def fetch(positions: np.ndarray) -> None:
            positions = positions[~fetched[positions]]
            if positions.size:
                exact[positions] = self._fetch_scores(interval_index, events[positions])
                fetched[positions] = True

        def resolve(position: int) -> None:
            nonlocal leader
            fetch(np.array([position]))
            resolved[position] = True
            if leader < 0 or beats(position, leader):
                leader = position

        def beats(first: int, second: int) -> bool:
            """Whether resolved entry ``first`` precedes ``second`` in key order."""
            return exact[first] > exact[second] or (
                exact[first] == exact[second] and events[first] < events[second]
            )

        while True:
            while cursor < size and not listed[cursor]:
                cursor += 1
            # Window: list heads before the first exact valid entry (which
            # ends any run) and, once something is resolved, above the Φ cut.
            exact_valid = np.flatnonzero(valid[cursor:] & updated[cursor:] & listed[cursor:])
            end = cursor + int(exact_valid[0]) if exact_valid.size else size
            window = slice(cursor, end)
            stale = cursor + np.flatnonzero(~updated[window] & valid[window] & listed[window])
            if leader < 0:
                # Nothing resolved yet, so no bound: fetch the head alone.
                if stale.size:
                    stale = stale[:1]
                    end = int(stale[0]) + 1
            else:
                end = min(end, int(keys.searchsorted(tolerance - exact[leader], side="right")))
                stale = stale[stale < end]
                if stale.size > limit:
                    stale = stale[:limit]
                    end = int(stale[-1]) + 1
                if stale.size:
                    limit = min(2 * limit, REFRESH_BLOCK_SIZE)
            fetch(stale)
            if end > cursor:
                # Entries of the window processed in bulk: a list head is
                # taken while the best resolved score stays strictly below its
                # stale score (equal scores go to the one-entry step).
                window = slice(cursor, end)
                in_window = listed[window]
                resolvable = in_window & valid[window] & ~updated[window]
                fresh = np.where(resolvable, exact[window], -np.inf)
                first = exact[leader] if leader >= 0 else -np.inf
                best_before = np.maximum.accumulate(np.concatenate(([first], fresh[:-1])))
                taken = np.flatnonzero(best_before >= scores[window])
                reach = cursor + (int(taken[0]) if taken.size else end - cursor)
                if reach > cursor:
                    run = slice(cursor, reach)
                    examined += int(np.count_nonzero(listed[run]))
                    run_stale = cursor + np.flatnonzero(listed[run] & valid[run] & ~updated[run])
                    if run_stale.size:
                        resolved[run_stale] = True
                        best = int(run_stale[best_index(exact[run_stale], events[run_stale])])
                        if leader < 0 or beats(best, leader):
                            leader = best
                    cursor = reach
                    continue
            # One entry at a time: exact key comparison of the list head with
            # the leader, then the per-head rules.
            list_head = cursor < size
            if not list_head and leader < 0:
                break
            from_leader = leader >= 0 and (
                not list_head
                or exact[leader] > scores[cursor]
                or (exact[leader] == scores[cursor] and events[leader] < events[cursor])
            )
            examined += 1
            if not from_leader and not valid[cursor]:
                cursor += 1
                continue
            if from_leader or updated[cursor]:
                head = leader if from_leader else cursor
                blocker = self._noise_blocker(
                    heads,
                    interval_index,
                    valid & listed,
                    cursor if from_leader else cursor + 1,
                    exact[head],
                )
                if blocker >= 0:
                    # Noise guard: a deeper stale, valid entry whose stale
                    # score is within the per-score rounding bound of the
                    # head's exact score could still beat it once resolved.
                    examined += 1
                    listed[blocker] = False
                    resolve(blocker)
                    continue
                result = head
                break
            resolve(cursor)
            cursor += 1

        consumed = int(np.count_nonzero(resolved))
        if consumed:
            counter.count_scores(consumed, initial=False)
        counter.count_examined(examined)
        if result < 0:
            top_event[interval_index] = -1
        else:
            top_score[interval_index] = exact[result]
            top_event[interval_index] = events[result]
        # Entries the cursor passed without resolving them were invalid: dropped.
        keep = resolved | (np.arange(size) >= cursor)
        fresh_scores = np.where(resolved, exact, scores)
        heads.keep(interval_index, keep, fresh_scores, updated | resolved, reorder=consumed > 0)

    def _noise_blocker(
        self,
        heads: IntervalHeads,
        interval_index: int,
        valid: np.ndarray,
        position: int,
        score: float,
    ) -> int:
        """Position of the first stale, valid entry at/after ``position`` scoring ≥ ``cut``.

        ``cut`` is the exact head ``score`` minus the per-score noise bound:
        entries below it cannot beat the head even after resolution, and
        updated entries in the window are exact and sorted behind the head,
        so they cannot either.  Returns -1 when the head is safe.  Pure
        bookkeeping — no counter side effects.
        """
        scores = heads.scores[interval_index]
        cut = score - self.engine.score_noise_tolerance(interval_index)
        if position >= scores.size or scores[position] < cut:
            return -1
        end = int(np.searchsorted(-scores, -cut, side="right"))
        window = slice(position, end)
        blockers = np.flatnonzero(valid[window] & ~heads.updated[interval_index][window])
        return position + int(blockers[0]) if blockers.size else -1
