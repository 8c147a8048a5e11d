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
  everything below Φ cannot be the interval's top);
* during the round, when an interval's top must be replaced (its event was
  just scheduled for another interval), the replacement is found lazily: the
  head of the list is recomputed only if it is stale, repeatedly, until an
  exact valid head emerges.

HOR-I always returns exactly the same schedule as HOR (Proposition 6) — the
bound pruning never hides an assignment that HOR would have chosen — while
performing at most as many score computations.  When ``k ≤ |T|`` only one
round is needed and HOR-I degenerates to HOR.

Under the batch scoring backend both incremental paths are batched: the
round-start refresh collects the stale prefix its walk can reach and resolves
it through the engine's bulk
:meth:`~repro.core.scoring.ScoringEngine.refresh_scores` API, and the lazy
head resolution of :meth:`HorIScheduler._interval_top` fetches the run of
stale heads in blocks instead of one score per head.  Both count one update
computation per score the walk actually consumes, so schedules, utilities and
counters stay bit-identical to the scalar reference.  ``_interval_top`` also
replaces the former ``pop(0)`` + ``bisect.insort`` bookkeeping (O(n) per
dropped head, quadratic over a run) with a cursor over the sorted list plus a
heap of freshly resolved entries, merged back once per call.

Pruning uses the stale scores only, as in the paper.  The engine's
structural per-interval Φ bound
(:meth:`~repro.core.scoring.ScoringEngine.interval_score_bound`), which INC
consults, is not used here: on every instance measured it never saved a
score computation in HOR-I's selection sweep, while evaluating it (and
mining the structure behind it) took over a third of HOR-I's time on an
unstructured instance.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

from repro.algorithms.base import AssignmentEntry, BaseScheduler
from repro.core.schedule import Schedule


class HorIScheduler(BaseScheduler):
    """Horizontal Assignment with Incremental Updating (HOR-I)."""

    name = "HOR-I"

    def _run(self, k: int) -> Schedule:
        instance = self.instance
        counter = self.counter
        schedule = self._start_schedule()

        num_intervals = instance.num_intervals
        lists: List[List[AssignmentEntry]] = [[] for _ in range(num_intervals)]
        # has_stale[i]: interval i contains entries whose score predates its last change.
        has_stale = [False] * num_intervals

        rounds = 0
        while len(schedule) < k:
            rounds += 1

            if rounds == 1:
                # First round: generate and score every valid assignment (like
                # HOR) — one batched evaluation per interval.
                lists = self._generate_all_entries(
                    initial=True, only_valid=True, schedule=schedule
                )
            else:
                # Later rounds: refresh only the intervals whose scores went stale,
                # and within them only the entries that can still be the top.
                for interval_index in range(num_intervals):
                    if has_stale[interval_index]:
                        self._refresh_interval(interval_index, lists, schedule)
                        has_stale[interval_index] = any(
                            not entry.updated for entry in lists[interval_index]
                        )

            # ---------------- selection phase (horizontal policy) ----------------
            closed = [False] * num_intervals
            selected_this_round = 0
            while len(schedule) < k:
                best: Optional[AssignmentEntry] = None
                best_interval = -1
                for interval_index in range(num_intervals):
                    if closed[interval_index]:
                        continue
                    entry = self._interval_top(interval_index, lists, schedule)
                    if entry is None:
                        continue
                    counter.count_examined()
                    if best is None or entry.sort_key() < best.sort_key():
                        best = entry
                        best_interval = interval_index
                if best is None:
                    break
                self._select_assignment(schedule, best.event_index, best_interval, best.score)
                closed[best_interval] = True
                selected_this_round += 1
                # The interval's remaining scores now predate its new state.
                remaining = [
                    entry
                    for entry in lists[best_interval]
                    if entry.event_index != best.event_index
                ]
                for entry in remaining:
                    entry.updated = False
                lists[best_interval] = remaining
                has_stale[best_interval] = bool(remaining)

            if selected_this_round == 0:
                break

        self.note("rounds", rounds)
        return schedule

    # ------------------------------------------------------------------ #
    # Internal helpers
    # ------------------------------------------------------------------ #
    def _refresh_interval(
        self,
        interval_index: int,
        lists: List[List[AssignmentEntry]],
        schedule: Schedule,
    ) -> None:
        """Round-start incremental refresh of one stale interval (Algorithm 3, lines 9–20).

        Walks the score-sorted list keeping a running bound Φ (the best exact
        score recomputed so far).  A stale entry is recomputed only while its
        stale score is at least Φ minus the engine's per-score floating-point
        noise bound (stale scores over-estimate true scores only up to
        rounding); the walk stops at the first stale entry below that cut.

        Under the batch backend the stale prefix the walk can reach is
        resolved through the bulk refresh API in blocks; the fetcher counts
        exactly the scores the walk consumes.
        """
        counter = self.counter
        checker = self.checker
        tolerance = self.engine.score_noise_tolerance(interval_index)
        entries = lists[interval_index]
        fetch = self._stale_score_fetcher(
            interval_index, self._stale_prefix(interval_index, entries, schedule)
        )
        kept: List[AssignmentEntry] = []
        phi: Optional[float] = None
        stop_index = len(entries)

        for position, entry in enumerate(entries):
            counter.count_examined()
            if not entry.updated and phi is not None and entry.score < phi - tolerance:
                stop_index = position
                break
            if schedule.is_scheduled(entry.event_index) or not checker.is_feasible(
                entry.event_index, interval_index
            ):
                continue  # drop invalid entries met in the refreshed prefix
            if not entry.updated:
                entry.score = fetch(entry.event_index)
                entry.updated = True
            if phi is None or entry.score > phi:
                phi = entry.score
            kept.append(entry)

        kept.extend(entries[stop_index:])
        kept.sort(key=AssignmentEntry.sort_key)
        lists[interval_index] = kept

    def _stale_prefix(
        self,
        interval_index: int,
        entries: List[AssignmentEntry],
        schedule: Schedule,
    ) -> List[int]:
        """Stale, valid events the refresh walk can reach, in walk order.

        The collection keeps a *known* bound — the best exact score among the
        already-updated valid entries seen so far — and stops at the first
        stale entry below it.  The walk's actual Φ also absorbs freshly
        recomputed scores, so it is at least the known bound and the walk
        stops at or before the collected prefix: the collection is a superset
        of what the walk can consume.  Pure bookkeeping — no counter side
        effects.  Skipped under the scalar backend.
        """
        if not self.engine.is_bulk:
            return []
        checker = self.checker
        tolerance = self.engine.score_noise_tolerance(interval_index)
        known_bound: Optional[float] = None
        pending: List[int] = []
        for entry in entries:
            if (
                not entry.updated
                and known_bound is not None
                and entry.score < known_bound - tolerance
            ):
                break
            if schedule.is_scheduled(entry.event_index) or not checker.is_feasible(
                entry.event_index, interval_index
            ):
                continue
            if entry.updated:
                if known_bound is None or entry.score > known_bound:
                    known_bound = entry.score
            else:
                pending.append(entry.event_index)
        return pending

    def _interval_top(
        self,
        interval_index: int,
        lists: List[List[AssignmentEntry]],
        schedule: Schedule,
    ) -> Optional[AssignmentEntry]:
        """Exact, valid top assignment of one interval, resolving stale heads lazily.

        Invalid heads (event already scheduled, or no longer feasible) are
        dropped; a stale head is recomputed and competes at its exact score.
        Because stale scores are upper bounds, once the head is exact and
        valid it is guaranteed to be the interval's true top — up to the
        floating-point noise of a score: a deeper stale entry whose stale
        score is within the engine's noise bound of the head could still beat
        it once resolved, so such entries are resolved (and compete through
        the heap) before the head is trusted.

        The head of the interval is the better of the sorted list's cursor
        position and the top of a heap holding the entries resolved during
        this call — dropping a head advances the cursor (O(1)) and resolving
        one pushes onto the heap (O(log r)), instead of the former
        ``pop(0)`` + ``bisect.insort`` pair that shifted the whole list per
        head and went quadratic over a run of stale or invalid heads.  The
        heap and the list tail are merged back once, on exit.  Runs of stale
        heads are recomputed in speculative blocks via the bulk refresh API;
        consumed scores are counted one by one, so every counter total
        matches the scalar reference exactly.
        """
        counter = self.counter
        checker = self.checker
        tolerance = self.engine.score_noise_tolerance(interval_index)
        entries = lists[interval_index]
        start = 0
        resolved: List[Tuple[Tuple[float, int, int], AssignmentEntry]] = []
        fetch = None
        result: Optional[AssignmentEntry] = None

        while start < len(entries) or resolved:
            head: Optional[AssignmentEntry] = entries[start] if start < len(entries) else None
            if resolved and (head is None or resolved[0][0] < head.sort_key()):
                head = resolved[0][1]
                from_heap = True
            else:
                from_heap = False
            counter.count_examined()
            if schedule.is_scheduled(head.event_index) or not checker.is_feasible(
                head.event_index, interval_index
            ):
                if from_heap:
                    heapq.heappop(resolved)
                else:
                    start += 1
                continue
            if head.updated:
                # Noise guard: a deeper stale, valid entry whose stale score
                # is within the per-score rounding bound of the head's exact
                # score could still beat it once resolved.  Resolve the first
                # such entry and re-compete instead of trusting the head.
                blocker_position = self._noise_blocker(
                    entries,
                    start if from_heap else start + 1,
                    head.score - tolerance,
                    interval_index,
                    schedule,
                )
                if blocker_position is not None:
                    blocker = entries[blocker_position]
                    counter.count_examined()
                    if fetch is None:
                        fetch = self._stale_score_fetcher(
                            interval_index,
                            self._stale_run(interval_index, entries, schedule, start),
                        )
                    blocker.score = fetch(blocker.event_index)
                    blocker.updated = True
                    del entries[blocker_position]
                    heapq.heappush(resolved, (blocker.sort_key(), blocker))
                    continue
                result = head
                break
            # Stale, valid list head: resolve it from the speculative block
            # cache (built lazily, at most once per call) and let it compete
            # at its exact score via the heap.
            if fetch is None:
                fetch = self._stale_score_fetcher(
                    interval_index, self._stale_run(interval_index, entries, schedule, start)
                )
            head.score = fetch(head.event_index)
            head.updated = True
            start += 1
            heapq.heappush(resolved, (head.sort_key(), head))

        if resolved:
            exact = [item[1] for item in sorted(resolved, key=lambda item: item[0])]
            lists[interval_index] = list(
                heapq.merge(exact, entries[start:], key=AssignmentEntry.sort_key)
            )
        elif start:
            del entries[:start]
        return result

    def _noise_blocker(
        self,
        entries: List[AssignmentEntry],
        position: int,
        cut: float,
        interval_index: int,
        schedule: Schedule,
    ) -> Optional[int]:
        """Index of the first stale, valid entry at/after ``position`` scoring ≥ ``cut``.

        ``cut`` is the exact head score minus the per-score noise bound:
        entries below it cannot beat the head even after resolution, and
        updated entries in the window are exact and sorted behind the head,
        so they cannot either.  Returns ``None`` when the head is safe.  Pure
        bookkeeping — no counter side effects.
        """
        checker = self.checker
        for index in range(position, len(entries)):
            entry = entries[index]
            if entry.score < cut:
                return None
            if entry.updated:
                continue
            if schedule.is_scheduled(entry.event_index) or not checker.is_feasible(
                entry.event_index, interval_index
            ):
                continue
            return index
        return None

    def _stale_run(
        self,
        interval_index: int,
        entries: List[AssignmentEntry],
        schedule: Schedule,
        start: int,
    ) -> List[int]:
        """The run of stale, valid events from ``start`` that head resolution can reach.

        Invalid entries are skipped (the cursor drops them without a score);
        the run ends at the first updated valid entry — once it surfaces as
        the list head it is returned before any deeper stale entry could be
        examined *by the normal walk*.  The noise-blocker guard of
        :meth:`_interval_top` can reach past that entry (a stale entry within
        the rounding window of an exact head); such resolutions miss this
        speculative cache and fall back to a per-pair score, which the
        fetcher computes and counts identically.  Pure bookkeeping — no
        counter side effects.  Skipped under the scalar backend.
        """
        if not self.engine.is_bulk:
            return []
        checker = self.checker
        pending: List[int] = []
        for entry in entries[start:]:
            if schedule.is_scheduled(entry.event_index) or not checker.is_feasible(
                entry.event_index, interval_index
            ):
                continue
            if entry.updated:
                break
            pending.append(entry.event_index)
        return pending
