"""Common machinery shared by every SES scheduler.

:class:`BaseScheduler` implements the template method :meth:`BaseScheduler.schedule`
(timing, counter management, result assembly, output validation) and provides
the helpers used by the concrete algorithms:

* a deterministic total order over assignments — higher score first, then
  smaller event index, then smaller interval index — so that the
  ALG/INC and HOR/HOR-I equivalence propositions of the paper hold exactly
  even in the presence of ties;
* :class:`IntervalHeads`, the array-backed per-interval candidate lists of
  the interval-organised algorithms, with the :class:`Validity` mask they
  test entries against and the Φ-cut refresh walk INC and HOR-I share.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.constraints import ConstraintChecker
from repro.core.counters import ComputationCounter
from repro.core.entities import decode_int
from repro.core.errors import SolverError
from repro.core.execution import DEFAULT_BACKEND, DEFAULT_PLAN, ExecutionConfig
from repro.core.instance import SESInstance
from repro.core.schedule import Schedule
from repro.core.storage import DEFAULT_STORAGE
from repro.core.scoring import ScoringEngine

#: Most stale scores one bulk-refresh call fetches.  Each call is already cut
#: at the walk's current Φ (only rows whose stale score can still reach it),
#: so this cap only splits long runs of near-equal scores: small enough that
#: a run cut short by a rising Φ wastes little work, large enough to amortise
#: the vectorised call overhead over many pairs.
REFRESH_BLOCK_SIZE = 64

#: Most rows in the first Φ-cut block of a walk that starts without a bound
#: (HOR-I's round-start refresh and head resolution); each further block of
#: the walk may hold twice as many, up to :data:`REFRESH_BLOCK_SIZE`.  Such a
#: walk's Φ is the head's fresh score, far below the stale scores behind it,
#: and the next fresh scores raise it the most: its first blocks are the ones
#: a rising Φ would cut short.
FIRST_REFRESH_BLOCK = 8


def _solver_int(value: object, what: str) -> int:
    """:func:`~repro.core.entities.decode_int`, raising :class:`SolverError`."""
    try:
        return decode_int(value, what)
    except ValueError as error:
        raise SolverError(str(error)) from None


def decode_seed(seed: object) -> Optional[int]:
    """``None`` or an integer seed; a bool, float or string raises :class:`SolverError`."""
    return None if seed is None else _solver_int(seed, "seed")


@dataclass
class SchedulerResult:
    """The outcome of one scheduler run.

    Attributes
    ----------
    algorithm:
        Registry name of the scheduler (``"ALG"``, ``"INC"``, …).
    k:
        The requested number of events to schedule.
    schedule:
        The produced (feasible) schedule; may contain fewer than ``k``
        assignments when the instance does not admit ``k`` feasible ones.
    utility:
        Total utility Ω(S) of the schedule (Eq. 3).
    net_utility:
        Utility minus organisation costs (equals ``utility`` for paper-style
        instances where every cost is zero).
    elapsed_seconds:
        Wall-clock time of the run.
    counters:
        Snapshot of the :class:`~repro.core.counters.ComputationCounter`.
    extras:
        Algorithm-specific diagnostics (e.g. number of rounds for HOR).
    backend:
        Name of the execution backend the run used (``"scalar"`` or
        ``"batch"``) — recorded so harness tables can tell backend rows
        apart.
    storage:
        Registry name of the instance's interest-matrix storage the run used
        (``"dense"``, ``"sparse"``, ``"mmap"``, …) — recorded so harness
        tables can tell storage rows apart.  Every storage produces
        bit-identical schedules and counters; only footprint and speed
        differ.
    plan:
        Registry name of the scoring plan the run used (``"direct"``,
        ``"blocked"``, …) — recorded so harness tables can tell plan rows
        apart.  Every plan produces bit-identical schedules and counters;
        only speed differs.
    service:
        Per-session statistics of a run performed through the online
        scheduling service (:mod:`repro.service`): mutations applied,
        intervals/events invalidated, score computations saved vs a cold
        solve.  Empty for one-shot runs.
    """

    algorithm: str
    k: int
    schedule: Schedule
    utility: float
    net_utility: float
    elapsed_seconds: float
    counters: Dict[str, int]
    extras: Dict[str, object] = field(default_factory=dict)
    backend: str = DEFAULT_BACKEND
    storage: str = DEFAULT_STORAGE
    plan: str = DEFAULT_PLAN
    service: Dict[str, object] = field(default_factory=dict)

    @property
    def num_scheduled(self) -> int:
        """Number of assignments actually produced."""
        return len(self.schedule)

    @property
    def score_computations(self) -> int:
        """Number of assignment-score evaluations performed."""
        return int(self.counters.get("score_computations", 0))

    @property
    def user_computations(self) -> int:
        """The paper's computation metric: |U| per score evaluation."""
        return int(self.counters.get("user_computations", 0))

    @property
    def assignments_examined(self) -> int:
        """The paper's Fig. 10b search-space metric."""
        return int(self.counters.get("assignments_examined", 0))

    def summary(self) -> Dict[str, object]:
        """Flat dictionary used by the experiment harness and reports."""
        return {
            "algorithm": self.algorithm,
            "backend": self.backend,
            "storage": self.storage,
            "plan": self.plan,
            "k": self.k,
            "scheduled": self.num_scheduled,
            "utility": self.utility,
            "net_utility": self.net_utility,
            "time_sec": self.elapsed_seconds,
            "score_computations": self.score_computations,
            "user_computations": self.user_computations,
            "assignments_examined": self.assignments_examined,
            "service": self.service or "-",
        }


def better_candidate(
    first: Optional[Tuple[float, int, int]], second: Optional[Tuple[float, int, int]]
) -> Optional[Tuple[float, int, int]]:
    """Return the better of two ``(score, event, interval)`` candidates.

    ``None`` means "no candidate".  The order is the library-wide tie-break:
    larger score wins; ties go to the smaller event index, then the smaller
    interval index.
    """
    if first is None:
        return second
    if second is None:
        return first
    first_key = (-first[0], first[1], first[2])
    second_key = (-second[0], second[1], second[2])
    return first if first_key <= second_key else second


def best_index(
    scores: np.ndarray, events: np.ndarray, mask: Optional[np.ndarray] = None
) -> int:
    """Index of the best ``mask``-ed candidate under the library tie-break, or -1.

    ``scores[i]``/``events[i]`` describe candidate ``i`` (``mask=None``: every
    candidate); the best has the largest score, then the smallest event,
    then the smallest index — the order of :func:`better_candidate` when
    ``i`` is the interval index.
    """
    candidates = np.arange(scores.size) if mask is None else np.flatnonzero(mask)
    if not candidates.size:
        return -1
    values = scores[candidates]
    ties = candidates[values == values.max()]
    return int(ties[np.argmin(events[ties])])


def key_order(scores: np.ndarray, events: np.ndarray) -> np.ndarray:
    """The permutation sorting candidates by the ``(−score, event)`` key.

    A stable sort on the scores alone, which is exact unless two equal
    scores end up out of event order; only then are the events consulted
    (a two-key sort).
    """
    order = np.argsort(-scores, kind="stable")
    ordered = scores[order]
    ties = ordered[1:] == ordered[:-1]
    if ties.any():
        ordered_events = events[order]
        if (ties & (ordered_events[1:] < ordered_events[:-1])).any():
            return np.lexsort((events, -scores))
    return order


def first_hit(mask: np.ndarray) -> Tuple[int, int]:
    """``(position, examined)`` of the first ``mask``-ed entry of a list walk.

    ``position`` is -1 when no entry qualifies; ``examined`` counts the
    entries a front-to-back walk looks at (through the hit, or all).
    """
    if not mask.size:
        return -1, 0
    position = int(np.argmax(mask))
    if not mask[position]:
        return -1, mask.size
    return position, position + 1


class Validity:
    """The ``(|T|, |E|)`` mask of currently *valid* assignments.

    Entry ``[t, e]`` is ``True`` when event ``e`` is unscheduled and
    feasible at interval ``t`` — :meth:`ConstraintChecker.feasible_events
    <repro.core.constraints.ConstraintChecker.feasible_events>` of the row's
    interval with the scheduled events' columns cleared.  A commit changes
    one row (the interval's feasibility) and one column (the event), so
    :meth:`commit` keeps the mask exact in two array writes.
    """

    def __init__(
        self, checker: ConstraintChecker, num_intervals: int, scheduled: Iterable[int]
    ) -> None:
        self._checker = checker
        self.mask = np.stack(
            [checker.feasible_events(interval_index) for interval_index in range(num_intervals)]
        )
        self.unscheduled = np.ones(self.mask.shape[1], dtype=bool)
        self.unscheduled[list(scheduled)] = False
        self.mask &= self.unscheduled

    def commit(self, event_index: int, interval_index: int) -> None:
        """Record a commit the constraint checker has already applied."""
        self.unscheduled[event_index] = False
        self.mask[:, event_index] = False
        self.mask[interval_index] = self._checker.feasible_events(interval_index) & self.unscheduled


class IntervalHeads:
    """Per-interval candidate lists of the interval-organised schedulers.

    Interval ``t`` holds three parallel arrays — ``scores[t]`` (the last
    computed score of each candidate), ``events[t]`` and ``updated[t]``
    (whether that score reflects the interval's current state or is a stale
    upper bound) — ordered by the shared ``(−score, event)`` key, the
    library tie-break within one interval.  Validity is looked up in the
    shared :class:`Validity` mask, so a walk tests a whole list in one
    gather instead of one constraint check per entry.
    """

    def __init__(self, validity: Validity) -> None:
        self.validity = validity
        num_intervals = validity.mask.shape[0]
        self.scores: List[np.ndarray] = [np.empty(0)] * num_intervals
        self.events: List[np.ndarray] = [np.empty(0, dtype=np.intp)] * num_intervals
        self.updated: List[np.ndarray] = [np.empty(0, dtype=bool)] * num_intervals

    def fill(self, interval_index: int, events: np.ndarray, scores: np.ndarray) -> None:
        """Set an interval's exact candidates (``events`` ascending) in key order."""
        order = np.argsort(-scores, kind="stable")
        self.scores[interval_index] = scores[order]
        self.events[interval_index] = events[order]
        self.updated[interval_index] = np.ones(order.size, dtype=bool)

    def size(self, interval_index: int) -> int:
        """Number of candidates left in an interval's list."""
        return self.scores[interval_index].size

    def valid(self, interval_index: int) -> np.ndarray:
        """Validity of each candidate of an interval, in list order."""
        return self.validity.mask[interval_index][self.events[interval_index]]

    def keep(
        self,
        interval_index: int,
        keep: np.ndarray,
        scores: np.ndarray,
        updated: np.ndarray,
        *,
        reorder: bool,
    ) -> None:
        """Replace an interval's list with its ``keep``-ed entries, re-sorted if ``reorder``.

        ``keep`` is a mask over the current list; ``scores`` and ``updated``
        are full-length replacements for the current arrays.
        """
        scores, events, updated = scores[keep], self.events[interval_index][keep], updated[keep]
        if reorder:
            order = key_order(scores, events)
            scores, events, updated = scores[order], events[order], updated[order]
        self.scores[interval_index] = scores
        self.events[interval_index] = events
        self.updated[interval_index] = updated

    def drop_front(self, interval_index: int, count: int) -> None:
        """Remove an interval's first ``count`` entries."""
        if count:
            self.scores[interval_index] = self.scores[interval_index][count:]
            self.events[interval_index] = self.events[interval_index][count:]
            self.updated[interval_index] = self.updated[interval_index][count:]

    def drop_event(self, interval_index: int, event_index: int) -> None:
        """Remove a just-selected event; every remaining score becomes stale."""
        keep = self.events[interval_index] != event_index
        self.scores[interval_index] = self.scores[interval_index][keep]
        self.events[interval_index] = self.events[interval_index][keep]
        self.updated[interval_index] = np.zeros(int(keep.sum()), dtype=bool)


class BaseScheduler(ABC):
    """Abstract base class of every SES scheduler.

    Subclasses implement :meth:`_run`, which receives the effective ``k`` and
    must return a feasible :class:`~repro.core.schedule.Schedule`; the base
    class takes care of timing, utility evaluation and result packaging.

    Parameters
    ----------
    instance:
        The SES problem instance.
    counter:
        Optional externally-owned counter (useful to aggregate across runs);
        a fresh one is created when omitted.
    seed:
        Seed for the randomised schedulers (ignored by the deterministic ones).
    execution:
        The :class:`~repro.core.execution.ExecutionConfig` selecting the
        scoring engine's execution backend and its knobs (``None`` selects
        the library defaults).  Every backend produces identical schedules,
        utilities and counter totals — the config only decides how fast.
    locked:
        Assignments ``(event_index, interval_index)`` pinned into the
        schedule before the algorithm runs (the online service's lock
        mutations).  They are committed in deterministic sorted order against
        the schedule, the constraint checker and the scoring engine, count
        toward ``k``, and are never revisited by the algorithm — so a locked
        run is exactly the algorithm run on the residual problem, and a warm
        re-solve with the same locks matches a cold one bit for bit.
    warm_grid:
        Optional provider of a cached initial score grid: an object with a
        ``grid(engine)`` method returning the full ``|E| × |T|`` initial
        score matrix for the engine's current (post-lock) state, or ``None``
        to fall back to a fresh computation.  Because the bulk kernels'
        per-row reductions are independent of block composition, a provider
        that patches only stale rows/columns stays bit-identical to a cold
        :meth:`~repro.core.scoring.ScoringEngine.score_matrix` call.
    """

    #: Registry name; subclasses override.
    name: str = "base"

    def __init__(
        self,
        instance: SESInstance,
        *,
        counter: Optional[ComputationCounter] = None,
        seed: Optional[int] = None,
        execution: Optional[ExecutionConfig] = None,
        locked: Optional[Tuple[Tuple[int, int], ...]] = None,
        warm_grid: Optional[object] = None,
    ) -> None:
        self._instance = instance
        self._counter = counter if counter is not None else ComputationCounter()
        if self._counter.num_users == 0:
            self._counter.num_users = instance.num_users
        self._seed = decode_seed(seed)
        self._execution = (execution or ExecutionConfig()).resolve(instance.num_users)
        self._locked = self._validate_locked(locked)
        self._warm_grid = warm_grid
        self._engine: Optional[ScoringEngine] = None
        self._checker: Optional[ConstraintChecker] = None

    def _validate_locked(
        self, locked: Optional[Tuple[Tuple[int, int], ...]]
    ) -> Tuple[Tuple[int, int], ...]:
        """Index-validate and deterministically order the locked assignments."""
        if not locked:
            return ()
        pairs = sorted((int(event), int(interval)) for event, interval in locked)
        seen_events: set = set()
        for event_index, interval_index in pairs:
            if not 0 <= event_index < self._instance.num_events:
                raise SolverError(
                    f"locked event index {event_index} outside "
                    f"[0, {self._instance.num_events})"
                )
            if not 0 <= interval_index < self._instance.num_intervals:
                raise SolverError(
                    f"locked interval index {interval_index} outside "
                    f"[0, {self._instance.num_intervals})"
                )
            if event_index in seen_events:
                raise SolverError(
                    f"event {event_index} appears in more than one locked assignment"
                )
            seen_events.add(event_index)
        return tuple(pairs)

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    @property
    def instance(self) -> SESInstance:
        """The instance being scheduled."""
        return self._instance

    @property
    def counter(self) -> ComputationCounter:
        """The counter recording this scheduler's work."""
        return self._counter

    @property
    def execution(self) -> ExecutionConfig:
        """The resolved execution configuration of the scheduler's engine."""
        return self._execution

    @property
    def backend(self) -> str:
        """Name of the execution backend the scheduler's engine will use."""
        return self._execution.backend

    @property
    def chunk_size(self) -> int:
        """Events per vectorised pass of the engine's bulk evaluations."""
        return self._execution.chunk_size

    def schedule(self, k: int) -> SchedulerResult:
        """Produce a feasible schedule of (up to) ``k`` events.

        Raises
        ------
        SolverError
            If ``k`` is not a positive integer (NumPy integers included).
        """
        k = _solver_int(k, "k")
        if k < 1:
            raise SolverError(f"k must be a positive integer, got {k!r}")
        effective_k = min(k, self._instance.num_events)
        if len(self._locked) > effective_k:
            raise SolverError(
                f"k={k} cannot cover the {len(self._locked)} locked assignments"
            )

        self._engine = ScoringEngine(
            self._instance,
            counter=self._counter,
            execution=self._execution,
        )
        self._checker = ConstraintChecker(self._instance)
        self._extras: Dict[str, object] = {}

        started = time.perf_counter()
        schedule = self._run(effective_k)
        elapsed = time.perf_counter() - started

        utility = self._engine.evaluate_schedule(schedule)
        net_utility = utility - self._engine.schedule_cost(schedule)
        return SchedulerResult(
            algorithm=self.name,
            k=k,
            schedule=schedule,
            utility=utility,
            net_utility=net_utility,
            elapsed_seconds=elapsed,
            counters=self._counter.snapshot(),
            extras=dict(self._extras),
            backend=self._execution.backend,
            storage=self._instance.storage,
            plan=self._execution.plan,
        )

    # ------------------------------------------------------------------ #
    # Hooks for subclasses
    # ------------------------------------------------------------------ #
    @abstractmethod
    def _run(self, k: int) -> Schedule:
        """Produce the schedule; implemented by each algorithm."""

    @property
    def engine(self) -> ScoringEngine:
        """The scoring engine of the current run."""
        if self._engine is None:
            raise SolverError("engine is only available inside schedule()")
        return self._engine

    @property
    def checker(self) -> ConstraintChecker:
        """The constraint checker of the current run."""
        if self._checker is None:
            raise SolverError("constraint checker is only available inside schedule()")
        return self._checker

    def note(self, key: str, value: object) -> None:
        """Record an algorithm-specific diagnostic in the result's ``extras``."""
        self._extras[key] = value

    # ------------------------------------------------------------------ #
    # Shared helpers
    # ------------------------------------------------------------------ #
    def _start_schedule(self) -> Schedule:
        """A fresh schedule pre-seeded with the run's locked assignments.

        Every algorithm's ``_run`` starts here instead of ``Schedule()``:
        the locked pairs are committed in deterministic sorted order against
        the schedule, the constraint checker and the scoring engine, so the
        algorithm then works on the residual problem with the locked state
        already applied — identically in cold and warm runs, which is what
        keeps the two bit-identical.
        """
        schedule = Schedule()
        for event_index, interval_index in self._locked:
            schedule.add(event_index, interval_index)
            self.checker.commit(event_index, interval_index)
            self.engine.apply(event_index, interval_index)
        return schedule

    def _select_assignment(
        self, schedule: Schedule, event_index: int, interval_index: int, score: float
    ) -> None:
        """Commit a selection: schedule, constraint state and scoring state."""
        schedule.add(event_index, interval_index)
        self.checker.commit(event_index, interval_index)
        self.engine.apply(event_index, interval_index, score=score)
        self._counter.count_selection()

    def _initial_score_grid(self, *, initial: bool = True):
        """The full |E|×|T| score matrix, counted as generated assignments.

        One :meth:`~repro.core.scoring.ScoringEngine.score_matrix` call under
        the active backend; every (event, interval) pair is recorded as one
        generated assignment and one score computation, as in per-pair
        generation.

        When a warm-grid provider was supplied it is consulted first (for the
        initial generation only): a provided grid holds exactly the values a
        fresh ``score_matrix`` call would return (see the ``warm_grid``
        constructor parameter), so the run stays bit-identical while skipping
        the score computations the provider already had cached.
        """
        if initial and self._warm_grid is not None:
            grid = self._warm_grid.grid(self.engine)
            if grid is not None:
                self._counter.count_generated(int(grid.size))
                return grid
        grid = self.engine.score_matrix(initial=initial)
        self._counter.count_generated(int(grid.size))
        return grid

    def _interval_heads(
        self, schedule: Schedule, *, initial: bool = True, only_valid: bool = False
    ) -> IntervalHeads:
        """Compute scores for every (event, interval) pair, grouped per interval.

        ``only_valid`` restricts generation to assignments that are currently
        valid (event unscheduled and feasible) — HOR's per-round regeneration —
        while the default generates everything (INC/ALG-O initialisation).

        Scores are obtained from the engine's bulk API: the full-grid default
        goes through one :meth:`~repro.core.scoring.ScoringEngine.score_matrix`
        call, while the restricted per-round case makes one
        :meth:`~repro.core.scoring.ScoringEngine.interval_scores` call per
        interval.  Either way the counter records one score computation per
        generated (event, interval) pair, and the scores are identical —
        both paths run the same per-interval kernel of the active backend.
        Each interval's list is ordered by one stable sort of its column.
        """
        num_intervals = self._instance.num_intervals
        num_events = self._instance.num_events
        heads = IntervalHeads(Validity(self.checker, num_intervals, schedule.scheduled_events()))
        if not only_valid:
            grid = self._initial_score_grid(initial=initial)
            events = np.arange(num_events)
            for interval_index in range(num_intervals):
                heads.fill(interval_index, events, grid[:, interval_index])
            return heads
        # A warm-grid provider covers the initial generation: a per-interval
        # bulk call scores a subset of one full-grid column with the same
        # per-row kernel reduction, so slicing the provided grid returns the
        # same bits a fresh interval_scores call would.
        warm = None
        if initial and self._warm_grid is not None:
            warm = self._warm_grid.grid(self.engine)
        for interval_index in range(num_intervals):
            events = np.flatnonzero(heads.validity.mask[interval_index])
            if not events.size:
                continue
            if warm is not None:
                scores = warm[events, interval_index]
            else:
                # Passing None lets the engine score its precomputed full
                # event set without materialising a per-interval index copy.
                selector = None if events.size == num_events else events
                scores = self.engine.interval_scores(interval_index, selector, initial=initial)
            self._counter.count_generated(int(events.size))
            heads.fill(interval_index, events, np.asarray(scores, dtype=np.float64))
        return heads

    def _fetch_scores(self, interval_index: int, events: np.ndarray) -> np.ndarray:
        """Exact current scores of ``events`` at one interval, *not* counted.

        One :meth:`~repro.core.scoring.ScoringEngine.refresh_scores` call with
        ``count=False``: the incremental walks fetch stale rows in blocks and
        count one update computation per row they consume (see
        :meth:`_refresh_walk`), so a row fetched but never consumed leaves
        every counter as the one-pair-at-a-time walk of the paper would.
        """
        return self.engine.refresh_scores(interval_index, events, count=False)

    def _refresh_walk(
        self,
        heads: IntervalHeads,
        interval_index: int,
        phi: Optional[float],
        *,
        stale_stops: bool,
    ) -> Optional[Tuple[float, int]]:
        """Refresh the stale entries of one interval that could beat the bound Φ.

        The walk goes down the interval's list from the top with a running
        bound Φ (``phi`` on entry; ``None`` when no bound is known yet):
        invalid entries are dropped, a stale valid entry is recomputed, and
        every valid entry's exact score raises Φ.  The walk stops at the
        first entry whose (stale) score is below Φ minus the engine's
        per-score floating-point noise bound — stale scores are upper bounds
        only up to rounding, see
        :meth:`~repro.core.scoring.ScoringEngine.score_noise_tolerance` — and
        every deeper entry is below that cut as well.  INC stops at any such
        entry; with ``stale_stops`` (HOR-I) only a stale one stops the walk.

        The walk runs over array windows.  Without a bound the first valid
        entry is fetched alone.  After that each window ends at the Φ cut,
        found with one ``searchsorted`` on the sorted scores, and its stale
        valid entries are fetched in one :meth:`_fetch_scores` call of at
        most :data:`REFRESH_BLOCK_SIZE` rows (a walk that began without a
        bound starts at :data:`FIRST_REFRESH_BLOCK` rows and doubles).  A
        running maximum over the window then finds where the sequential walk
        would stop.  Φ only rises, so the cut only moves up, and a fetched row
        goes unconsumed only when a score fresh in the same window raised Φ
        past it.

        Counts every entry the walk looks at (through the stop) and one
        update computation per consumed row.  Returns the best walked valid
        ``(score, event)`` by the library tie-break, or ``None``.
        """
        scores = heads.scores[interval_index]
        events = heads.events[interval_index]
        updated = heads.updated[interval_index]
        size = scores.size
        tolerance = self.engine.score_noise_tolerance(interval_index)
        keys = -scores
        # INC's walk cannot pass the cut of its incoming bound (Φ only rises
        # and it stops there), so only that prefix is looked up.
        horizon = size
        if phi is not None and not stale_stops:
            horizon = min(size, int(keys.searchsorted(tolerance - phi, side="right")) + 1)
        valid = heads.validity.mask[interval_index][events[:horizon]]
        stale = valid & ~updated[:horizon]
        # The exact score of every valid entry once fetched; -inf marks invalid.
        exact = np.where(valid, scores[:horizon], -np.inf)
        position = 0
        stop = size
        limit = REFRESH_BLOCK_SIZE if phi is not None else FIRST_REFRESH_BLOCK
        while position < horizon:
            if phi is None:
                first = position + int(valid[position:].argmax())
                if not valid[first]:
                    break
                if stale[first]:
                    exact[first] = self._fetch_scores(interval_index, events[first : first + 1])[0]
                phi = float(exact[first])
                position = first + 1
                continue
            cut = max(position, int(keys.searchsorted(tolerance - phi, side="right")))
            block = position + stale[position:cut].nonzero()[0]
            end = cut
            if block.size > limit:
                block = block[:limit]
                end = int(block[-1]) + 1
            if block.size:
                exact[block] = self._fetch_scores(interval_index, events[block])
                limit = min(2 * limit, REFRESH_BLOCK_SIZE)
            if end > position:
                window = exact[position:end]
                highest = float(window.max())
                if highest > phi:
                    # A score above Φ raises the cut inside the window: find
                    # the first entry below the running Φ minus the noise.
                    prior = np.maximum.accumulate(np.concatenate(([phi], window[:-1])))
                    stops = scores[position:end] < prior - tolerance
                    if stale_stops:
                        stops &= ~updated[position:end]
                    first_stop = int(stops.argmax())
                    if stops[first_stop]:
                        stop = position + first_stop
                        break
                    phi = highest
                position = end
            if end == cut:
                # Everything from the cut on is below it: INC stops right
                # there, HOR-I at the first stale entry (exact ones pass).
                if cut < size:
                    if not stale_stops:
                        stop = cut
                    else:
                        rest = (~updated[cut:]).nonzero()[0]
                        stop = cut + int(rest[0]) if rest.size else size
                break

        walked = valid[:stop].nonzero()[0]
        consumed = int(np.count_nonzero(stale[:stop]))
        if consumed:
            self._counter.count_scores(consumed, initial=False)
        self._counter.count_examined(stop + 1 if stop < size else size)
        fresh = exact[walked]
        if consumed or walked.size < min(stop, horizon):
            # Walked invalid entries are dropped; walked valid ones are exact.
            new_scores = scores.copy()
            new_scores[walked] = fresh
            new_updated = updated.copy()
            new_updated[walked] = True
            kept = np.ones(size, dtype=bool)
            kept[:stop] = valid[:stop]
            heads.keep(interval_index, kept, new_scores, new_updated, reorder=consumed > 0)
        if not walked.size:
            return None
        # Smallest (−score, event) key among the walked valid entries.
        key = min(zip((-fresh).tolist(), events[walked].tolist()))
        return -key[0], key[1]
