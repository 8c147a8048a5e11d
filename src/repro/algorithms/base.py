"""Common machinery shared by every SES scheduler.

:class:`BaseScheduler` implements the template method :meth:`BaseScheduler.schedule`
(timing, counter management, result assembly, output validation) and provides
the helpers used by the concrete algorithms:

* a deterministic total order over assignments — higher score first, then
  smaller event index, then smaller interval index — so that the
  ALG/INC and HOR/HOR-I equivalence propositions of the paper hold exactly
  even in the presence of ties;
* :class:`AssignmentEntry`, the mutable record the interval-organised
  algorithms keep per (event, interval) pair.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.constraints import ConstraintChecker
from repro.core.counters import ComputationCounter
from repro.core.errors import SolverError
from repro.core.execution import DEFAULT_BACKEND, DEFAULT_PLAN, ExecutionConfig
from repro.core.instance import SESInstance
from repro.core.schedule import Schedule
from repro.core.storage import DEFAULT_STORAGE
from repro.core.scoring import ScoringEngine

#: Number of stale scores fetched per speculative bulk-refresh call.  Small
#: enough that a walk cut short by the Φ bound wastes little work, large
#: enough to amortise the vectorised call overhead over many pairs.
REFRESH_BLOCK_SIZE = 64


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
        Name of the execution backend the run used (``"scalar"``,
        ``"batch"``, ``"parallel"``, ``"cluster"``, …) — recorded so harness
        tables can tell backend rows apart.
    storage:
        Registry name of the instance's interest-matrix storage the run used
        (``"dense"``, ``"sparse"``, ``"mmap"``, …) — recorded so harness
        tables can tell storage rows apart.  Every storage produces
        bit-identical schedules and counters; only footprint and speed
        differ.
    workers:
        The resolved worker count of the run's engine (1 unless a pooled
        backend was asked to fan out).
    cluster:
        The remote worker addresses of a ``cluster``-backend run (the empty
        tuple for in-process runs) — recorded so harness tables can tell a
        distributed row from a degraded local one.
    cluster_stats:
        The cluster backend's dispatch counters
        (:meth:`~repro.core.execution.ExecutionBackend.stats`): per-address
        tasks / batches / round-trips / bytes, plus the locally-computed
        column count.  Empty for in-process runs.
    task_batch:
        The resolved :attr:`~repro.core.execution.ExecutionConfig.task_batch`
        knob of a cluster run (``None`` means the batch size was auto-derived
        per call; also ``None`` for in-process runs).
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
    workers: int = 1
    cluster: Tuple[str, ...] = ()
    cluster_stats: Dict[str, object] = field(default_factory=dict)
    task_batch: Optional[int] = None
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

    def _cluster_summary(self) -> object:
        """The ``cluster`` summary cell: dispatch counters for cluster runs.

        In-process runs report ``"-"``.  Cluster runs report a mapping with
        the worker addresses plus the per-run dispatch totals (tasks served
        remotely, wire batches, round-trips, bytes each way, columns computed
        locally), so harness tables and the benchmark JSON expose shipping
        overhead next to compute time.
        """
        if not self.cluster:
            return "-"
        cell: Dict[str, object] = {"workers": ",".join(self.cluster)}
        for key in (
            "tasks",
            "batches",
            "round_trips",
            "bytes_sent",
            "bytes_received",
            "local_columns",
        ):
            if key in self.cluster_stats:
                cell[key] = self.cluster_stats[key]
        return cell

    def summary(self) -> Dict[str, object]:
        """Flat dictionary used by the experiment harness and reports."""
        return {
            "algorithm": self.algorithm,
            "backend": self.backend,
            "storage": self.storage,
            "plan": self.plan,
            "workers": self.workers,
            "cluster": self._cluster_summary(),
            "task_batch": (
                (self.task_batch if self.task_batch is not None else "auto")
                if self.cluster
                else "-"
            ),
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


class AssignmentEntry:
    """Mutable record of one candidate assignment used by INC/HOR/HOR-I.

    ``score`` is the last computed score; ``updated`` says whether that score
    reflects the current schedule (exact) or is a stale upper bound.
    """

    __slots__ = ("event_index", "interval_index", "score", "updated")

    def __init__(self, event_index: int, interval_index: int, score: float, updated: bool = True):
        self.event_index = event_index
        self.interval_index = interval_index
        self.score = score
        self.updated = updated

    def sort_key(self) -> Tuple[float, int, int]:
        """Descending-score, ascending-(event, interval) total order."""
        return (-self.score, self.event_index, self.interval_index)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = "+" if self.updated else "-"
        return f"α(e{self.event_index}, t{self.interval_index})={self.score:.4f}{flag}"


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
        self._seed = seed
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

    @property
    def workers(self) -> int:
        """Worker count of the pooled backends (1 for the serial backends)."""
        return self._execution.workers

    def schedule(self, k: int) -> SchedulerResult:
        """Produce a feasible schedule of (up to) ``k`` events.

        Raises
        ------
        SolverError
            If ``k`` is not a positive integer.
        """
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
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

        try:
            started = time.perf_counter()
            schedule = self._run(effective_k)
            elapsed = time.perf_counter() - started

            utility = self._engine.evaluate_schedule(schedule)
            net_utility = self._engine.evaluate_schedule(schedule, include_costs=True)
            # Snapshot the backend's dispatch counters before close() — the
            # cluster backend keys them by worker address (not link objects),
            # so the snapshot stays valid after the connections are gone.
            backend_stats = self._engine.execution_backend.stats()
        finally:
            # Release the pooled backends' workers (and the cluster backend's
            # connections) deterministically — the engine stays usable
            # (a later bulk call recreates the pool), but cleanup must not
            # depend on GC reaching __del__.
            self._engine.close()
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
            workers=self._execution.workers,
            cluster=self._execution.workers_addr or (),
            cluster_stats=backend_stats if self._execution.workers_addr else {},
            task_batch=self._execution.task_batch,
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
        the active backend (the cluster backend shards its columns across
        remote workers); every (event, interval) pair is recorded as one generated
        assignment and one score computation, as in per-pair generation.

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

    def _generate_all_entries(
        self, *, initial: bool = True, only_valid: bool = False, schedule: Optional[Schedule] = None
    ) -> List[List[AssignmentEntry]]:
        """Compute scores for every (event, interval) pair, grouped per interval.

        ``only_valid`` restricts generation to assignments that are currently
        valid (event unscheduled and feasible) — HOR's per-round regeneration —
        while the default generates everything (ALG/INC initialisation).

        Scores are obtained from the engine's bulk API: the full-grid default
        goes through one :meth:`~repro.core.scoring.ScoringEngine.score_matrix`
        call (which the cluster backend shards per-interval across its workers),
        while the restricted per-round case makes one
        :meth:`~repro.core.scoring.ScoringEngine.interval_scores` call per
        interval.  Either way the counter records one score computation per
        generated (event, interval) pair, and the scores are identical —
        both paths run the same per-interval kernel of the active backend.
        """
        num_intervals = self._instance.num_intervals
        num_events = self._instance.num_events
        per_interval: List[List[AssignmentEntry]] = [[] for _ in range(num_intervals)]
        if not only_valid:
            grid = self._initial_score_grid(initial=initial)
            for interval_index in range(num_intervals):
                column = grid[:, interval_index]
                per_interval[interval_index] = [
                    AssignmentEntry(event_index, interval_index, float(column[event_index]))
                    for event_index in range(num_events)
                ]
                per_interval[interval_index].sort(key=AssignmentEntry.sort_key)
            return per_interval
        unscheduled = np.ones(num_events, dtype=bool)
        if schedule is not None:
            unscheduled[list(schedule.scheduled_events())] = False
        # A warm-grid provider covers the initial generation: a per-interval
        # bulk call scores a subset of one full-grid column with the same
        # per-row kernel reduction, so slicing the provided grid returns the
        # same bits a fresh interval_scores call would.
        warm = None
        if initial and self._warm_grid is not None:
            warm = self._warm_grid.grid(self.engine)
        for interval_index in range(num_intervals):
            feasible = self.checker.feasible_events(interval_index)
            events = np.flatnonzero(feasible & unscheduled).tolist()
            if not events:
                continue
            if warm is not None:
                scores = warm[events, interval_index]
            else:
                # Passing None lets the engine score its precomputed full
                # event set without materialising a per-interval index copy.
                selector = None if len(events) == num_events else events
                scores = self.engine.interval_scores(interval_index, selector, initial=initial)
            self._counter.count_generated(len(events))
            per_interval[interval_index] = [
                AssignmentEntry(event_index, interval_index, float(score))
                for event_index, score in zip(events, scores)
            ]
        for entries in per_interval:
            entries.sort(key=AssignmentEntry.sort_key)
        return per_interval

    def _stale_score_fetcher(self, interval_index: int, pending: List[int]):
        """A ``fetch(event_index) -> float`` closure resolving stale scores in bulk.

        ``pending`` is the (speculative) list of stale, currently-valid events
        the caller's refresh walk *may* recompute at ``interval_index``, in
        walk order.  Under the bulk strategies their exact scores are fetched
        from :meth:`~repro.core.scoring.ScoringEngine.refresh_scores` in
        blocks of :data:`REFRESH_BLOCK_SIZE` with ``count=False``; each score
        the walk actually consumes is then counted as one update computation.
        A speculatively fetched score the walk never consumes is discarded
        without ever being observed by the algorithm, so schedules, utilities
        and every counter total stay bit-identical to the scalar reference,
        which computes (and counts) one pair at a time.

        Under the scalar backend — or on a cache miss — ``fetch`` degrades to
        one :meth:`~repro.core.scoring.ScoringEngine.assignment_score` call,
        i.e. exactly the reference behaviour.
        """
        engine = self.engine
        counter = self._counter
        if not engine.is_bulk or not pending:
            def fetch_scalar(event_index: int) -> float:
                return engine.assignment_score(event_index, interval_index)

            return fetch_scalar

        cache: Dict[int, float] = {}
        position = 0

        def fetch(event_index: int) -> float:
            nonlocal position
            score = cache.pop(event_index, None)
            while score is None and position < len(pending):
                block = pending[position : position + REFRESH_BLOCK_SIZE]
                position += len(block)
                values = engine.refresh_scores(interval_index, block, count=False)
                cache.update(zip(block, (float(value) for value in values)))
                score = cache.pop(event_index, None)
            if score is None:
                return engine.assignment_score(event_index, interval_index)
            counter.count_score(initial=False)
            return score

        return fetch
