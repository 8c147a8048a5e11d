"""The benchmark's workloads, correctness gates and metrics.

Every workload runs the same two-part *pass* on its own inputs:

* **serve** — ``repro serve`` in this process (one accept thread, one
  connection thread) and one closed-loop client over the real wire
  protocol.  The client replays a seeded mutation trace on an INC session,
  one mutation per batch, and every ``resolve_every`` mutations calls
  ``resolve(k = |T|)`` and then ``get_schedule``.
* **solve** — one-shot ``run_scheduler`` calls of ALG, INC, HOR, HOR-I and
  TOP, each timed around the whole public call (engine construction and the
  final utility evaluation included).

The workloads differ in what each part runs on:

============  =====================================  ==========================
workload      solve part                             serve part
============  =====================================  ==========================
unf-dense     Unf 180 x 90 x 3,000, k = 60, dense,   Unf 100 x 20 x 300,
              direct plan                            100 mutations
cohort-mmap   4,000 users from 40 cohorts,           cohort builder, 120 x 20 x
              200 x 20, k = 40, mmap storage,        1,000 users from 40
              blocked plan                           cohorts, blocked plan,
                                                     100 mutations
============  =====================================  ==========================

Each pass serves its own instance and trace, drawn from the run's seed and
the pass number, so one run pools several; the solve part's instance is
fixed per run.  Passes repeat until the run's ``--seconds`` are spent, so many short passes spread
every metric's samples over the whole run.

Every end-to-end timing is CPU time of the benchmark's load (see
:class:`CpuClock`), measured on the core that runs fastest at the time (see
:class:`CorePicker`).  On a shared host the wall-clock of one call drifts by
tens of percent with other tenants' load: wall-clock also counts the time
the host runs their work instead, and a core's speed changes with what runs
beside it.  The traced run's spans stay wall-clock, so waits (a socket
stall, a lock) still show per layer.

Correctness is checked outside every timed region; each check is one
attempted operation and a failed check is a failed one.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import tempfile
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms.registry import run_scheduler
from repro.core import instance_io
from repro.core.constraints import assert_schedule_feasible
from repro.core.entities import Event
from repro.core.errors import InfeasibleAssignmentError, SolverError
from repro.core.execution import ExecutionConfig
from repro.core.instance import SESInstance
from repro.core.scoring import utility_of_schedule
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic
from repro.service import ServiceClient, start_local_service
from repro.service.session import (
    AddEvent,
    LockAssignment,
    MutationError,
    RemoveEvent,
    SchedulingSession,
    SetIntervalCapacity,
    UnlockAssignment,
    UpdateInterest,
)

from perfbench.tracing import Tracer

#: The five paper algorithms every solve part runs, in report order.
ALGORITHMS = ("ALG", "INC", "HOR", "HOR-I", "TOP")

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 7

#: Seed of every service session and solve (only RAND would read it).
SESSION_SEED = 17

#: Mutation mix of the service trace (weights sum to 1).  ``churn`` locks an
#: event while fewer than half of the lockable intervals hold a lock and
#: unlocks one otherwise, so the lock count (which sets how much a resolve
#: has left to schedule) stays near one level whatever the seed.
MUTATION_MIX = (
    ("interest", 0.70),
    ("churn", 0.15),
    ("capacity", 0.05),
    ("add", 0.05),
    ("remove", 0.05),
)

#: Cohort builder: competing events, Zipf exponent of event popularity and
#: the share of events each cohort is interested in.
NUM_COMPETING = 6
ZIPF_EXPONENT = 1.0
COHORT_DENSITY = 0.15

#: Percentiles a tail may be reported at, highest first.
TAIL_LADDER = (99.9, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)

#: Samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10

#: Every this many resolves (and the last) is compared with a cold solve.
CHECK_EVERY = 10

#: Core probe (:class:`CorePicker`): floats sorted, Python loop length,
#: best of how many runs per core, and the seconds a placement is kept.
PROBE_SORT = 200_000
PROBE_LOOP = 40_000
PROBE_REPS = 2
PICK_EVERY_S = 0.3


@dataclass(frozen=True)
class Shape:
    """Instance size; ``cohorts > 0`` draws users from that many interest cohorts."""

    events: int
    intervals: int
    users: int
    cohorts: int = 0


@dataclass(frozen=True)
class Workload:
    """One named workload: its inputs and settings."""

    name: str
    solve_shape: Shape
    #: Events to schedule in the solve part.
    k: int
    storage: str
    plan: str
    serve_shape: Shape
    mutations: int
    resolve_every: int
    #: Timed calls of each algorithm per pass.
    solve_repeats: int
    #: Fewest passes of an untraced run, however short ``--seconds`` is.
    min_passes: int = 2


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="unf-dense",
            solve_shape=Shape(events=180, intervals=90, users=3_000),
            k=60,
            storage="dense",
            plan="direct",
            serve_shape=Shape(events=100, intervals=20, users=300),
            mutations=100,
            resolve_every=2,
            solve_repeats=1,
        ),
        Workload(
            name="cohort-mmap",
            solve_shape=Shape(events=200, intervals=20, users=4_000, cohorts=40),
            k=40,
            storage="mmap",
            plan="blocked",
            serve_shape=Shape(events=120, intervals=20, users=1_000, cohorts=40),
            mutations=100,
            resolve_every=2,
            solve_repeats=1,
        ),
    )
}


# --------------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------------- #
def percentile(samples: Sequence[float], rank: float) -> float:
    """Linear-interpolation percentile (NumPy's default definition).

    The value at fractional position ``(n - 1) * rank / 100`` of the sorted
    samples — the definition ``benchmarks/_common.percentile`` uses, so the
    service latencies here agree with ``bench_serve_load``.  A private copy,
    so no change outside the benchmark's own files can redefine its metrics.
    """
    ordered = sorted(float(value) for value in samples)
    if not ordered:
        raise ValueError("percentile() needs at least one sample")
    position = (len(ordered) - 1) * (rank / 100.0)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    return ordered[lower] + (ordered[upper] - ordered[lower]) * (position - lower)


def tail_rank(count: int) -> float:
    """Highest ladder percentile with at least :data:`TAIL_BEYOND` samples beyond it."""
    for rank in TAIL_LADDER:
        if count - 1 - int((count - 1) * rank / 100.0) >= TAIL_BEYOND:
            return rank
    return TAIL_LADDER[-1]


class CpuClock:
    """CPU seconds of the benchmark's load, read from the calling thread.

    All load runs in this process: the solves and the client on the calling
    thread, the server's accept and connection threads beside it.  The clock
    is the calling thread's CPU time plus that of every tracked service
    thread, so a request's reading covers the client's and the server's
    work and leaves out waits and time the host gives to other tenants.
    Each service thread is read through its own CPU clock, which includes
    the slice it is running right now; ``time.process_time`` would miss the
    part of the server's work not yet settled when the reply arrives.
    """

    def __init__(self) -> None:
        self._clocks: List[int] = []

    def track(self, threads: Sequence[threading.Thread]) -> None:
        """Count these live threads from now on (replacing any tracked before)."""
        self._clocks = [time.pthread_getcpuclockid(thread.ident) for thread in threads]

    def __call__(self) -> float:
        return time.thread_time() + sum(time.clock_gettime(clock) for clock in self._clocks)


class CorePicker:
    """Keeps the benchmark's load on whichever allowed core runs fastest now.

    The host lends these cores to other tenants too, and each core's speed
    changes on its own within seconds: a fixed probe runs on one core up to
    twice as long as on the other, then the roles swap.  A process left
    where the scheduler put it reads whichever core it drew.  So before timed
    work (at most every :data:`PICK_EVERY_S`), :meth:`place` runs the probe
    on each allowed core and pins the calling thread and every tracked
    service thread to the fastest; the closed loop never runs two of them at
    once, so one core carries the whole load.
    """

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self._probe_data = np.random.default_rng(0).random(PROBE_SORT)
        self._native_ids: List[int] = []
        self._picked_at = float("-inf")

    def track(self, threads: Sequence[threading.Thread]) -> None:
        """Move these live threads along from now on (replacing any tracked before)."""
        self._native_ids = [thread.native_id for thread in threads]
        self._picked_at = float("-inf")

    def _probe(self) -> float:
        started = time.perf_counter()
        np.sort(self._probe_data)
        total = 0
        for value in range(PROBE_LOOP):
            total += value * value
        return time.perf_counter() - started

    def _probe_on(self, cpu: int) -> float:
        os.sched_setaffinity(0, {cpu})
        return min(self._probe() for _ in range(PROBE_REPS))

    def place(self) -> None:
        """Pin the load to the fastest core, unless it was placed moments ago."""
        if len(self.cpus) < 2 or time.perf_counter() - self._picked_at < PICK_EVERY_S:
            return
        fastest = min(self.cpus, key=self._probe_on)
        for native_id in [0, *self._native_ids]:
            os.sched_setaffinity(native_id, {fastest})
        self._picked_at = time.perf_counter()

    def release(self) -> None:
        """Let the calling thread run on every allowed core again."""
        os.sched_setaffinity(0, self.cpus)


# --------------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------------- #
def sub_seed(seed: int, tag: int) -> int:
    """An independent, reproducible seed for one input of a run."""
    return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0])


def build_instance(shape: Shape, seed: int) -> SESInstance:
    """The workload generator: the paper's Unf synthetic, or cohort users.

    Unf is :func:`~repro.datasets.synthetic.generate_synthetic` with uniform
    interest and activity and every other ``SyntheticConfig`` default.  The
    cohort builder draws users from ``shape.cohorts`` full row patterns
    (interest, activity and competing interest), with Zipf event popularity,
    :data:`COHORT_DENSITY` interest density per cohort and geometrically
    decaying activity over the intervals.
    """
    if not shape.cohorts:
        return generate_synthetic(
            SyntheticConfig(
                num_users=shape.users,
                num_events=shape.events,
                num_intervals=shape.intervals,
                interest_distribution="uniform",
                activity_distribution="uniform",
                seed=seed,
                name="Unf",
            )
        )
    rng = np.random.default_rng(seed)
    popularity = (rng.permutation(shape.events) + 1.0) ** -ZIPF_EXPONENT
    interested = rng.random((shape.cohorts, shape.events)) < COHORT_DENSITY
    pattern_interest = np.where(
        interested, rng.random((shape.cohorts, shape.events)) * popularity, 0.0
    )
    decay = np.geomspace(1.0, 0.05, shape.intervals)
    pattern_activity = rng.random((shape.cohorts, shape.intervals)) * decay
    pattern_competing = rng.random((shape.cohorts, NUM_COMPETING))
    members = rng.integers(0, shape.cohorts, shape.users)
    return SESInstance.from_arrays(
        interest=pattern_interest[members],
        activity=pattern_activity[members],
        competing_interest=pattern_competing[members],
        competing_interval_indices=[index % shape.intervals for index in range(NUM_COMPETING)],
        name="cohort",
    )


def instance_digest(instance: SESInstance) -> str:
    """Short content hash of an instance's activity and first interest column."""
    digest = hashlib.sha256(np.ascontiguousarray(instance.activity).tobytes())
    digest.update(np.ascontiguousarray(instance.interest.store.column(0)).tobytes())
    return digest.hexdigest()[:16]


class TraceGenerator:
    """Draws the mutation trace against a mirror of the session's state.

    Every trace of ``length`` mutations holds each kind of
    :data:`MUTATION_MIX` in the same number (its weight times ``length``,
    rounded), in a seeded order, so traces of different seeds differ in
    targets and order but not in how much of each kind of work they ask for.
    """

    def __init__(self, rng: np.random.Generator, instance: SESInstance, length: int) -> None:
        self.rng = rng
        kinds = [kind for kind, weight in MUTATION_MIX for _ in range(round(weight * length))]
        kinds += ["interest"] * (length - len(kinds))
        self.kinds = iter(rng.permutation(kinds[:length]).tolist())
        self.events = [event.id for event in instance.events]
        self.intervals = [interval.id for interval in instance.intervals]
        self.users = [user.id for user in instance.users]
        self.locks: Dict[str, str] = {}
        self.fresh = 0
        # Resolves run with k = |T|, which must cover every locked assignment.
        self.target_locks = max(1, (len(self.intervals) - 2) // 2)

    def next_mutation(self):
        kind = next(self.kinds)
        if kind == "interest":
            chosen = self.rng.choice(self.events, size=2, replace=False)
            return UpdateInterest(
                user_id=str(self.rng.choice(self.users)),
                values={str(event): float(self.rng.random()) for event in chosen},
            )
        if kind == "churn":
            if len(self.locks) < self.target_locks:
                return LockAssignment(
                    event_id=str(self.rng.choice(self.events)),
                    interval_id=str(self.rng.choice(self.intervals)),
                )
            return UnlockAssignment(event_id=str(self.rng.choice(sorted(self.locks))))
        if kind == "capacity":
            return SetIntervalCapacity(
                interval_id=str(self.rng.choice(self.intervals)),
                capacity=int(self.rng.integers(4, 12)),
            )
        if kind == "add":
            self.fresh += 1
            event_id = f"x{self.fresh}"
            self.events.append(event_id)
            return AddEvent(
                event=Event(id=event_id, location=f"xloc{self.fresh}"),
                interest=tuple(float(value) for value in self.rng.random(len(self.users))),
            )
        return RemoveEvent(event_id=str(self.rng.choice(self.events)))

    def record(self, mutation, accepted: bool) -> None:
        """Keep the mirror consistent with the server's answer."""
        if not accepted:
            if isinstance(mutation, AddEvent):
                self.events.remove(mutation.event.id)
        elif isinstance(mutation, LockAssignment):
            self.locks[mutation.event_id] = mutation.interval_id
        elif isinstance(mutation, UnlockAssignment):
            self.locks.pop(mutation.event_id, None)
        elif isinstance(mutation, RemoveEvent):
            self.events.remove(mutation.event_id)


# --------------------------------------------------------------------------- #
# Bookkeeping
# --------------------------------------------------------------------------- #
@dataclass
class Ledger:
    """Attempted and failed operations; a failed check is a failed operation."""

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    def ops(self, count: int = 1) -> None:
        self.attempted += count

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


@dataclass
class TraceLog:
    """What one service trace did and how long each request took."""

    mutate_s: List[float] = field(default_factory=list)
    resolve_s: List[float] = field(default_factory=list)
    query_s: List[float] = field(default_factory=list)
    mutations: List[object] = field(default_factory=list)
    accepted: List[bool] = field(default_factory=list)
    #: Mutation step -> resolve reply compared with a cold solve.
    checkpoints: Dict[int, dict] = field(default_factory=dict)
    #: Mutation steps whose ``get_schedule`` differed from the resolve before it.
    query_mismatches: List[int] = field(default_factory=list)
    bound_evals: int = 0
    bound_skips: int = 0
    #: CPU seconds of the whole trace (:class:`CpuClock`).
    seconds: float = 0.0
    status: dict = field(default_factory=dict)

    @property
    def rejected(self) -> int:
        return self.accepted.count(False)


@dataclass
class SolveLog:
    """Timed one-shot solves: per algorithm, every wall-clock and the results."""

    seconds: Dict[str, List[float]] = field(default_factory=dict)
    results: Dict[str, list] = field(default_factory=dict)


def schedule_ids(instance: SESInstance, schedule) -> Dict[str, str]:
    """``{event_id: interval_id}`` of a schedule of ``instance``."""
    return {
        instance.events[event].id: instance.intervals[interval].id
        for event, interval in schedule.as_dict().items()
    }


# --------------------------------------------------------------------------- #
# The two parts of a pass
# --------------------------------------------------------------------------- #
class Run:
    """One process running one workload: set-up, passes, checks and metrics."""

    def __init__(self, workload: Workload, seed: int, out_dir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        self.ledger = Ledger()
        self.execution = ExecutionConfig(plan=workload.plan)
        self.serve_k = workload.serve_shape.intervals
        self.solve_instance: Optional[SESInstance] = None
        self.dense_instance: Optional[SESInstance] = None
        self.serve_instance: Optional[SESInstance] = None
        #: Which serve instance is loaded: 0 is the set-up's, pass ``i`` draws its own.
        self.serve_index = 0
        self.handle = None
        self.client: Optional[ServiceClient] = None
        self.session_id: Optional[str] = None
        #: The server's accept and connection threads, counted by :attr:`clock`.
        self.service_threads: List[threading.Thread] = []
        self.clock = CpuClock()
        self.cores = CorePicker()
        self._spill_dirs: List[Path] = []
        self.digest = ""

    # ------------------------------------------------------------------ #
    # Set-up
    # ------------------------------------------------------------------ #
    def build_instances(self) -> None:
        """Generate the inputs (and spill + memory-map the mmap one)."""
        workload = self.workload
        self.serve_index = 0
        self.serve_instance = build_instance(workload.serve_shape, sub_seed(self.seed, 100))
        self.dense_instance = build_instance(workload.solve_shape, sub_seed(self.seed, 1))
        self.digest = instance_digest(self.dense_instance)
        if workload.storage == "mmap":
            self.out_dir.mkdir(parents=True, exist_ok=True)
            folder = Path(tempfile.mkdtemp(prefix="spill-", dir=self.out_dir))
            self._spill_dirs.append(folder)
            self.solve_instance = instance_io.spill_instance(self.dense_instance, folder)
        else:
            self.solve_instance = self.dense_instance

    def start_service(self) -> None:
        """Start the server, connect, load the session and resolve it cold.

        The threads the server started (its accept thread and the thread
        serving this connection, which has answered by the time the cold
        resolve returns) are tracked by :attr:`clock` from here on.
        """
        before = set(threading.enumerate())
        self.handle = start_local_service(execution=self.execution)
        self.client = ServiceClient(self.handle.address)
        self.session_id = self.new_session()
        self.service_threads = [thread for thread in threading.enumerate() if thread not in before]
        self.clock.track(self.service_threads)
        self.cores.track(self.service_threads)

    def new_session(self) -> str:
        session_id = self.client.load_instance(
            self.serve_instance, algorithm="INC", seed=SESSION_SEED
        )
        self.client.resolve(session_id, self.serve_k)
        return session_id

    def stop_service(self) -> None:
        """Disconnect, stop the server and wait for every thread it started."""
        self.clock.track([])
        self.cores.track([])
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.handle is not None:
            self.handle.stop()
            self.handle = None
        for thread in self.service_threads:
            thread.join(10.0)
        self.service_threads = []

    def set_up(self, setup_tracer: Optional[Tracer]) -> List[float]:
        """Set up :data:`SETUP_REPS` times; keep the last; return every CPU time.

        A set-up's time is the calling thread's CPU time plus all the CPU
        time of the service threads it started.
        """
        seconds = []
        for rep in range(SETUP_REPS):
            if rep:
                self.stop_service()
                self.remove_spills()
            traced = setup_tracer is not None and rep == SETUP_REPS - 1
            self.cores.place()
            started = self.clock()
            with setup_tracer.installed() if traced else nullcontext():
                self.build_instances()
            self.start_service()
            seconds.append(self.clock() - started)
        return seconds

    def remove_spills(self) -> None:
        for folder in self._spill_dirs:
            shutil.rmtree(folder, ignore_errors=True)
        self._spill_dirs = []

    # ------------------------------------------------------------------ #
    # Serve part
    # ------------------------------------------------------------------ #
    def use_serve_instance(self, index: int) -> None:
        """Serve instance number ``index`` (built outside every timed region)."""
        if index != self.serve_index:
            self.serve_instance = build_instance(
                self.workload.serve_shape, sub_seed(self.seed, 100 + index)
            )
            self.serve_index = index
            self.session_id = None

    def serve(self, tracer: Optional[Tracer]) -> TraceLog:
        """Replay the instance's seeded trace on a fresh session (the set-up's first)."""
        workload = self.workload
        session_id = self.session_id or self.new_session()
        self.session_id = None
        client, clock = self.client, self.clock
        generator = TraceGenerator(
            np.random.default_rng(sub_seed(self.seed, 1000 + self.serve_index)),
            self.serve_instance,
            workload.mutations,
        )
        log = TraceLog()
        last_resolve = (workload.mutations // workload.resolve_every) * workload.resolve_every
        resolves = 0
        # CPU time spent choosing a core, which the trace's total leaves out.
        placing = 0.0

        def place() -> None:
            nonlocal placing
            before = clock()
            self.cores.place()
            placing += clock() - before

        gc.collect()
        with tracer.installed() if tracer is not None else nullcontext():
            started = clock()
            for step in range(1, workload.mutations + 1):
                mutation = generator.next_mutation()
                place()
                begin = clock()
                try:
                    client.mutate(session_id, [mutation])
                    accepted = True
                except SolverError as error:
                    if "MutationError" not in str(error):
                        raise
                    accepted = False
                log.mutate_s.append(clock() - begin)
                generator.record(mutation, accepted)
                log.mutations.append(mutation)
                log.accepted.append(accepted)
                if step % workload.resolve_every:
                    continue
                place()
                begin = clock()
                reply = client.resolve(session_id, self.serve_k)
                log.resolve_s.append(clock() - begin)
                begin = clock()
                schedule = client.get_schedule(session_id)
                log.query_s.append(clock() - begin)
                resolves += 1
                log.bound_evals += int(reply["counters"].get("extra.phi_bound_evaluations", 0))
                log.bound_skips += int(reply["counters"].get("extra.phi_bound_interval_skips", 0))
                if schedule != reply["schedule"]:
                    log.query_mismatches.append(step)
                if resolves % CHECK_EVERY == 0 or step == last_resolve:
                    log.checkpoints[step] = reply
            log.seconds = clock() - started - placing
        log.status = client.session_status(session_id)["stats"]
        self.ledger.ops(len(log.mutate_s) + len(log.resolve_s) + len(log.query_s))
        return log

    def check_trace(self, log: TraceLog) -> None:
        """Replay the trace on a local session and compare with the server.

        Rejections must match local validation, and every checkpoint resolve
        must equal a cold ``run_scheduler`` on the local session's instance
        with the same locks.
        """
        ledger = self.ledger
        ledger.check(
            not log.query_mismatches,
            f"get_schedule differs from the resolve before it at steps {log.query_mismatches}",
        )
        session = SchedulingSession(
            self.serve_instance, algorithm="INC", seed=SESSION_SEED, execution=self.execution
        )
        mismatched = 0
        for step, (mutation, accepted) in enumerate(zip(log.mutations, log.accepted), start=1):
            try:
                session.apply([mutation])
                local = True
            except MutationError:
                local = False
            mismatched += local != accepted
            reply = log.checkpoints.get(step)
            if reply is None:
                continue
            instance, locked = self.session_state(session)
            cold = run_scheduler(
                "INC",
                instance,
                self.serve_k,
                seed=SESSION_SEED,
                execution=self.execution,
                locked=locked,
            )
            ledger.check(
                schedule_ids(instance, cold.schedule) == reply["schedule"]
                and cold.utility == reply["utility"],
                f"warm resolve after mutation {step} differs from a cold solve",
            )
            self.check_schedule(instance, cold, f"resolve after mutation {step}")
        ledger.check(mismatched == 0, f"{mismatched} mutations validated differently locally")

    @staticmethod
    def session_state(session: SchedulingSession) -> Tuple[SESInstance, Tuple[Tuple[int, int], ...]]:
        instance = session.instance()
        locked = tuple(
            sorted(
                (instance.event_index(event_id), instance.interval_index(interval_id))
                for event_id, interval_id in session.locks().items()
            )
        )
        return instance, locked

    # ------------------------------------------------------------------ #
    # Solve part
    # ------------------------------------------------------------------ #
    def solve(
        self,
        instance: SESInstance,
        tracer: Optional[Tracer],
    ) -> SolveLog:
        """Time every algorithm's public ``run_scheduler`` call (CPU time)."""
        k = self.workload.k
        clock = self.clock
        log = SolveLog()
        with tracer.installed() if tracer is not None else nullcontext():
            for _ in range(self.workload.solve_repeats):
                for name in ALGORITHMS:
                    # Every timed call starts from the same heap: garbage
                    # left by the previous call is not collected inside it.
                    gc.collect()
                    self.cores.place()
                    span = tracer.span(f"algo.{name}") if tracer is not None else nullcontext()
                    started = clock()
                    with span:
                        result = run_scheduler(
                            name,
                            instance,
                            k,
                            seed=SESSION_SEED,
                            execution=self.execution,
                        )
                    log.seconds.setdefault(name, []).append(clock() - started)
                    log.results.setdefault(name, []).append(result)
        self.ledger.ops(sum(len(results) for results in log.results.values()))
        return log

    def check_solves(self, instance: SESInstance, log: SolveLog, reference: Optional[SolveLog]) -> None:
        """Prop. 3 equivalences, feasibility, utilities and repeatable counters."""
        ledger = self.ledger
        for fast, slow in (("INC", "ALG"), ("HOR-I", "HOR")):
            first, second = log.results[fast][0], log.results[slow][0]
            ledger.check(
                first.schedule.as_dict() == second.schedule.as_dict()
                and first.utility == second.utility,
                f"{fast} and {slow} disagree",
            )
        for name in ALGORITHMS:
            result = log.results[name][0]
            self.check_schedule(instance, result, name)
            runs = list(log.results[name])
            if reference is not None:
                runs.append(reference.results[name][0])
            ledger.check(
                all(
                    other.counters == result.counters
                    and other.schedule.as_dict() == result.schedule.as_dict()
                    for other in runs
                ),
                f"{name} counters or schedule differ between repeats",
            )

    def check_schedule(self, instance: SESInstance, result, what: str) -> None:
        """The schedule is feasible and its utility matches an independent evaluation."""
        try:
            assert_schedule_feasible(instance, result.schedule)
            feasible = True
        except InfeasibleAssignmentError:
            feasible = False
        self.ledger.check(feasible, f"{what}: schedule is infeasible")
        self.ledger.check(
            result.utility == utility_of_schedule(instance, result.schedule),
            f"{what}: utility differs from utility_of_schedule",
        )

    def check_storage_and_plan(self, log: SolveLog) -> None:
        """The mmap/blocked TOP run equals TOP on dense storage under ``plan=direct``."""
        if self.workload.storage == "dense" and self.workload.plan == "direct":
            return
        reference = run_scheduler(
            "TOP",
            self.dense_instance,
            self.workload.k,
            seed=SESSION_SEED,
            execution=ExecutionConfig(plan="direct"),
        )
        result = log.results["TOP"][0]
        self.ledger.check(
            reference.schedule.as_dict() == result.schedule.as_dict()
            and reference.utility == result.utility
            and reference.counters == result.counters,
            "TOP differs between mmap/blocked and dense/direct",
        )

    # ------------------------------------------------------------------ #
    # One pass
    # ------------------------------------------------------------------ #
    def run_pass(
        self,
        tracer: Optional[Tracer],
        index: int,
        first: Optional[SolveLog],
    ) -> Tuple[TraceLog, SolveLog]:
        """Serve instance ``index``, then solve (counters must match ``first``'s)."""
        self.use_serve_instance(index)
        trace = self.serve(tracer)
        self.check_trace(trace)
        solves = self.solve(self.solve_instance, tracer)
        self.check_solves(self.solve_instance, solves, first)
        return trace, solves

    def close(self) -> None:
        self.stop_service()
        self.cores.release()
        self.remove_spills()


# --------------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------------- #
def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """What one run prints: metrics ``{name: (value, unit)}`` plus notes."""

    ledger: Ledger
    metrics: Dict[str, Tuple[float, str]]
    notes: List[str]
    digest: str

    @property
    def correct(self) -> bool:
        return self.ledger.failed == 0

    def result_line(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.ledger.attempted,
            "failed": self.ledger.failed,
            "metrics": {
                name: {"value": value, "unit": unit} for name, (value, unit) in self.metrics.items()
            },
        }


def end_to_end(setup_s: List[float], passes: List[Tuple[TraceLog, SolveLog]]):
    """The end-to-end metrics of untraced passes, plus notes on the tails.

    A tail is taken per trace, at the highest percentile with ten of that
    trace's samples beyond it, and reported as the median over the traces:
    a burst of load from another tenant lifts the tail of the one trace it
    hits, where a tail pooled over the run would read the burst itself.
    """
    metrics: Dict[str, Tuple[float, str]] = {
        "setup_s": (statistics.median(setup_s), "s"),
    }
    for name in ALGORITHMS:
        samples = [seconds for _, solves in passes for seconds in solves.seconds[name]]
        metrics[f"solve_s.{name}"] = (statistics.median(samples), "s")
    notes = []
    for label in ("resolve", "mutate"):
        traces = [getattr(trace, f"{label}_s") for trace, _ in passes]
        pooled = [value for samples in traces for value in samples]
        rank = tail_rank(len(traces[0]))
        tails = [percentile(samples, rank) for samples in traces]
        metrics[f"{label}_p50_ms"] = (percentile(pooled, 50.0) * 1000.0, "ms")
        metrics[f"{label}_tail_ms"] = (statistics.median(tails) * 1000.0, "ms")
        notes.append(
            f"{label}_p50_ms is p50 of {len(pooled)} samples; {label}_tail_ms is the median "
            f"over {len(traces)} traces of p{rank:g} of each trace's {len(traces[0])} samples"
        )
    metrics["trace_s"] = (statistics.median(trace.seconds for trace, _ in passes), "s")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    return metrics, notes


#: Layer groups of the per-call breakdown (``share.<call>.<group>`` metrics).
BREAKDOWN_GROUPS = {
    "kernel": ("kernel.grid", "kernel.column"),
    "bound_mine": ("bound.eval", "patterns.mine"),
    "storage": ("storage.block",),
    "plan": ("plan.block",),
    "constraints": ("constraints.check",),
    "engine": ("engine.build",),
}

#: Root span of each breakdown call kind.
BREAKDOWN_ROOTS = {**{name: f"algo.{name}" for name in ALGORITHMS}, "resolve": "wire.resolve"}


def per_layer(
    setup_tracer: Tracer,
    pass_tracer: Tracer,
    traced: List[Tuple[TraceLog, SolveLog]],
    untraced: List[Tuple[TraceLog, SolveLog]],
    ledger: Ledger,
):
    """Per-layer metrics: layer time and work per one set-up plus one pass."""
    passes = len(traced)
    setup_self, setup_calls, _ = setup_tracer.self_times()
    pass_self, pass_calls, closure = pass_tracer.self_times()
    ledger.check(
        all(abs(residual) < 1e-6 for residual in closure.values()),
        "span self times do not add up to the traced calls' wall-clock",
    )

    def layer_s(*names: str) -> float:
        setup = sum(value for (_, name), value in setup_self.items() if name in names)
        run = sum(value for (_, name), value in pass_self.items() if name in names)
        return setup + run / passes

    def calls(*names: str) -> float:
        return sum(setup_calls.get(name, 0) for name in names) + sum(
            pass_calls.get(name, 0) for name in names
        ) / passes

    def count(name: str) -> float:
        return setup_tracer.counts.get(name, 0) + pass_tracer.counts.get(name, 0) / passes

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    solved = [result for _, solves in traced for results in solves.results.values() for result in results]
    bound_evals = (
        sum(result.counters.get("extra.phi_bound_evaluations", 0) for result in solved)
        + sum(trace.bound_evals for trace, _ in traced)
    ) / passes
    bound_skips = (
        sum(result.counters.get("extra.phi_bound_interval_skips", 0) for result in solved)
        + sum(trace.bound_skips for trace, _ in traced)
    ) / passes
    fetched = (
        pass_tracer.counts.get("refresh.fetched.algo.INC", 0)
        + pass_tracer.counts.get("refresh.fetched.algo.HOR-I", 0)
    ) / passes
    consumed = (
        sum(
            result.counters["update_computations"]
            for _, solves in traced
            for name in ("INC", "HOR-I")
            for result in solves.results[name]
        )
        / passes
    )
    kernel_wall = sum(pass_tracer.durations("kernel.grid")) + sum(pass_tracer.durations("kernel.column"))
    users = max(setup_tracer.counts.get("patterns.users", 0), pass_tracer.counts.get("patterns.users", 0))
    classes = (
        setup_tracer.counts.get("patterns.classes", 0)
        if setup_tracer.counts.get("patterns.users", 0) == users
        else pass_tracer.counts.get("patterns.classes", 0)
    )
    saved = sum(trace.status.get("scores_saved", 0) for trace, _ in traced) / passes
    recomputed = sum(trace.status.get("scores_recomputed", 0) for trace, _ in traced) / passes

    metrics: Dict[str, Tuple[float, str]] = {
        "instance.build_s": (layer_s("instance.build"), "s"),
        "io.load_s": (layer_s("io.load", "io.spill"), "s"),
        "storage.blocks": (calls("storage.block"), "count"),
        "storage.block_s": (layer_s("storage.block"), "s"),
        "storage.bytes_densified": (count("storage.bytes_densified"), "B"),
        "engine.builds": (calls("engine.build"), "count"),
        "engine.build_s": (layer_s("engine.build"), "s"),
        "patterns.mine_calls": (calls("patterns.mine"), "count"),
        "patterns.mine_s": (layer_s("patterns.mine"), "s"),
        "patterns.classes": (float(classes), "count"),
        "patterns.compression": (ratio(classes, users), "ratio"),
        "kernel.grid_calls": (calls("kernel.grid"), "count"),
        "kernel.grid_s": (layer_s("kernel.grid"), "s"),
        "kernel.column_calls": (calls("kernel.column"), "count"),
        "kernel.column_s": (layer_s("kernel.column"), "s"),
        "kernel.pairs": (count("kernel.pairs"), "count"),
        "kernel.elements": (count("kernel.elements"), "count"),
        "kernel.elements_per_s": (
            ratio(pass_tracer.counts.get("kernel.elements", 0), kernel_wall),
            "1/s",
        ),
        "refresh.fetched": (fetched, "count"),
        "refresh.consumed": (consumed, "count"),
        "refresh.useful_ratio": (ratio(consumed, fetched), "ratio"),
        "bound.evals": (bound_evals, "count"),
        "bound.eval_s": (layer_s("bound.eval"), "s"),
        "bound.skips": (bound_skips, "count"),
        "bound.skip_ratio": (ratio(bound_skips, calls("bound.eval")), "ratio"),
        "plan.block_calls": (calls("plan.block"), "count"),
        "plan.block_s": (layer_s("plan.block"), "s"),
        "constraints.checks": (calls("constraints.check"), "count"),
        "constraints.check_s": (layer_s("constraints.check"), "s"),
    }
    for name in ALGORITHMS:
        first = traced[0][1].results[name][0]
        metrics[f"algo.self_s.{name}"] = (
            pass_self.get((f"algo.{name}", f"algo.{name}"), 0.0) / passes,
            "s",
        )
        metrics[f"algo.score_computations.{name}"] = (float(first.score_computations), "count")
        metrics[f"algo.assignments_examined.{name}"] = (float(first.assignments_examined), "count")
    metrics.update(
        {
            "session.apply_s": (layer_s("session.apply"), "s"),
            "session.resolve_s": (layer_s("session.resolve"), "s"),
            "session.warm_grid_s": (layer_s("session.warm_grid"), "s"),
            "session.scores_saved": (saved, "count"),
            "session.scores_recomputed": (recomputed, "count"),
            "session.saved_ratio": (ratio(saved, recomputed), "ratio"),
        }
    )
    for label in ("mutate", "resolve", "query"):
        samples = pass_tracer.self_durations(f"wire.{label}")
        metrics[f"wire.{label}_ms"] = (percentile(samples, 50.0) * 1000.0 if samples else 0.0, "ms")
    metrics["mutations.rejected"] = (float(traced[0][0].rejected), "count")

    # Tracing overhead: traced minus untraced medians.
    for name in ALGORITHMS:
        traced_s = statistics.median(s for _, solves in traced for s in solves.seconds[name])
        plain_s = statistics.median(s for _, solves in untraced for s in solves.seconds[name])
        metrics[f"overhead.solve_s.{name}"] = (traced_s - plain_s, "s")
    traced_ms = percentile([s for trace, _ in traced for s in trace.resolve_s], 50.0) * 1000.0
    plain_ms = percentile([s for trace, _ in untraced for s in trace.resolve_s], 50.0) * 1000.0
    metrics["overhead.resolve_p50_ms"] = (traced_ms - plain_ms, "ms")

    # Share of each call kind's traced wall-clock per layer group.
    table = breakdown(pass_tracer, pass_self)
    for kind, shares in table.items():
        for group in list(BREAKDOWN_GROUPS) + ["residual"]:
            metrics[f"share.{kind}.{group}"] = (shares.get(group, 0.0), "ratio")
    metrics["trace.spans"] = (
        float(len(setup_tracer.spans) + len(pass_tracer.spans) + len(pass_tracer.leaves)),
        "count",
    )
    return metrics, table


def breakdown(tracer: Tracer, self_times) -> Dict[str, Dict[str, float]]:
    """Per call kind: share of its wall-clock spent in each layer (self time)."""
    table: Dict[str, Dict[str, float]] = {}
    for kind, root in BREAKDOWN_ROOTS.items():
        wall = sum(tracer.durations(root))
        if not wall:
            continue
        layers = {name: value for (root_name, name), value in self_times.items() if root_name == root}
        shares = {name: value / wall for name, value in layers.items()}
        for group, names in BREAKDOWN_GROUPS.items():
            shares[group] = sum(shares.get(name, 0.0) for name in names)
        shares["residual"] = shares.get(root, 0.0)
        table[kind] = shares
    return table


def format_breakdown(table: Dict[str, Dict[str, float]]) -> List[str]:
    """Human-readable per-call layer shares, largest first."""
    lines = []
    for kind, shares in table.items():
        layers = sorted(
            ((name, share) for name, share in shares.items() if "." in name),
            key=lambda item: -item[1],
        )
        cells = ", ".join(f"{name} {share:.1%}" for name, share in layers)
        lines.append(f"breakdown {kind}: {cells}")
    return lines


# --------------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------------- #
def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, out_dir: Path) -> Outcome:
    """Run one workload in this process and return what it prints.

    After set-up, passes repeat while the next one is expected to end within
    ``seconds`` of wall-clock (judged by the longest so far), and at least
    ``workload.min_passes`` times.  Pass ``i`` serves instance ``i``; a traced
    run serves each instance twice, untraced then traced, for at least one
    instance.
    """
    run = Run(workload, seed, out_dir)
    setup_tracer = Tracer() if trace else None
    pass_tracer = Tracer() if trace else None
    flags = (False, True) if trace else (False,)
    fewest = 1 if trace else workload.min_passes
    untraced: List[Tuple[TraceLog, SolveLog]] = []
    traced: List[Tuple[TraceLog, SolveLog]] = []
    first: Optional[SolveLog] = None
    try:
        setup_s = run.set_up(setup_tracer)
        window_start = time.perf_counter()
        longest = 0.0
        index = 0
        while index < fewest or time.perf_counter() - window_start + longest <= seconds:
            began = time.perf_counter()
            for is_traced in flags:
                outcome = run.run_pass(pass_tracer if is_traced else None, index, first)
                first = first or outcome[1]
                (traced if is_traced else untraced).append(outcome)
            longest = max(longest, time.perf_counter() - began)
            index += 1
        run.check_storage_and_plan(first)
    finally:
        run.close()

    notes = [f"instance digest {run.digest}, {len(untraced)} untraced and {len(traced)} traced passes"]
    if not trace:
        metrics, tail_notes = end_to_end(setup_s, untraced)
        notes += tail_notes
    else:
        metrics, table = per_layer(setup_tracer, pass_tracer, traced, untraced, run.ledger)
        notes += format_breakdown(table)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"trace-{workload.name}-seed{seed}.json"
        path.write_text(
            json.dumps({"setup": setup_tracer.dump(), "passes": pass_tracer.dump()}),
            encoding="utf-8",
        )
        notes.append(f"spans written to {path}")
    notes += [f"FAILED: {failure}" for failure in run.ledger.failures]
    return Outcome(ledger=run.ledger, metrics=metrics, notes=notes, digest=run.digest)
