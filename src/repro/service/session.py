"""Mutable scheduling sessions with incremental, bit-identical re-solves.

The paper's evaluation is one-shot: build an instance, run a scheduler,
report Ω(S).  A deployed event scheduler lives online instead — events are
announced and cancelled, interest estimates are refreshed, the operator pins
an assignment or frees a stage — and wants the *next* schedule without paying
a cold solve for every edit.  :class:`SchedulingSession` is that online view:
it wraps a live :class:`~repro.core.instance.SESInstance` plus warm scheduler
state, accepts :class:`Mutation` batches, and re-solves incrementally.

The design contract (and what ``tests/test_service_equivalence.py`` proves)
is **bit-identity**: a warm :meth:`SchedulingSession.resolve` returns exactly
the schedule, utilities and initial scores of a cold
:func:`~repro.algorithms.registry.run_scheduler` call on the mutated
instance, across every storage × plan.  Two properties make that
possible:

* the initial |E| × |T| score grid depends only on the instance data and the
  locked assignments (every algorithm consumes it before its first free
  selection), so the session can cache it between resolves; and
* the bulk kernels' per-event reductions are independent of block
  composition, so re-scoring only the **stale** rows (mutated events) and
  columns (intervals whose locked state changed) patches the cached grid to
  exactly the bits a fresh full computation would produce.

Each mutation therefore translates into targeted staleness:

==============================  =============================================
mutation                        invalidates
==============================  =============================================
:class:`AddEvent`               the appended score row
:class:`RemoveEvent`            nothing (the row is deleted)
:class:`UpdateInterest`         the touched events' rows, plus the lock
                                interval's column for touched locked events
:class:`LockAssignment`         the target (and any previous) interval column
:class:`UnlockAssignment`       the freed interval column
:class:`SetIntervalCapacity`    nothing (capacity gates feasibility, not µ)
==============================  =============================================

Batches are **atomic**: every mutation is validated against scratch copies,
and the session commits only if the whole batch succeeds — a
:class:`MutationError` (unknown id, lock on a full interval, contradictory
capacity, a µ value that is not a real number in ``[0, 1]``) leaves the
session untouched and queryable.

Interest-store rewrites are **journaled**, not applied: a mutation that
changes µ records ``("entries", triples)``, ``("append", column)`` or
``("remove", index)`` in O(size of the mutation), and the store is
materialised once, in apply order, when a resolve or :meth:`instance` next
needs it.  Everything a replay could reject is checked at apply time, so a
committed batch always materialises.
"""

from __future__ import annotations

import dataclasses
import itertools
import operator
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.algorithms.base import decode_seed
from repro.algorithms.registry import get_scheduler
from repro.core.constraints import interval_violations
from repro.core.counters import ComputationCounter
from repro.core.entities import (
    Event,
    TimeInterval,
    decode_capacity,
    decode_event,
    decode_id,
    decode_real,
    decode_reals,
    encode_event,
)
from repro.core.errors import InstanceValidationError, SolverError, StorageCapacityError
from repro.core.execution import ExecutionConfig
from repro.core.instance import SESInstance
from repro.core.storage import DenseStore, ensure_dense_capacity, require_unit_interval
from repro.service.stats import SessionStats


class MutationError(SolverError):
    """A mutation batch was rejected; the session state is unchanged.

    Raised for unknown entity ids, locks that violate the interval capacity /
    location / resource constraints, removals of locked events, interest
    values that are not real numbers in ``[0, 1]``, added events that would
    push a dense interest store past its capacity, and capacities
    contradicting existing locks.  Because batches are applied to scratch
    state first, the error is a pure reject: the session keeps serving
    status, schedule and resolve requests exactly as before the batch.
    """


# --------------------------------------------------------------------------- #
# Mutations
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class AddEvent:
    """Announce a new candidate event with one interest value per user."""

    event: Event
    interest: Tuple[float, ...]


@dataclass(frozen=True)
class RemoveEvent:
    """Cancel a candidate event (rejected while the event is locked)."""

    event_id: str


@dataclass(frozen=True)
class UpdateInterest:
    """Overwrite one user's interest for the named events (µ values)."""

    user_id: str
    values: Mapping[str, float]


@dataclass(frozen=True)
class LockAssignment:
    """Pin an event to an interval (re-locking a locked event moves it)."""

    event_id: str
    interval_id: str


@dataclass(frozen=True)
class UnlockAssignment:
    """Release a previously locked event back to the algorithm."""

    event_id: str


@dataclass(frozen=True)
class SetIntervalCapacity:
    """Cap (or uncap, with ``None``) how many events an interval may host."""

    interval_id: str
    capacity: Optional[int]


Mutation = Union[
    AddEvent,
    RemoveEvent,
    UpdateInterest,
    LockAssignment,
    UnlockAssignment,
    SetIntervalCapacity,
]


def mutation_to_dict(mutation: Mutation) -> Dict[str, object]:
    """Serialise one mutation to the wire dict of the ``mutate`` operation."""
    if isinstance(mutation, AddEvent):
        return {
            "op": "add-event",
            "event": encode_event(mutation.event),
            "interest": [float(value) for value in mutation.interest],
        }
    if isinstance(mutation, RemoveEvent):
        return {"op": "remove-event", "event_id": mutation.event_id}
    if isinstance(mutation, UpdateInterest):
        return {
            "op": "update-interest",
            "user_id": mutation.user_id,
            "values": {key: float(value) for key, value in mutation.values.items()},
        }
    if isinstance(mutation, LockAssignment):
        return {"op": "lock", "event_id": mutation.event_id, "interval_id": mutation.interval_id}
    if isinstance(mutation, UnlockAssignment):
        return {"op": "unlock", "event_id": mutation.event_id}
    if isinstance(mutation, SetIntervalCapacity):
        return {
            "op": "set-capacity",
            "interval_id": mutation.interval_id,
            "capacity": mutation.capacity,
        }
    raise MutationError(f"unknown mutation object: {mutation!r}")


def mutation_from_dict(payload: Mapping[str, object]) -> Mutation:
    """Inverse of :func:`mutation_to_dict` (validating the ``op`` tag).

    Ids must be strings and numbers real (see
    :func:`~repro.core.entities.decode_real`); every other payload raises
    :class:`MutationError`.
    """
    if not isinstance(payload, Mapping) or "op" not in payload:
        raise MutationError(f"malformed mutation payload: {payload!r}")
    op = payload["op"]
    try:
        if op == "add-event":
            return AddEvent(
                event=decode_event(payload["event"]),
                interest=decode_reals(payload["interest"], "interest"),
            )
        if op == "remove-event":
            return RemoveEvent(event_id=decode_id(payload["event_id"], "event_id"))
        if op == "update-interest":
            values = payload["values"]
            if not isinstance(values, Mapping):
                raise ValueError(f"values must be a mapping of event ids, got {values!r}")
            return UpdateInterest(
                user_id=decode_id(payload["user_id"], "user_id"),
                values={
                    decode_id(key, "event id"): decode_real(value, f"interest of {key!r}")
                    for key, value in values.items()
                },
            )
        if op == "lock":
            return LockAssignment(
                event_id=decode_id(payload["event_id"], "event_id"),
                interval_id=decode_id(payload["interval_id"], "interval_id"),
            )
        if op == "unlock":
            return UnlockAssignment(event_id=decode_id(payload["event_id"], "event_id"))
        if op == "set-capacity":
            return SetIntervalCapacity(
                interval_id=decode_id(payload["interval_id"], "interval_id"),
                capacity=decode_capacity(payload["capacity"]),
            )
    except (KeyError, TypeError, ValueError) as error:
        raise MutationError(f"malformed {op!r} mutation: {error}") from error
    raise MutationError(f"unknown mutation op {op!r}")


def _mutation_id(value: object, what: str) -> str:
    """:func:`~repro.core.entities.decode_id` for in-process mutations (not from the wire)."""
    try:
        return decode_id(value, what)
    except ValueError as error:
        raise MutationError(str(error)) from error


# --------------------------------------------------------------------------- #
# Store journal and the scratch state of one atomic batch
# --------------------------------------------------------------------------- #
#: One interest-store rewrite: ``("entries", [(user, item, value), ...])``,
#: ``("append", column)`` or ``("remove", item_index)``.  Item indices refer to
#: the column layout left by the ops before it.
StoreOp = Tuple[str, object]


def _replay(interest, journal: Sequence[StoreOp]):
    """``interest`` with the journaled rewrites applied in order.

    Each run of consecutive ops of one kind is one store rewrite where it can
    be: ``entries`` ops share one column layout, so a run merges into a
    single bulk :meth:`~repro.core.interest.InterestMatrix.with_entries`
    call, and a run of ``append`` ops stacks its columns into one
    :meth:`~repro.core.interest.InterestMatrix.with_appended_items` call.
    Each ``remove`` is its own rewrite.
    """
    for kind, run in itertools.groupby(journal, key=operator.itemgetter(0)):
        payloads = [payload for _, payload in run]
        if kind == "entries":
            entries = [entry for payload in payloads for entry in payload]
            if entries:
                interest = interest.with_entries(entries)
        elif kind == "append":
            interest = interest.with_appended_items(np.stack(payloads, axis=1))
        else:
            for item_index in payloads:
                interest = interest.without_item(item_index)
    return interest


@dataclass
class _Scratch:
    """Working copies one batch mutates; committed only if the batch succeeds.

    ``journal`` holds only this batch's store ops (the session extends its
    own journal with them on commit, and a rejected batch just drops them),
    so no mutation touches the interest store itself.  ``row_ops`` replays
    the structural edits against the cached score grid at commit time.
    """

    events: List[Event]
    event_ids: Dict[str, int]
    intervals: List[TimeInterval]
    interval_ids: Dict[str, int]
    locks: Dict[str, str]
    stale_events: set
    stale_intervals: set
    journal: List[StoreOp] = field(default_factory=list)
    row_ops: List[Tuple[str, int]] = field(default_factory=list)
    instance_dirty: bool = False


class SchedulingSession:
    """A live SES instance accepting mutations and incremental re-solves.

    Parameters
    ----------
    instance:
        The initial instance; each rebuilt one is a ``dataclasses.replace``
        of the previous one, so later mutations never touch the caller's
        object.
    algorithm:
        Default scheduler name for :meth:`resolve` (any registry name; a
        non-string raises :class:`~repro.core.errors.SolverError`).
    seed:
        Default seed forwarded to the randomised schedulers: ``None`` or an
        integer (a bool, float or string raises ``SolverError``).
    execution:
        The :class:`~repro.core.execution.ExecutionConfig` every resolve runs
        under (``None`` selects the library defaults).  Bit-identity across
        storages and plans is inherited from the one-shot path.

    All public methods are safe to call from concurrent server threads: state
    is guarded by one re-entrant lock, batches are atomic, and a rejected
    batch leaves the session fully queryable.
    """

    def __init__(
        self,
        instance: SESInstance,
        *,
        algorithm: str = "INC",
        seed: Optional[int] = None,
        execution: Optional[ExecutionConfig] = None,
    ) -> None:
        get_scheduler(algorithm)  # fail fast on unknown names
        self._lock = threading.RLock()
        self._algorithm = algorithm
        self._seed = decode_seed(seed)
        self._execution = execution
        #: The latest built instance: the one home of the fields no mutation
        #: changes (users, competing events, σ, θ) and of the last
        #: materialised interest store.
        self._instance = instance
        #: Whether events, intervals or the journal moved past ``_instance``.
        self._dirty = False
        self._events: List[Event] = list(instance.events)
        self._intervals: List[TimeInterval] = list(instance.intervals)
        #: Store ops committed since ``_instance.interest`` was materialised.
        self._journal: List[StoreOp] = []
        self._event_ids = {event.id: idx for idx, event in enumerate(self._events)}
        self._interval_ids = {
            interval.id: idx for idx, interval in enumerate(self._intervals)
        }
        self._locks: Dict[str, str] = {}
        self._baseline: Optional[np.ndarray] = None
        self._stale_events: set = set()
        self._stale_intervals: set = set()
        self._stats = SessionStats()
        self._last_result = None
        self._last_schedule: Optional[Dict[str, str]] = None

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def algorithm(self) -> str:
        """Default scheduler name of this session's resolves."""
        return self._algorithm

    @property
    def stats(self) -> SessionStats:
        """The session's saved-work ledger (live object; snapshot to copy)."""
        return self._stats

    def locks(self) -> Dict[str, str]:
        """Current ``{event_id: interval_id}`` locked assignments."""
        with self._lock:
            return dict(self._locks)

    def instance(self) -> SESInstance:
        """The current (mutated) instance, rebuilt lazily after mutations."""
        with self._lock:
            return self._build_instance()

    def baseline_grid(self) -> Optional[np.ndarray]:
        """Copy of the cached initial score grid (``None`` before a resolve)."""
        with self._lock:
            if self._baseline is None:
                return None
            return np.array(self._baseline, copy=True)

    def last_schedule(self) -> Optional[Dict[str, str]]:
        """The latest resolve's ``{event_id: interval_id}`` schedule."""
        with self._lock:
            if self._last_schedule is None:
                return None
            return dict(self._last_schedule)

    def status(self) -> Dict[str, object]:
        """A queryable summary (the ``session-status`` reply body)."""
        with self._lock:
            return {
                "algorithm": self._algorithm,
                "num_events": len(self._events),
                "num_intervals": len(self._intervals),
                "num_users": self._instance.num_users,
                "locks": dict(self._locks),
                "stale_events": len(self._stale_events),
                "stale_intervals": len(self._stale_intervals),
                "has_baseline": self._baseline is not None,
                "last_utility": (
                    None if self._last_result is None else self._last_result.utility
                ),
                "stats": self._stats.snapshot(),
            }

    # ------------------------------------------------------------------ #
    # Mutations
    # ------------------------------------------------------------------ #
    def apply(self, mutations: Sequence[Mutation]) -> Dict[str, int]:
        """Apply one atomic batch of mutations.

        Every mutation is validated against scratch copies first; the session
        commits only a fully valid batch and otherwise raises
        :class:`MutationError` with the state untouched.  µ changes are only
        validated and journaled here (no store is rewritten), so a batch
        costs the size of its mutations plus copies of the event, interval
        and lock tables, never O(|U|·|E|).  Returns a small summary
        (mutations applied, staleness added) for the wire reply.
        """
        batch = list(mutations)
        with self._lock:
            scratch = _Scratch(
                events=list(self._events),
                event_ids=dict(self._event_ids),
                intervals=list(self._intervals),
                interval_ids=dict(self._interval_ids),
                locks=dict(self._locks),
                stale_events=set(self._stale_events),
                stale_intervals=set(self._stale_intervals),
            )
            for mutation in batch:
                self._apply_one(scratch, mutation)
            return self._commit(scratch, len(batch))

    def _apply_one(self, scratch: _Scratch, mutation: Mutation) -> None:
        """Validate and apply one mutation against the scratch state."""
        if isinstance(mutation, AddEvent):
            self._apply_add_event(scratch, mutation)
        elif isinstance(mutation, RemoveEvent):
            self._apply_remove_event(scratch, mutation)
        elif isinstance(mutation, UpdateInterest):
            self._apply_update_interest(scratch, mutation)
        elif isinstance(mutation, LockAssignment):
            self._apply_lock(scratch, mutation)
        elif isinstance(mutation, UnlockAssignment):
            self._apply_unlock(scratch, mutation)
        elif isinstance(mutation, SetIntervalCapacity):
            self._apply_set_capacity(scratch, mutation)
        else:
            raise MutationError(f"unknown mutation object: {mutation!r}")

    def _apply_add_event(self, scratch: _Scratch, mutation: AddEvent) -> None:
        event = mutation.event
        if not isinstance(event, Event):
            raise MutationError(f"add-event needs an Event, got {event!r}")
        _mutation_id(event.location, "event location")
        if _mutation_id(event.id, "event id") in scratch.event_ids:
            raise MutationError(f"event id {event.id!r} already exists")
        try:
            column = np.array(decode_reals(mutation.interest, "interest"), dtype=np.float64)
        except (TypeError, ValueError) as error:
            raise MutationError(f"malformed interest of event {event.id!r}: {error}") from error
        num_users = self._instance.num_users
        if column.shape != (num_users,):
            raise MutationError(
                f"event {event.id!r} has {column.size} interest values, expected "
                f"{num_users} (one per user)"
            )
        try:
            require_unit_interval(column, "interest values")
            if self._instance.storage == DenseStore.name:
                ensure_dense_capacity((num_users, len(scratch.events) + 1))
        except (InstanceValidationError, StorageCapacityError) as error:
            raise MutationError(str(error)) from error
        scratch.event_ids[event.id] = len(scratch.events)
        scratch.events.append(event)
        scratch.journal.append(("append", column))
        scratch.row_ops.append(("append", 0))
        scratch.stale_events.add(event.id)
        scratch.instance_dirty = True

    def _apply_remove_event(self, scratch: _Scratch, mutation: RemoveEvent) -> None:
        index = scratch.event_ids.get(_mutation_id(mutation.event_id, "event_id"))
        if index is None:
            raise MutationError(f"unknown event id: {mutation.event_id!r}")
        if mutation.event_id in scratch.locks:
            raise MutationError(
                f"event {mutation.event_id!r} is locked to interval "
                f"{scratch.locks[mutation.event_id]!r}; unlock it before removing"
            )
        del scratch.events[index]
        scratch.event_ids = {event.id: idx for idx, event in enumerate(scratch.events)}
        scratch.journal.append(("remove", index))
        scratch.row_ops.append(("remove", index))
        scratch.stale_events.discard(mutation.event_id)
        scratch.instance_dirty = True

    def _apply_update_interest(self, scratch: _Scratch, mutation: UpdateInterest) -> None:
        try:
            user_index = self._instance.user_index(_mutation_id(mutation.user_id, "user_id"))
        except InstanceValidationError as error:
            raise MutationError(str(error)) from None
        if not isinstance(mutation.values, Mapping):
            raise MutationError(
                f"interest values must be a mapping of event ids, got {mutation.values!r}"
            )
        if not mutation.values:
            return
        triples = []
        for event_id, value in mutation.values.items():
            event_index = scratch.event_ids.get(_mutation_id(event_id, "event id"))
            if event_index is None:
                raise MutationError(f"unknown event id: {event_id!r}")
            try:
                value = decode_real(value, f"interest µ({mutation.user_id!r}, {event_id!r})")
            except ValueError as error:
                raise MutationError(str(error)) from error
            if not 0.0 <= value <= 1.0:
                raise MutationError(
                    f"interest µ({mutation.user_id!r}, {event_id!r}) = {value} "
                    "outside [0, 1]"
                )
            triples.append((user_index, event_index, value))
            scratch.stale_events.add(event_id)
            # A locked event's µ column feeds its interval's scheduled sums,
            # which every score in that column depends on.
            locked_interval = scratch.locks.get(event_id)
            if locked_interval is not None:
                scratch.stale_intervals.add(locked_interval)
        scratch.journal.append(("entries", triples))
        scratch.instance_dirty = True

    def _apply_lock(self, scratch: _Scratch, mutation: LockAssignment) -> None:
        if _mutation_id(mutation.event_id, "event_id") not in scratch.event_ids:
            raise MutationError(f"unknown event id: {mutation.event_id!r}")
        if _mutation_id(mutation.interval_id, "interval_id") not in scratch.interval_ids:
            raise MutationError(f"unknown interval id: {mutation.interval_id!r}")
        previous = scratch.locks.get(mutation.event_id)
        if previous == mutation.interval_id:
            return  # already locked there; nothing to invalidate
        scratch.locks[mutation.event_id] = mutation.interval_id
        self._check_locks(
            scratch,
            mutation.interval_id,
            f"cannot lock {mutation.event_id!r} to {mutation.interval_id!r}",
        )
        scratch.stale_intervals.add(mutation.interval_id)
        if previous is not None:
            scratch.stale_intervals.add(previous)

    def _apply_unlock(self, scratch: _Scratch, mutation: UnlockAssignment) -> None:
        previous = scratch.locks.pop(_mutation_id(mutation.event_id, "event_id"), None)
        if previous is None:
            raise MutationError(f"event {mutation.event_id!r} is not locked")
        scratch.stale_intervals.add(previous)

    def _apply_set_capacity(self, scratch: _Scratch, mutation: SetIntervalCapacity) -> None:
        index = scratch.interval_ids.get(_mutation_id(mutation.interval_id, "interval_id"))
        if index is None:
            raise MutationError(f"unknown interval id: {mutation.interval_id!r}")
        # TimeInterval validates the capacity's type and range, so a bad
        # value is reported as such before the lock check reads it.
        try:
            scratch.intervals[index] = dataclasses.replace(
                scratch.intervals[index], capacity=mutation.capacity
            )
        except ValueError as error:
            raise MutationError(str(error)) from error
        self._check_locks(
            scratch,
            mutation.interval_id,
            f"cannot set capacity {mutation.capacity} on {mutation.interval_id!r} "
            "with the events already locked there",
        )
        scratch.instance_dirty = True

    def _check_locks(self, scratch: _Scratch, interval_id: str, context: str) -> None:
        """Reject the batch unless the events locked at one interval are feasible there."""
        problems = interval_violations(
            [
                scratch.events[scratch.event_ids[event_id]]
                for event_id, locked_at in scratch.locks.items()
                if locked_at == interval_id
            ],
            scratch.intervals[scratch.interval_ids[interval_id]].capacity,
            self._instance.available_resources,
        )
        if problems:
            raise MutationError(f"{context}: {'; '.join(problems)}")

    def _commit(self, scratch: _Scratch, batch_size: int) -> Dict[str, int]:
        """Promote a fully validated scratch state to the session state."""
        with self._lock:
            new_rows = len(scratch.stale_events - self._stale_events)
            new_columns = len(scratch.stale_intervals - self._stale_intervals)
            self._events = scratch.events
            self._event_ids = scratch.event_ids
            self._intervals = scratch.intervals
            self._interval_ids = scratch.interval_ids
            self._locks = scratch.locks
            self._journal.extend(scratch.journal)
            self._stale_events = scratch.stale_events
            self._stale_intervals = scratch.stale_intervals
            if self._baseline is not None:
                for kind, index in scratch.row_ops:
                    if kind == "remove":
                        self._baseline = np.delete(self._baseline, index, axis=0)
                    else:
                        self._baseline = np.vstack(
                            [self._baseline, np.zeros((1, self._baseline.shape[1]))]
                        )
            self._dirty = self._dirty or scratch.instance_dirty
            self._stats.record_batch(batch_size, new_rows, new_columns)
            return {
                "applied": batch_size,
                "stale_events": new_rows,
                "stale_intervals": new_columns,
            }

    # ------------------------------------------------------------------ #
    # Resolving
    # ------------------------------------------------------------------ #
    def _build_instance(self) -> SESInstance:
        """The current instance, materialising the store journal if it is stale."""
        with self._lock:
            if self._dirty:
                self._instance = dataclasses.replace(
                    self._instance,
                    events=list(self._events),
                    intervals=list(self._intervals),
                    interest=_replay(self._instance.interest, self._journal),
                    metadata={
                        key: value
                        for key, value in self._instance.metadata.items()
                        if key != "unschedulable_events"
                    },
                )
                self._journal = []
                self._dirty = False
            return self._instance

    def resolve(self, k: int, *, algorithm: Optional[str] = None, seed: Optional[int] = None):
        """Solve the current instance, reusing the cached grid where valid.

        Returns the plain :class:`~repro.algorithms.base.SchedulerResult` of
        the underlying scheduler, with ``result.service`` carrying this
        resolve's warm/recomputed/saved split plus the session totals.  The
        schedule, utilities and initial scores are bit-identical to a cold
        one-shot run of the same algorithm on the mutated instance with the
        same locked assignments.  A ``k`` or ``seed`` that is a bool, float or
        string (rejected by the scheduler itself), or an ``algorithm`` that is
        not a string, raises :class:`~repro.core.errors.SolverError` (no
        truncation or coercion) and leaves the session unchanged.
        """
        with self._lock:
            name = algorithm if algorithm is not None else self._algorithm
            scheduler_cls = get_scheduler(name)
            instance = self._build_instance()
            locked_pairs = tuple(
                sorted(
                    (instance.event_index(event_id), instance.interval_index(interval_id))
                    for event_id, interval_id in self._locks.items()
                )
            )
            provider = _WarmGridProvider(
                baseline=self._baseline,
                stale_rows=sorted(self._event_ids[event_id] for event_id in self._stale_events),
                stale_columns=sorted(
                    self._interval_ids[interval_id] for interval_id in self._stale_intervals
                ),
                locked=dict(locked_pairs),
            )
            scheduler = scheduler_cls(
                instance,
                counter=ComputationCounter(),
                seed=seed if seed is not None else self._seed,
                execution=self._execution,
                locked=locked_pairs,
                warm_grid=provider,
            )
            result = scheduler.schedule(k)
            if provider.captured is not None:
                # The provider saw the post-lock engine state: its captured
                # grid is the fresh baseline and the staleness is repaid.
                self._baseline = provider.captured
                self._stale_events = set()
                self._stale_intervals = set()
            self._stats.record_resolve(
                warm=provider.used_warm,
                recomputed=provider.recomputed,
                saved=provider.saved,
            )
            result.service = {
                "warm": provider.used_warm,
                "scores_recomputed": provider.recomputed,
                "scores_saved": provider.saved,
                "session": self._stats.snapshot(),
            }
            self._last_result = result
            self._last_schedule = {
                instance.events[event_index].id: instance.intervals[interval_index].id
                for event_index, interval_index in result.schedule.as_dict().items()
            }
            return result


class _WarmGridProvider:
    """Serves one resolve's initial score grid from the session cache.

    Consulted by :class:`~repro.algorithms.base.BaseScheduler` during initial
    generation only.  The provider first verifies that the engine's applied
    assignments are exactly the session's locks (any other state — e.g. a HOR
    round after selections — falls back to fresh computation, returning
    ``None``).  On a cold session it captures the full grid at exactly the
    cold path's cost; on a warm one it copies the baseline and re-scores only
    the stale rows (one subset ``score_matrix`` call) and stale columns (one
    ``interval_scores`` call each).  Both patch calls run the same per-event
    kernel reductions as the full-grid call, so the patched grid is
    bit-identical to a cold computation — the property the equivalence suite
    asserts cell by cell.
    """

    def __init__(
        self,
        *,
        baseline: Optional[np.ndarray],
        stale_rows: Sequence[int],
        stale_columns: Sequence[int],
        locked: Dict[int, int],
    ) -> None:
        self._baseline = baseline
        self._stale_rows = list(stale_rows)
        self._stale_columns = list(stale_columns)
        self._locked = dict(locked)
        self.captured: Optional[np.ndarray] = None
        self.used_warm = False
        self.recomputed = 0
        self.saved = 0

    def grid(self, engine) -> Optional[np.ndarray]:
        """The |E| × |T| initial grid for the engine's current state, or ``None``."""
        if engine.applied_assignments() != self._locked:
            return None
        if self.captured is not None:
            return np.array(self.captured, copy=True)
        if self._baseline is None:
            grid = engine.score_matrix(initial=True)
            self.recomputed += int(grid.size)
            self.captured = np.array(grid, copy=True)
            return grid
        grid = np.array(self._baseline, copy=True)
        num_events, num_intervals = grid.shape
        if self._stale_rows:
            grid[self._stale_rows, :] = engine.score_matrix(self._stale_rows, initial=True)
        for interval_index in self._stale_columns:
            grid[:, interval_index] = engine.interval_scores(
                interval_index, None, initial=True
            )
        recomputed = len(self._stale_rows) * num_intervals + len(
            self._stale_columns
        ) * num_events
        self.recomputed += recomputed
        self.saved += max(0, int(grid.size) - recomputed)
        self.used_warm = True
        self.captured = np.array(grid, copy=True)
        return grid


__all__ = [
    "AddEvent",
    "LockAssignment",
    "Mutation",
    "MutationError",
    "RemoveEvent",
    "SchedulingSession",
    "SetIntervalCapacity",
    "UnlockAssignment",
    "UpdateInterest",
    "mutation_from_dict",
    "mutation_to_dict",
]
